package drrgossip

import (
	"context"
	"errors"
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/faults"
	"drrgossip/internal/telemetry"
)

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A session builds its overlay exactly once, and repeated queries are
// deterministic: the second call sees the same messages and seed-derived
// randomness as the first, and both match a fresh single-use session.
func TestSessionReusesOneOverlay(t *testing.T) {
	cfg := Config{N: 256, Seed: 75, Topology: Chord}
	values := uniformValues(256, 76)

	before := overlayBuilds.Load()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if overlayBuilds.Load()-before != 1 {
		t.Fatalf("session built %d overlays, want 1", overlayBuilds.Load()-before)
	}
	if a.Value != b.Value || a.Cost != b.Cost {
		t.Fatalf("repeat query drifted: %+v vs %+v", a, b)
	}
	fresh := mustRun(t, cfg, AverageOf(values))
	if a.Value != fresh.Value || a.Cost.Messages != fresh.Cost.Messages {
		t.Fatalf("session differs from a fresh session: %v/%d vs %v/%d",
			a.Value, a.Cost.Messages, fresh.Value, fresh.Cost.Messages)
	}
	if st := nw.Stats(); st.Queries != 2 || st.ProtocolRuns != 2 || !st.OverlayBuilt {
		t.Fatalf("session stats off: %+v", st)
	}
}

// The amortization acceptance bar: a composite query builds the overlay
// and binds the fault plan once per call — one horizon pre-run and one
// binding for all of Histogram's edges and its population count (and
// one per pipeline shape for Quantile), instead of one per internal Rank
// step as before the session redesign.
func TestCompositeQueriesAmortizeSetup(t *testing.T) {
	values := uniformValues(256, 78)
	cfg := Config{N: 256, Seed: 77, Topology: Chord,
		Faults: mustPlan(t, "crash:0.2@0.5")} // fractional timing: needs a horizon

	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := nw.Run(HistogramOf(values, []float64{200, 400, 600}))
	if err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	// One pipeline shape: the sum pipeline behind every edge's Rank and
	// the Count that measures the open bucket's population — not one per
	// edge, nor one per operation kind.
	if st.HorizonRuns != 1 || st.PlanBinds != 1 {
		t.Fatalf("histogram should measure and bind once per pipeline shape: %+v", st)
	}
	if st.ProtocolRuns != 1+hist.Cost.Runs || hist.Cost.Runs != 4 {
		t.Fatalf("histogram runs off: stats %+v, cost %+v", st, hist.Cost)
	}

	nw2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := nw2.Run(QuantileOf(values, 0.5, 5.0))
	if err != nil {
		t.Fatal(err)
	}
	st2 := nw2.Stats()
	// Two pipeline shapes measure and bind once each: max (shared by min
	// and max) and sum (shared by count and every bisection rank step).
	if st2.HorizonRuns != 2 || st2.PlanBinds != 2 {
		t.Fatalf("quantile should bind once per pipeline shape: %+v", st2)
	}
	if q.Cost.Runs <= 4 || st2.ProtocolRuns != 2+q.Cost.Runs {
		t.Fatalf("quantile pre-run accounting off: stats %+v, cost %+v", st2, q.Cost)
	}

	// A single-use session running one Histogram also builds exactly
	// one overlay.
	before := overlayBuilds.Load()
	if _, err := runOnce(cfg, HistogramOf(values, []float64{200, 400, 600})); err != nil {
		t.Fatal(err)
	}
	if got := overlayBuilds.Load() - before; got != 1 {
		t.Fatalf("single-use Histogram built %d overlays, want 1", got)
	}
}

// Satellite regression: Histogram's open last bucket must take its alive
// count from the final Rank run (which reflects the fault plan's mid-run
// crashes), not from a fresh static engine. With 30% of the nodes
// crashing at round 3 — before Phase II banks any tree sums — every Rank
// counts only survivors, so a static alive count would inflate the open
// bucket by the crashed ~30%.
func TestHistogramAliveUnderChurnPlan(t *testing.T) {
	const n = 512
	cfg := Config{N: n, Seed: 79, Faults: mustPlan(t, "crash:0.3@3r")}
	values := uniformValues(n, 80) // uniform [0, 1000)
	res := mustRun(t, cfg, HistogramOf(values, []float64{250, 2000}))
	ans, err2 := func() (*Answer, error) {
		nw, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return nw.Run(HistogramOf(values, []float64{250, 2000}))
	}()
	if err2 != nil {
		t.Fatal(err2)
	}
	if ans.Alive >= n || ans.Alive < n/2 {
		t.Fatalf("final alive %d does not reflect the crash plan", ans.Alive)
	}
	// Every value is <= 2000, so the open bucket above the last edge must
	// be (approximately) empty — under the old static-engine accounting it
	// held the ~154 crashed nodes.
	last := res.Counts[len(res.Counts)-1]
	if math.Abs(last) > 2 {
		t.Fatalf("open bucket = %v, want ~0 (static-alive regression)", last)
	}
	// The population (and hence the bucket total) is measured by a Count
	// run riding the same dynamics as the ranks — billed as one extra run.
	if res.Cost.Runs != 3 {
		t.Fatalf("runs = %d, want 2 edges + 1 count", res.Cost.Runs)
	}
	total := 0.0
	for _, c := range res.Counts {
		total += c
	}
	if math.Abs(total-float64(ans.Alive)) > 2 {
		t.Fatalf("bucket total %v inconsistent with surviving population %d", total, ans.Alive)
	}
}

// The post-banking counterpart: when the plan crashes nodes *after*
// Phase II has banked the tree sums, the Rank counts reflect the
// pre-crash population. The open bucket must stay consistent with the
// other buckets (non-negative) instead of subtracting the smaller
// end-of-run alive count — the Count-run population makes that hold in
// every fault scenario.
func TestHistogramStaysNonNegativeUnderLateCrash(t *testing.T) {
	const n = 256
	cfg := Config{N: n, Seed: 95, Faults: mustPlan(t, "crash:0.5@0.5")}
	values := uniformValues(n, 96) // uniform [0, 1000)
	res := mustRun(t, cfg, HistogramOf(values, []float64{500, 1000}))
	total := 0.0
	for b, c := range res.Counts {
		if c < 0 {
			t.Fatalf("negative bucket %d: %v (population inconsistent with rank counts)", b, c)
		}
		total += c
	}
	// All values sit below the last edge, so the open bucket is empty and
	// the total is the banked (pre-crash) population, not the halved
	// end-of-run alive count.
	if last := res.Counts[len(res.Counts)-1]; math.Abs(last) > 2 {
		t.Fatalf("open bucket = %v, want ~0", last)
	}
	if math.Abs(total-n) > 2 {
		t.Fatalf("bucket total %v, want the banked population ~%d", total, n)
	}
}

// Moments now participates in fault plans like every other query (the
// pre-session implementation silently ignored Config.Faults).
func TestMomentsAppliesFaultPlan(t *testing.T) {
	const n = 512
	cfg := Config{N: n, Seed: 97, Faults: mustPlan(t, "crash:0.2@0.5")}
	values := uniformValues(n, 98)
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(MomentsOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ans.Mean) || math.IsInf(ans.Mean, 0) || math.IsNaN(ans.Std) {
		t.Fatalf("faulty moments not finite: %+v", ans)
	}
	if ans.FaultEvents == 0 || ans.FaultCrashes == 0 || ans.Alive >= n {
		t.Fatalf("plan did not apply to moments: %+v", ans)
	}
	fresh := mustRun(t, cfg, MomentsOf(values))
	if fresh.Mean != ans.Mean || fresh.Variance != ans.Variance {
		t.Fatalf("fresh session diverged from session: %+v vs %+v", fresh, ans)
	}
}

// Satellite: the bisection cap surfaces as Converged == false instead of
// a silently looser value, and lossy runs accumulate Drops into the
// composite cost totals.
func TestQuantileConvergenceReporting(t *testing.T) {
	const n = 128
	cfg := Config{N: n, Seed: 81, Loss: 0.05}
	values := uniformValues(n, 82)

	ok := mustRun(t, cfg, QuantileOf(values, 0.5, 5.0))
	if !ok.Converged {
		t.Fatalf("easy quantile did not converge: %+v", ok)
	}
	if ok.Cost.Drops == 0 {
		t.Fatal("quantile cost did not accumulate Drops under loss")
	}

	// A tolerance far below float64 resolution can never be met: the
	// bisection stalls at ulp scale and must hit the run cap.
	capped := mustRun(t, cfg, QuantileOf(values, 0.5, 1e-300))
	if capped.Converged {
		t.Fatalf("impossible tolerance reported Converged: %+v", capped)
	}
	if capped.Cost.Runs != maxQuantileRuns {
		t.Fatalf("cap hit at %d runs, want %d", capped.Cost.Runs, maxQuantileRuns)
	}

	hist := mustRun(t, cfg, HistogramOf(values, []float64{300, 600}))
	if hist.Cost.Drops == 0 {
		t.Fatal("histogram cost did not accumulate Drops under loss")
	}
}

// RunAll executes a batch against one session and reports both per-query
// answers and the aggregate bill.
func TestRunAllBatch(t *testing.T) {
	const n = 256
	values := uniformValues(n, 84)
	nw, err := New(Config{N: n, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Query{MaxOf(values), AverageOf(values), HistogramOf(values, []float64{500})}
	answers, bill, err := nw.RunAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(batch) {
		t.Fatalf("%d answers for %d queries", len(answers), len(batch))
	}
	var want Cost
	for i, a := range answers {
		if a.Op != batch[i].Op {
			t.Fatalf("answer %d is %s, want %s", i, a.Op, batch[i].Op)
		}
		want = want.Add(a.Cost)
	}
	if bill != want {
		t.Fatalf("aggregate bill %+v != summed costs %+v", bill, want)
	}
	if answers[0].Value != mustExact(t, Config{N: n, Seed: 83}, MaxOf(values)) {
		t.Fatalf("batched Max = %v", answers[0].Value)
	}
	if len(answers[2].Counts) != 2 {
		t.Fatalf("batched histogram counts: %v", answers[2].Counts)
	}
}

// RunContext stops composite queries between protocol runs once the
// context is cancelled.
func TestRunContextCancellation(t *testing.T) {
	const n = 128
	values := uniformValues(n, 86)
	nw, err := New(Config{N: n, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.RunContext(ctx, MaxOf(values)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v, want context.Canceled", err)
	}

	// Cancel from a telemetry sink once the second protocol run starts:
	// the quantile must stop in that run instead of finishing its ~12.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cancelAtRun2 := sinkFunc(func(ev *telemetry.Event) {
		if ev.Kind == telemetry.KindRunStart && ev.Run >= 2 {
			cancel2()
		}
	})
	nw2, err := New(Config{N: n, Seed: 85, Telemetry: &telemetry.Options{Sink: cancelAtRun2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw2.RunContext(ctx2, QuantileOf(values, 0.5, 1.0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-quantile cancel: %v, want context.Canceled", err)
	}
	if st := nw2.Stats(); st.ProtocolRuns > 3 {
		t.Fatalf("cancellation did not stop the bisection: %+v", st)
	}
}

// At RoundEvery 1 the engine round observer streams one round event per
// round with phase attribution, and the tap cannot perturb the run.
func TestObserverStreamsRounds(t *testing.T) {
	const n = 256
	values := uniformValues(n, 88)
	cfg := Config{N: n, Seed: 87}

	plain := mustRun(t, cfg, AverageOf(values))

	var buf telemetry.Buffer
	cfg.Telemetry = &telemetry.Options{Sink: &buf, RoundEvery: 1}
	observed := mustRun(t, cfg, AverageOf(values))
	answersEqual(t, "RoundEvery 1 tap", plain, observed)

	var rounds []telemetry.Event
	for _, ev := range buf.Events() {
		if ev.Kind == telemetry.KindRound {
			rounds = append(rounds, ev)
		}
	}
	if len(rounds) != plain.Cost.Rounds {
		t.Fatalf("streamed %d round events, run took %d rounds", len(rounds), plain.Cost.Rounds)
	}
	phases := map[string]bool{}
	for i, ev := range rounds {
		if ev.Round != i+1 {
			t.Fatalf("round %d reported as %d", i+1, ev.Round)
		}
		if ev.Run != 1 || ev.Alive != n {
			t.Fatalf("bad round event: %+v", ev)
		}
		phases[ev.Phase] = true
	}
	for _, want := range []string{"drr", "aggregate", "gossip", "broadcast"} {
		if !phases[want] {
			t.Fatalf("phase %q never streamed (saw %v)", want, phases)
		}
	}
}

// ExactOf is the error-returning replacement for the deprecated Exact:
// it covers rank and quantile, and rejects unknown operations and
// mismatched input instead of panicking.
func TestExactOf(t *testing.T) {
	const n = 128
	cfg := Config{N: n, Seed: 89, CrashFraction: 0.2}
	values := uniformValues(n, 90)

	rank, err := ExactOf(cfg, RankOf(values, 400))
	if err != nil {
		t.Fatal(err)
	}
	alive := agg.Subset(values, cfg.engine().AliveIDs())
	if want := agg.Exact(agg.Rank, alive, 400); rank != want {
		t.Fatalf("ExactOf(rank) = %v, want %v", rank, want)
	}
	if q, err := ExactOf(cfg, QuantileOf(values, 0.5, 0)); err != nil || q != agg.Quantile(alive, 0.5) {
		t.Fatalf("ExactOf(quantile) = %v, %v", q, err)
	}
	mx, err := ExactOf(cfg, MaxOf(values))
	if err != nil || mx != mustExact(t, cfg, MaxOf(values)) {
		t.Fatalf("ExactOf(max) = %v, %v", mx, err)
	}
	if _, err := ExactOf(cfg, MomentsOf(values)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("moments should have no scalar reference: %v", err)
	}
	if _, err := ExactOf(cfg, Query{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero query accepted: %v", err)
	}
	if _, err := ExactOf(cfg, MaxOf(values[:10])); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("length mismatch accepted: %v", err)
	}
	// ExactOf validates the Config as New does: an out-of-range Loss used
	// to panic in the engine, an out-of-range CrashFraction to answer.
	for _, bad := range []Config{
		{N: n, Loss: math.NaN()},
		{N: n, Loss: 1.5},
		{N: n, CrashFraction: 2},
		{N: n, CrashFraction: math.NaN()},
	} {
		if _, err := ExactOf(bad, MaxOf(values)); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ExactOf(Loss %v, CrashFraction %v): err = %v, want ErrBadConfig",
				bad.Loss, bad.CrashFraction, err)
		}
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := nw.Exact(MaxOf(values)); err != nil || v != mx {
		t.Fatalf("Network.Exact = %v, %v", v, err)
	}
}

// Moments through the session carries the full answer (mean, variance,
// std) and matches the same query run through Run on a fresh session.
func TestMomentsViaSession(t *testing.T) {
	const n = 512
	cfg := Config{N: n, Seed: 91}
	values := uniformValues(n, 92)
	fresh := mustRun(t, cfg, MomentsOf(values))
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(MomentsOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mean != fresh.Mean || ans.Variance != fresh.Variance || ans.Std != fresh.Std ||
		ans.Value != fresh.Mean || ans.Cost.Messages != fresh.Cost.Messages {
		t.Fatalf("session moments drifted: %+v vs %+v", ans, fresh)
	}
}

// Unknown query operations are rejected, not misrouted.
func TestUnknownOpRejected(t *testing.T) {
	nw, err := New(Config{N: 16, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(Query{Op: Op(99), Values: make([]float64, 16)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown op: %v, want ErrBadConfig", err)
	}
}
