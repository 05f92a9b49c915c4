package drrgossip

import (
	"context"
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/hms"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// refStep is the one-run composite step the facade had before runs of
// one shape shared passes: one protocol run of op over values, folded
// into ans.
func refStep(nw *Network, ctx context.Context, ans *Answer, op Op, values []float64, arg float64) (*Answer, error) {
	answers, err := nw.execute(ctx, []Query{{Op: op, Values: values, Arg: arg}})
	var run *Answer
	if answers != nil {
		run = &answers[0]
	}
	ans.addRun(run)
	if err != nil {
		return nil, fmt.Errorf("%s %s step: %w", ans.Op, op, err)
	}
	return run, nil
}

// refHistogram is a verbatim copy of the histogram loop before a
// Histogram's runs shared passes, one Rank run per edge and then the
// Count, each through refStep.
func refHistogram(nw *Network, ctx context.Context, values, edges []float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpHistogram)
	ans.Converged = true
	ans.Counts = make([]float64, len(edges)+1)
	cum := make([]float64, len(edges))
	var lastRank *Answer
	for i, edge := range edges {
		res, err := refStep(nw, ctx, ans, OpRank, values, edge)
		if err != nil {
			return nw.finish(ans, err)
		}
		cum[i] = math.Round(res.Value)
		lastRank = res
	}
	ans.Counts[0] = cum[0]
	for i := 1; i < len(edges); i++ {
		ans.Counts[i] = cum[i] - cum[i-1]
	}
	total := float64(lastRank.Alive)
	if !nw.cfg.Faults.Empty() {
		countRes, err := refStep(nw, ctx, ans, OpCount, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		total = math.Round(countRes.Value)
		ans.Alive = lastRank.Alive
		ans.FaultEvents, ans.FaultCrashes, ans.FaultRevives = lastRank.FaultEvents, lastRank.FaultCrashes, lastRank.FaultRevives
	}
	ans.Counts[len(edges)] = total - cum[len(edges)-1]
	return nw.finish(ans, nil)
}

// refBisect is a verbatim copy of the bisection loop before its steps
// shared passes: one Rank run per probe through refStep, until the
// bracket is within tol or the query reaches maxQuantileRuns.
func refBisect(nw *Network, ctx context.Context, ans *Answer, values []float64, lo, hi, tol, target float64) (*Answer, error) {
	if tol <= 0 {
		tol = (hi - lo) / (1 << 20)
		if math.IsInf(tol, 1) {
			tol = (hi/2 - lo/2) / (1 << 19)
		}
	}
	if tol <= 0 {
		ans.Value = math.Max(lo, hi)
		return nw.finish(ans, nil)
	}
	for hi-lo > tol && ans.Cost.Runs < maxQuantileRuns {
		mid := lo + (hi-lo)/2
		if math.IsInf(mid, 0) {
			mid = lo/2 + hi/2
		}
		rankRes, err := refStep(nw, ctx, ans, OpRank, values, mid)
		if err != nil {
			return nw.finish(ans, err)
		}
		if math.Round(rankRes.Value) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	ans.Converged = hi-lo <= tol
	ans.Value = hi
	return nw.finish(ans, nil)
}

// refQuantile is a verbatim copy of the bisection Quantile's opener
// before its Min and Max shared a pass: Min, Max and Count, one run each
// through refStep, then refBisect.
func refQuantile(nw *Network, ctx context.Context, values []float64, phi, tol float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpQuantile)
	ans.Converged = true
	minRes, err := refStep(nw, ctx, ans, OpMin, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	maxRes, err := refStep(nw, ctx, ans, OpMax, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	countRes, err := refStep(nw, ctx, ans, OpCount, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	target := math.Ceil(phi * math.Round(countRes.Value))
	return refBisect(nw, ctx, ans, values, minRes.Value, maxRes.Value, tol, target)
}

// refQuantileHMS is a verbatim copy of the HMS Quantile before its
// fallback bisection shared passes, its steps through refStep and its
// fallback through refBisect.
func refQuantileHMS(nw *Network, ctx context.Context, values []float64, phi, tol float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpQuantile)
	ans.Converged = true
	m := nw.cfg.N
	if nw.cfg.CrashFraction > 0 || !nw.cfg.Faults.Empty() {
		countRes, err := refStep(nw, ctx, ans, OpCount, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		m = int(math.Round(countRes.Value))
		if m < 1 {
			m = 1
		}
	}
	t := int(math.Ceil(phi * float64(m)))
	if t < 1 {
		t = 1
	}
	if t > m {
		t = m
	}
	if err := ctx.Err(); err != nil {
		return nw.finish(ans, err)
	}
	var sum *hms.Summary
	sample, err := nw.execOnce(nil, []Query{{Op: OpQuantile}}, func(eng runEngine, ov overlay.Overlay) ([]Answer, error) {
		s, err := hms.Sample(eng.(*sim.Engine), ov, values, hms.Options{Target: t, Count: m})
		if err != nil {
			return nil, err
		}
		sum = s
		return []Answer{billed(eng)}, nil
	})
	if sample != nil {
		ans.addRun(&sample[0])
	}
	if err != nil {
		return nw.finish(ans, fmt.Errorf("quantile sample session: %w", err))
	}
	w := hms.NewWalk(sum)
	for ans.Cost.Runs < maxQuantileRuns {
		q, ok := w.Next()
		if !ok {
			break
		}
		rankRes, err := refStep(nw, ctx, ans, OpRank, values, q)
		if err != nil {
			return nw.finish(ans, err)
		}
		w.Observe(q, int(math.Round(rankRes.Value)))
	}
	if v, exact := w.Exact(); exact && nw.cfg.Faults.Empty() {
		ans.Value = v
		return nw.finish(ans, nil)
	}
	lo, loOK, hi, hiOK := w.Bracket()
	clamp := !nw.cfg.Faults.Empty()
	if !loOK || clamp {
		minRes, err := refStep(nw, ctx, ans, OpMin, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		if !loOK || lo < minRes.Value {
			lo = minRes.Value
		}
	}
	if !hiOK || clamp {
		maxRes, err := refStep(nw, ctx, ans, OpMax, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		if !hiOK || hi > maxRes.Value {
			hi = maxRes.Value
		}
	}
	if hi < lo {
		hi = lo
	}
	return refBisect(nw, ctx, ans, values, lo, hi, tol, float64(t))
}

// refRun answers q alone on a fresh session for cfg as Run would,
// composites by the reference loops above, and returns the session's
// accounting after it.
func refRun(t testing.TB, cfg Config, q Query) (*Answer, error, SessionStats) {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpHistogram && q.Op != OpQuantile {
		a, err := nw.Run(q)
		return a, err, nw.Stats()
	}
	ctx := context.Background()
	nw.stats.Queries++
	nw.wd = nw.newWatchdog(ctx)
	var a *Answer
	switch {
	case q.Op == OpHistogram:
		a, err = refHistogram(nw, ctx, q.Values, q.Edges)
	case cfg.QuantileMethod == QuantileHMS:
		a, err = refQuantileHMS(nw, ctx, q.Values, q.Arg, q.Tol)
	default:
		a, err = refQuantile(nw, ctx, q.Values, q.Arg, q.Tol)
	}
	nw.wd, nw.ws = nil, nil
	return a, err, nw.Stats()
}

// refAnswer is refRun's answer and error.
func refAnswer(t testing.TB, cfg Config, q Query) (*Answer, error) {
	t.Helper()
	a, err, _ := refRun(t, cfg, q)
	return a, err
}

// batchMix is a query mix that fills every pipeline shape, splits the
// Sum shape over two passes (nine runs against the lane cap of eight),
// and holds a Histogram and a bisection Quantile, which share passes
// inside their own queries.
func batchMix(n int, seed uint64) []Query {
	v := agg.GenUniform(n, 0, 1000, seed)
	w := agg.GenSigned(n, 100, seed+1)
	return []Query{
		SumOf(v), MaxOf(v), CountOf(v), AverageOf(v), RankOf(v, 250), MinOf(w),
		MomentsOf(v), RankOf(v, 750), SumOf(w), HistogramOf(v, []float64{100, 300, 500, 700, 900}),
		RankOf(w, 0), AverageOf(w), CountOf(w), MaxOf(w), MomentsOf(w), RankOf(v, 500),
		QuantileOf(v, 0.9, 0), RankOf(w, 50), SumOf(v), MinOf(v),
	}
}

// checkBatchMatchesSolo runs queries as one RunAll batch at
// Parallelism 1 and 2 and checks every answer against the query run
// alone on a fresh session (and, for composites, against the reference
// loops), bit for bit, and the batch's SessionStats apart from Passes
// against a session that ran the queries one at a time with telemetry
// attached, which must not change its accounting either.
func checkBatchMatchesSolo(t *testing.T, label string, cfg Config, queries []Query) SessionStats {
	t.Helper()
	solo := make([]uint64, len(queries))
	for i, q := range queries {
		a, err := runOnce(cfg, q)
		if err != nil {
			t.Fatalf("%s query %d (%s) alone: %v", label, i, q.Op, err)
		}
		solo[i] = outcomeDigest(a, nil, SessionStats{})
		if (q.Op == OpHistogram || q.Op == OpQuantile) && cfg.Retry == nil {
			r, err := refAnswer(t, cfg, q)
			if err != nil {
				t.Fatalf("%s query %d (%s) by the reference loop: %v", label, i, q.Op, err)
			}
			if d := outcomeDigest(r, nil, SessionStats{}); d != solo[i] {
				t.Fatalf("%s query %d (%s): answer %+v, the reference loop's %+v", label, i, q.Op, a, r)
			}
		}
	}
	seqCfg := cfg
	seqCfg.Telemetry = &telemetry.Options{Sink: telemetry.NewRing(64)}
	seq, err := New(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := seq.Run(q); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	want := seq.Stats()
	var got SessionStats
	for _, workers := range []int{1, 2} {
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		answers, bill, err := nw.RunAll(queries, BatchOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		var total Cost
		for i, a := range answers {
			if d := outcomeDigest(a, nil, SessionStats{}); d != solo[i] {
				alone, _ := runOnce(cfg, queries[i])
				t.Fatalf("%s workers=%d query %d (%s): batch answer %+v, alone %+v", label, workers, i, queries[i].Op, a, alone)
			}
			total = total.Add(a.Cost)
		}
		if bill != total {
			t.Fatalf("%s workers=%d: bill %+v, answers sum to %+v", label, workers, bill, total)
		}
		got = nw.Stats()
		st := got
		st.Passes = want.Passes
		if st != want {
			t.Fatalf("%s workers=%d: session stats %+v, one at a time %+v", label, workers, got, want)
		}
	}
	return got
}

// TestBatchMatchesSolo is the differential spec of value lanes at the
// facade: a RunAll batch, whose single-run queries of one pipeline shape
// share engine passes, returns for every query exactly what the query
// returns alone — every Answer field, bit for bit — and leaves the
// session's accounting (apart from Passes) as running the queries one at
// a time would, on dense and sparse topologies, fault-free, lossy and
// under crash, rejoin and loss-burst plans, with round-budget aborts and
// with epoch retries.
func TestBatchMatchesSolo(t *testing.T) {
	const n = 256
	queries := batchMix(n, 5)
	for _, topo := range []Topology{Complete, Chord, SmallWorld} {
		for _, r := range []struct {
			name string
			cfg  Config
		}{
			{"fault-free", Config{}},
			{"loss0.05", Config{Loss: 0.05}},
			{"crash+rejoin", Config{Faults: mustPlan(t, "crash:0.2@0.5;rejoin@0.9")}},
			{"crash+burst", Config{Loss: 0.02, Faults: mustPlan(t, "crash:0.05@0.3..0.6;loss:0.1@0.2..0.8")}},
		} {
			cfg := r.cfg
			cfg.N, cfg.Seed, cfg.Topology = n, 17, topo
			label := topo.String() + "/" + r.name
			if st := checkBatchMatchesSolo(t, label, cfg, queries); st.Passes >= st.ProtocolRuns {
				t.Fatalf("%s: %d passes for %d runs; no runs shared a pass", label, st.Passes, st.ProtocolRuns)
			}
		}
	}
	budget := Config{N: n, Seed: 18, Loss: 0.05, RoundBudget: 120}
	checkBatchMatchesSolo(t, "complete/round-budget", budget, queries)
	budget.Retry = &RetryPolicy{Attempts: 1}
	checkBatchMatchesSolo(t, "complete/round-budget+retry", budget, queries)
	sample := Config{N: n, Seed: 19, SampleNodes: 16, Faults: mustPlan(t, "crash:0.1@0.4")}
	checkBatchMatchesSolo(t, "complete/sampled", sample, queries)
	// A budget too short for any horizon pre-run: every pre-run aborts,
	// so no pass starts, and each query pays a pre-run of its own.
	v := agg.GenUniform(n, 0, 1000, 3)
	aborted := Config{N: n, Seed: 3, RoundBudget: 20, Faults: mustPlan(t, "loss:0.1@0.2..0.8")}
	checkBatchMatchesSolo(t, "complete/aborted-horizon", aborted, []Query{
		SumOf(v), CountOf(v), RankOf(v, 500), MaxOf(v), MinOf(v), QuantileOf(v, 0.5, 0), HistogramOf(v, []float64{100, 500}),
	})
}

// A batch stops at its lowest-indexed failing query, as one-at-a-time
// execution would: the answers before it, the error and the session's
// accounting (apart from Passes) are the same, although later queries of
// the failing query's shape may already have run in a shared pass. The
// failure may come before the shared pass starts: a context cancelled
// during the horizon pre-run fails the first query alone.
func TestBatchErrorMatchesSolo(t *testing.T) {
	badLength := func() (Config, context.Context) {
		return Config{N: 128, Seed: 23, Faults: mustPlan(t, "crash:0.1@0.5")}, context.Background()
	}
	mix := batchMix(128, 7)
	mix[5] = SumOf(make([]float64, 127)) // wrong length: fails alone
	// cancelAtStart cancels its context when the session's first run
	// starts, which is the horizon pre-run of the first query's shape.
	cancelAtStart := func() (Config, context.Context) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		sink := sinkFunc(func(ev *telemetry.Event) {
			if ev.Kind == telemetry.KindRunStart {
				cancel()
			}
		})
		return Config{N: 256, Seed: 3, Faults: mustPlan(t, "loss:0.1@0.2..0.8"), Telemetry: &telemetry.Options{Sink: sink}}, ctx
	}
	v := agg.GenUniform(256, 0, 1000, 3)
	for _, r := range []struct {
		name    string
		session func() (Config, context.Context) // a fresh one per session
		queries []Query
	}{
		{"bad-length", badLength, mix},
		{"cancelled-horizon", cancelAtStart, []Query{SumOf(v), CountOf(v), RankOf(v, 500)}},
	} {
		cfg, ctx := r.session()
		seq, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []*Answer
		var wantErr error
		for i, q := range r.queries {
			a, err := seq.RunContext(ctx, q)
			if err != nil {
				wantErr = fmt.Errorf("query %d (%s): %w", i, q.Op, err)
				break
			}
			want = append(want, a)
		}
		if wantErr == nil {
			t.Fatalf("%s: no query failed", r.name)
		}
		for _, workers := range []int{1, 2} {
			cfg, ctx := r.session()
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := nw.RunAllContext(ctx, r.queries, BatchOptions{Parallelism: workers})
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s workers=%d: error %v, want %v", r.name, workers, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d answers before the error, want %d", r.name, workers, len(got), len(want))
			}
			for i := range want {
				if outcomeDigest(got[i], nil, SessionStats{}) != outcomeDigest(want[i], nil, SessionStats{}) {
					t.Fatalf("%s workers=%d query %d: %+v, want %+v", r.name, workers, i, got[i], want[i])
				}
			}
			gs, ws := nw.Stats(), seq.Stats()
			gs.Passes = ws.Passes
			if gs != ws {
				t.Fatalf("%s workers=%d: session stats %+v, one at a time %+v", r.name, workers, gs, ws)
			}
		}
	}
}

// Passes counts the engine passes the lanes shared: on the
// sparse-faults-batch mix (Max, Sum, Count, Average and Rank) a warm
// session makes three passes per batch for five runs, and a Histogram
// with e edges makes ⌈e/8⌉ passes, ⌈(e+1)/8⌉ with its Count under a
// fault plan, answering as its runs alone would.
func TestPassesPerShape(t *testing.T) {
	const n = 256
	v := agg.GenUniform(n, 0, 1000, 29)
	nw, err := New(Config{N: n, Seed: 31, Topology: SmallWorld, Loss: 0.02, Faults: mustPlan(t, "loss:0.1@0.2..0.8")})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Query{MaxOf(v), SumOf(v), CountOf(v), AverageOf(v), RankOf(v, 500)}
	if _, _, err := nw.RunAll(batch, BatchOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	before := nw.Stats()
	if _, _, err := nw.RunAll(batch, BatchOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().since(before)
	if d.Passes != 3 || d.ProtocolRuns != 5 {
		t.Fatalf("warm batch: %d passes for %d runs, want 3 for 5", d.Passes, d.ProtocolRuns)
	}
	// A bisection Quantile makes one pass for its Min and Max and settles
	// three bisection levels per pass after it, its Count riding the
	// first: at n = 4096 and the default tolerance, 8 passes for its 24
	// runs (Min, Max, Count and 21 Rank steps), where one Rank run per
	// step took 23.
	u := agg.GenUniform(4096, 0, 1000, 1)
	for _, plan := range []string{"", "loss:0.1@0.2..0.8"} {
		cfg := Config{N: 4096, Seed: 1}
		if plan != "" {
			cfg.Faults = mustPlan(t, plan)
		}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nw.Run(QuantileOf(u, 0.9, 0))
		if err != nil {
			t.Fatal(err)
		}
		st := nw.Stats()
		if got := st.Passes - st.HorizonRuns; got != 8 || a.Cost.Runs != 24 {
			t.Fatalf("plan %q: quantile made %d passes for %d runs, want 8 for 24", plan, got, a.Cost.Runs)
		}
	}
	for _, plan := range []string{"", "crash:0.1@0.5"} {
		for _, e := range []int{1, 7, 8, 9, 17} {
			edges := make([]float64, e)
			for i := range edges {
				edges[i] = float64(1000 * (i + 1) / (e + 1))
			}
			cfg := Config{N: n, Seed: 37}
			want := (e + 7) / 8
			if plan != "" {
				cfg.Faults = mustPlan(t, plan)
				want = (e + 8) / 8
			}
			q := HistogramOf(v, edges)
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := nw.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			st := nw.Stats()
			if got := st.Passes - st.HorizonRuns; got != want {
				t.Fatalf("plan %q, %d edges: %d passes, want %d", plan, e, got, want)
			}
			r, err := refAnswer(t, cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if outcomeDigest(a, nil, SessionStats{}) != outcomeDigest(r, nil, SessionStats{}) {
				t.Fatalf("plan %q, %d edges: %+v, one run at a time %+v", plan, e, a, r)
			}
		}
	}
}

// FuzzBatchMatchesSolo draws networks, fault regimes, round budgets and
// query mixes and checks every batch answer, and the batch's
// accounting, against the queries run alone (see
// checkBatchMatchesSolo). An even budget byte sets no round budget; an
// odd one is the budget in rounds, short enough to abort horizon
// pre-runs as well as the passes after them.
func FuzzBatchMatchesSolo(f *testing.F) {
	plans := []string{"", "crash:0.2@0.5;rejoin@0.9", "crash:0.05@0.3..0.6;loss:0.1@0.2..0.8", "churn:0.2:10", "part:2@0.2..0.6"}
	for i := range plans {
		f.Add(uint64(i+1), uint8(40+30*i), uint8(i), uint8(i*3), uint8(i), uint8(37*i), uint32(0x9e3779b9*uint32(i+1)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, topo, loss, plan, budget uint8, mix uint32) {
		// n and the mix size are capped so that one exec (every query
		// alone, the reference loops, a sequential session and two
		// batches) stays short and the 30 s CI step explores more inputs.
		n := 32 + int(size)%64
		cfg := Config{N: n, Seed: seed, Loss: float64(loss%16) / 160}
		if budget%2 == 1 {
			cfg.RoundBudget = int(budget)
		}
		cfg.Topology = []Topology{Complete, Chord, SmallWorld}[int(topo)%3]
		if spec := plans[int(plan)%len(plans)]; spec != "" {
			p, err := ParseFaultPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = p
		}
		if cfg.validate() != nil {
			return
		}
		all := batchMix(n, seed)
		var queries []Query
		for i, q := range all {
			if mix>>(i%32)&1 == 1 && len(queries) < 5 {
				queries = append(queries, q)
			}
		}
		if len(queries) < 2 {
			queries = all[:4]
		}
		label := fmt.Sprintf("n=%d %s loss=%v plan=%q budget=%d", n, cfg.Topology, cfg.Loss, plans[int(plan)%len(plans)], cfg.RoundBudget)
		checkBatchMatchesSolo(t, label, cfg, queries)
	})
}
