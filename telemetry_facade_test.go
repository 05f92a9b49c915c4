// Facade-level telemetry contract: per-phase cost attribution sums
// exactly to the aggregate Cost on every op and topology, telemetry is
// a bit-identical read-only tap, event streams are deterministic across
// batch parallelism, and a Quantile session exports a
// valid Chrome trace.

package drrgossip

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// sinkFunc adapts a function to telemetry.Sink, for tests that act on
// the event stream as it is emitted.
type sinkFunc func(ev *telemetry.Event)

func (f sinkFunc) Emit(ev *telemetry.Event) { f(ev) }

// sumPhases folds a PhaseCosts slice back into a Cost-shaped bill.
func sumPhases(pcs []PhaseCost) (rounds int, messages, drops int64) {
	for _, pc := range pcs {
		rounds += pc.Rounds
		messages += pc.Messages
		drops += pc.Drops
	}
	return
}

// TestPhaseCostsSumToCost is the golden pin of the acceptance criterion:
// for every op on Complete and Chord, and for partial and retried
// answers, Answer.PhaseCosts sums exactly to Answer.Cost — the dense and
// sparse pipelines account bit-identically to their totals.
func TestPhaseCostsSumToCost(t *testing.T) {
	phaseOrder := []string{"drr", "aggregate", "gossip", "broadcast"}
	for _, topo := range []Topology{Complete, Chord} {
		queries := []Query{
			MaxOf(nil), MinOf(nil), SumOf(nil), CountOf(nil), AverageOf(nil),
			RankOf(nil, 500), QuantileOf(nil, 0.9, 5), HistogramOf(nil, []float64{250, 500, 750}),
		}
		if topo.isComplete() {
			queries = append(queries, MomentsOf(nil))
		}
		nw, err := New(Config{N: 512, Seed: 11, Loss: 0.05, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		values := uniformValues(512, 7)
		for _, q := range queries {
			q.Values = values
			a, err := nw.Run(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo, q.Op, err)
			}
			if len(a.PhaseCosts) != 4 {
				t.Fatalf("%s/%s: %d phase entries, want 4", topo, q.Op, len(a.PhaseCosts))
			}
			for i, pc := range a.PhaseCosts {
				if pc.Phase != phaseOrder[i] {
					t.Fatalf("%s/%s: phase %d = %q, want %q", topo, q.Op, i, pc.Phase, phaseOrder[i])
				}
			}
			rounds, messages, drops := sumPhases(a.PhaseCosts)
			if rounds != a.Cost.Rounds || messages != a.Cost.Messages || drops != a.Cost.Drops {
				t.Errorf("%s/%s: phase sum (%d, %d, %d) != cost (%d, %d, %d)",
					topo, q.Op, rounds, messages, drops, a.Cost.Rounds, a.Cost.Messages, a.Cost.Drops)
			}
		}
	}
	// Answers of runs cut short: a round-budget abort of a single run, a
	// composite whose Rank step is aborted, and a retried query whose
	// earlier attempts were aborted. A salvaged run bills the phases it
	// reached, and a retried answer folds every attempt's phases.
	cases := []struct {
		name    string
		cfg     Config
		q       Query
		retries int
	}{
		{"round-budget-average", Config{N: 256, Seed: 21, RoundBudget: 20}, AverageOf(uniformValues(256, 121)), 0},
		{"round-budget-quantile", Config{N: 256, Seed: 22, RoundBudget: 100}, QuantileOf(uniformValues(256, 122), 0.9, 0), 0},
		{"retried-average", Config{N: 256, Seed: 43, RoundBudget: 208, Retry: &RetryPolicy{Attempts: 3}}, AverageOf(uniformValues(256, 67)), 2},
	}
	for _, c := range cases {
		a, err := runOnce(c.cfg, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Quality.Partial == (c.retries > 0) || a.Quality.Retries != c.retries {
			t.Fatalf("%s: partial %v after %d retries, want partial %v after %d",
				c.name, a.Quality.Partial, a.Quality.Retries, c.retries == 0, c.retries)
		}
		if len(a.PhaseCosts) == 0 {
			t.Fatalf("%s: no phase costs for cost %+v", c.name, a.Cost)
		}
		rounds, messages, drops := sumPhases(a.PhaseCosts)
		if rounds != a.Cost.Rounds || messages != a.Cost.Messages || drops != a.Cost.Drops {
			t.Errorf("%s: phase sum (%d, %d, %d) != cost (%d, %d, %d)",
				c.name, rounds, messages, drops, a.Cost.Rounds, a.Cost.Messages, a.Cost.Drops)
		}
	}
}

// TestPhaseCostsUnderFaults extends the sum pin to a faulted run, where
// drops and blocked messages concentrate in specific phases.
func TestPhaseCostsUnderFaults(t *testing.T) {
	plan, err := ParseFaultPlan("crash:0.1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(Config{N: 512, Seed: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(AverageOf(uniformValues(512, 5)))
	if err != nil {
		t.Fatal(err)
	}
	rounds, messages, drops := sumPhases(a.PhaseCosts)
	if rounds != a.Cost.Rounds || messages != a.Cost.Messages || drops != a.Cost.Drops {
		t.Errorf("faulted phase sum (%d, %d, %d) != cost (%d, %d, %d)",
			rounds, messages, drops, a.Cost.Rounds, a.Cost.Messages, a.Cost.Drops)
	}
}

// TestTelemetryIsReadOnlyTap pins the overhead contract's semantic half:
// attaching a sink (even with per-round sampling, which turns on the
// residual computation) changes no answer field.
func TestTelemetryIsReadOnlyTap(t *testing.T) {
	values := uniformValues(512, 9)
	run := func(topo Topology, tel *telemetry.Options) *Answer {
		nw, err := New(Config{N: 512, Seed: 21, Loss: 0.05, Topology: topo, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		a, err := nw.Run(QuantileOf(values, 0.75, 2))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, topo := range []Topology{Complete, Chord} {
		plain := run(topo, nil)
		var buf telemetry.Buffer
		tapped := run(topo, &telemetry.Options{Sink: &buf, RoundEvery: 1})
		if !reflect.DeepEqual(plain, tapped) {
			t.Errorf("%s: telemetry perturbed the answer:\nplain:  %+v\ntapped: %+v", topo, plain, tapped)
		}
		if len(buf.Events()) == 0 {
			t.Errorf("%s: no events captured", topo)
		}
	}
}

// eventStream runs a fixed batch on cfg (at n = 512, seed 33 and loss
// 0.02) with telemetry attached and returns the captured events.
func eventStream(t *testing.T, parallelism int, cfg Config) []telemetry.Event {
	t.Helper()
	cfg.N, cfg.Seed, cfg.Loss = 512, 33, 0.02
	var buf telemetry.Buffer
	cfg.Telemetry = &telemetry.Options{Sink: &buf, RoundEvery: 4}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	values := uniformValues(512, 13)
	// Rank and Sum share a pass, whose retries precede the Average's.
	queries := []Query{MaxOf(values), RankOf(values, 400), AverageOf(values), SumOf(values)}
	if _, _, err := nw.RunAll(queries, BatchOptions{Parallelism: parallelism}); err != nil {
		t.Fatal(err)
	}
	evs := buf.Events()
	// NaN != NaN would defeat DeepEqual below; canonicalize "no residual"
	// to a sentinel outside the residual's [0, inf) range.
	for i := range evs {
		if math.IsNaN(evs[i].Residual) {
			evs[i].Residual = -1
		}
	}
	return evs
}

// checkEventOrder pins the stream-ordering invariant: events sorted by
// (Run, Round, Seq), with Seq restarting per run.
func checkEventOrder(t *testing.T, label string, evs []telemetry.Event) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatalf("%s: empty event stream", label)
	}
	lastRun, lastRound, lastSeq := 0, -1, uint64(0)
	for i, ev := range evs {
		if ev.Run < lastRun {
			t.Fatalf("%s: event %d run regressed: %d after %d", label, i, ev.Run, lastRun)
		}
		if ev.Run > lastRun {
			lastRun, lastRound, lastSeq = ev.Run, -1, 0
		}
		if ev.Round < lastRound {
			t.Fatalf("%s: event %d round regressed within run %d", label, i, ev.Run)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("%s: event %d seq not increasing within run %d", label, i, ev.Run)
		}
		lastRound, lastSeq = ev.Round, ev.Seq
	}
}

// TestEventOrderingDeterministic pins the satellite contract: the event
// stream is sorted by (run, round, seq) and bit-identical across RunAll
// parallelism degrees, and for this batch of single-run queries it
// matches sequential execution exactly — with a fault plan too, where
// the parallel path resolves the horizon pre-runs up front and forwards
// each one's events just before those of the first query that used its
// binding, where sequential execution ran it, and with round-budget
// aborts and retries, where a lane's retries follow its group's pass.
func TestEventOrderingDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fault-free", Config{}},
		{"crash", Config{Faults: mustPlan(t, "crash:0.05@0.4")}},
		{"round-budget+retry", Config{RoundBudget: 100, Retry: &RetryPolicy{Attempts: 1}}},
	} {
		sequential := eventStream(t, 1, tc.cfg)
		checkEventOrder(t, tc.name+" sequential", sequential)
		base := eventStream(t, 2, tc.cfg)
		checkEventOrder(t, tc.name+" parallel", base)
		if !reflect.DeepEqual(sequential, base) {
			t.Errorf("%s: parallel stream differs from sequential (%d vs %d events)",
				tc.name, len(base), len(sequential))
		}
		if got := eventStream(t, 4, tc.cfg); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: parallel=4 event stream differs from parallel=2 (%d vs %d events)",
				tc.name, len(got), len(base))
		}
	}
}

// TestRoundInfoDeltas checks the per-round counter deltas of the round
// events: the deltas of a run's events up to its last round event sum to
// that event's cumulative Counters, the run's Cost is at least that
// snapshot, and a partition plan shows up as a Blocked delta.
func TestRoundInfoDeltas(t *testing.T) {
	plan, err := ParseFaultPlan("part:2@0.2..0.8")
	if err != nil {
		t.Fatal(err)
	}
	var buf telemetry.Buffer
	nw, err := New(Config{N: 256, Seed: 17, Loss: 0.05, Faults: plan,
		Telemetry: &telemetry.Options{Sink: &buf, RoundEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(AverageOf(uniformValues(256, 19)))
	if err != nil {
		t.Fatal(err)
	}
	perRun := map[int]sim.Counters{}
	lastRound := map[int]telemetry.Event{}
	atLastRound := map[int]sim.Counters{}
	lastRun := -1
	for _, ev := range buf.Events() {
		d := perRun[ev.Run]
		d.Rounds += ev.Delta.Rounds
		d.Messages += ev.Delta.Messages
		d.Drops += ev.Delta.Drops
		d.Blocked += ev.Delta.Blocked
		d.Calls += ev.Delta.Calls
		perRun[ev.Run] = d
		if ev.Kind == telemetry.KindRound {
			lastRound[ev.Run] = ev
			atLastRound[ev.Run] = d
			lastRun = ev.Run
		}
	}
	if lastRun < 0 {
		t.Fatal("no round events")
	}
	// The deltas telescope: summed up to a run's last round event they
	// reproduce that event's cumulative snapshot exactly. (The run total
	// in Cost can exceed it by messages sent after the final Tick.)
	got, cum := atLastRound[lastRun], lastRound[lastRun].Counters
	if got != cum {
		t.Errorf("delta sums %+v != last round snapshot %+v", got, cum)
	}
	if a.Cost.Messages < cum.Messages || a.Cost.Drops < cum.Drops {
		t.Errorf("cost (%d, %d) below last round snapshot (%d, %d)",
			a.Cost.Messages, a.Cost.Drops, cum.Messages, cum.Drops)
	}
	if got.Blocked == 0 {
		t.Error("partition plan produced no Blocked delta on the round events")
	}
}

// TestRoundEventResidual checks that during the gossip phase of an
// Average run the driver reports a residual on the round events, and it
// is finite at least once.
func TestRoundEventResidual(t *testing.T) {
	var buf telemetry.Buffer
	nw, err := New(Config{N: 256, Seed: 23, Telemetry: &telemetry.Options{Sink: &buf, RoundEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(AverageOf(uniformValues(256, 29))); err != nil {
		t.Fatal(err)
	}
	sawFinite := false
	sawPhase := false
	for _, ev := range buf.Events() {
		if ev.Kind == telemetry.KindRound && ev.Phase == "gossip" {
			sawPhase = true
			if !math.IsNaN(ev.Residual) {
				sawFinite = true
			}
		}
	}
	if !sawPhase {
		t.Fatal("no round event in the gossip phase")
	}
	if !sawFinite {
		t.Error("no finite residual on a gossip-phase round event")
	}
}

// TestQuantileSessionChromeTrace is the acceptance criterion's trace
// half: a whole Quantile session renders as valid Chrome trace-event
// JSON with one run span per engine pass.
func TestQuantileSessionChromeTrace(t *testing.T) {
	var buf telemetry.Buffer
	nw, err := New(Config{N: 512, Seed: 41, Telemetry: &telemetry.Options{Sink: &buf}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(QuantileOf(uniformValues(512, 43), 0.9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := telemetry.WriteChromeTrace(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &tr); err != nil {
		t.Fatalf("quantile trace is not valid JSON: %v", err)
	}
	runSpans := 0
	for _, te := range tr.TraceEvents {
		if te.Ph == "X" && te.Tid == 1 {
			runSpans++
		}
	}
	if passes := nw.Stats().Passes; runSpans != passes || passes >= a.Cost.Runs {
		t.Errorf("trace has %d run spans for %d passes and %d billed runs", runSpans, passes, a.Cost.Runs)
	}
}

// TestMomentsPhaseCosts pins the Moments pipeline's telescoped phase
// accounting (it reports Phases via counter snapshots rather than the
// shared pipeline helper).
func TestMomentsPhaseCosts(t *testing.T) {
	nw, err := New(Config{N: 256, Seed: 47, Loss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(MomentsOf(uniformValues(256, 53)))
	if err != nil {
		t.Fatal(err)
	}
	rounds, messages, drops := sumPhases(a.PhaseCosts)
	if rounds != a.Cost.Rounds || messages != a.Cost.Messages || drops != a.Cost.Drops {
		t.Errorf("moments phase sum (%d, %d, %d) != cost (%d, %d, %d)",
			rounds, messages, drops, a.Cost.Rounds, a.Cost.Messages, a.Cost.Drops)
	}
	for _, pc := range a.PhaseCosts {
		if pc.Messages < 0 || pc.Rounds < 0 {
			t.Errorf("negative phase bill: %+v", pc)
		}
	}
}

// TestTelemetryFaultEvents checks that a crash plan surfaces KindFault
// events carrying the transitioned node, and that run boundaries pair up.
func TestTelemetryFaultEvents(t *testing.T) {
	plan, err := ParseFaultPlan("crash:0.1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	var buf telemetry.Buffer
	nw, err := New(Config{N: 256, Seed: 59, Faults: plan, Telemetry: &telemetry.Options{Sink: &buf}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(MaxOf(uniformValues(256, 61))); err != nil {
		t.Fatal(err)
	}
	starts, ends, faults := 0, 0, 0
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case telemetry.KindRunStart:
			starts++
		case telemetry.KindRunEnd:
			ends++
		case telemetry.KindFault:
			faults++
			if !ev.Crash || ev.Node < 0 || ev.Node >= 256 {
				t.Errorf("malformed fault event: %+v", ev)
			}
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("run boundaries unbalanced: %d starts, %d ends", starts, ends)
	}
	if faults == 0 {
		t.Error("crash plan emitted no fault events")
	}
	// The engine is pooled across the horizon pre-run and the faulted
	// run; every event's phase must be a real label (Reset cleared state
	// between runs) and seq must restart per run.
	for _, ev := range buf.Events() {
		if ev.Kind == telemetry.KindRunStart && ev.Seq != 1 {
			t.Errorf("run %d: RunStart seq = %d, want 1", ev.Run, ev.Seq)
		}
	}
}

// TestTelemetryMetricsSink wires the live Metrics aggregator as the
// session sink and checks the counters line up with the answer's bill.
func TestTelemetryMetricsSink(t *testing.T) {
	m := telemetry.NewMetrics()
	nw, err := New(Config{N: 256, Seed: 67, Loss: 0.05, Telemetry: &telemetry.Options{Sink: m}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(QuantileOf(uniformValues(256, 71), 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m.WritePrometheus(&out)
	text := out.String()
	if !bytes.Contains(out.Bytes(), []byte("drrgossip_runs_finished_total")) {
		t.Fatalf("metrics output missing run counter:\n%s", text)
	}
	_ = a
}

// TestEventDeltasCloseRuns checks that an event stream's deltas, folded
// per run, reproduce each run's closing totals — including Blocked under
// a partition plan, which must actually block traffic.
func TestEventDeltasCloseRuns(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		spec string
	}{
		{Config{N: 256, Seed: 73, Loss: 0.1}, ""},
		{Config{N: 256, Seed: 17, Loss: 0.05}, "part:2@0.2..0.8"},
	} {
		var buf telemetry.Buffer
		cfg := tc.cfg
		cfg.Telemetry = &telemetry.Options{Sink: &buf, RoundEvery: 1}
		if tc.spec != "" {
			plan, err := ParseFaultPlan(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
		}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nw.Run(AverageOf(uniformValues(256, 79)))
		if err != nil {
			t.Fatal(err)
		}
		sums := map[int]sim.Counters{}
		finals := map[int]sim.Counters{}
		lastRun := 0
		for _, ev := range buf.Events() {
			s := sums[ev.Run]
			s.Rounds += ev.Delta.Rounds
			s.Messages += ev.Delta.Messages
			s.Drops += ev.Delta.Drops
			s.Blocked += ev.Delta.Blocked
			s.Calls += ev.Delta.Calls
			sums[ev.Run] = s
			if ev.Kind == telemetry.KindRunEnd {
				finals[ev.Run] = ev.Counters
				lastRun = ev.Run
			}
		}
		if len(finals) == 0 {
			t.Fatalf("%q: no completed runs in stream", tc.spec)
		}
		for run, final := range finals {
			if sums[run] != final {
				t.Errorf("%q run %d: delta sum %+v != final %+v", tc.spec, run, sums[run], final)
			}
		}
		if last := finals[lastRun]; last.Messages != a.Cost.Messages || last.Rounds != a.Cost.Rounds {
			t.Errorf("%q: closing counters %+v != answer cost %+v", tc.spec, last, a.Cost)
		}
		if tc.spec != "" && sums[lastRun].Blocked == 0 {
			t.Errorf("%q: partition plan produced no Blocked delta", tc.spec)
		}
	}
}
