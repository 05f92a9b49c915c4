package drrgossip

import (
	"math"
	"strings"
	"testing"

	"drrgossip/internal/telemetry"
)

// Async-mode configuration errors must be loud and specific.
func TestAsyncConfigValidation(t *testing.T) {
	base := Config{N: 64, Seed: 1}
	for name, mutate := range map[string]func(*Config){
		"peer-in-sync-mode": func(c *Config) { c.AsyncPeer = "uniform" },
		"unknown-peer":      func(c *Config) { c.Mode = Async; c.AsyncPeer = "psychic" },
		"gge-on-complete":   func(c *Config) { c.Mode = Async; c.AsyncPeer = "gge" },
		"negative-eps":      func(c *Config) { c.Mode = Async; c.AsyncEps = -1 },
		"mode-out-of-range": func(c *Config) { c.Mode = Mode(9) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
		})
	}
	for name, mutate := range map[string]func(*Config){
		"default-async":    func(c *Config) { c.Mode = Async },
		"gge-on-chord":     func(c *Config) { c.Mode = Async; c.AsyncPeer = "gge"; c.Topology = Chord },
		"explicit-uniform": func(c *Config) { c.Mode = Async; c.AsyncPeer = "uniform"; c.AsyncEps = 1e-4 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := New(cfg); err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
		})
	}
}

// Async mode computes averages only; every other operation reports an
// error naming the restriction instead of running the wrong protocol.
func TestAsyncRejectsNonAverage(t *testing.T) {
	const n = 64
	values := uniformValues(n, 81)
	nw, err := New(Config{N: n, Seed: 82, Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		MaxOf(values), MinOf(values), SumOf(values), CountOf(values),
		RankOf(values, 500), MomentsOf(values),
		QuantileOf(values, 0.5, 1), HistogramOf(values, []float64{500}),
	} {
		if _, err := nw.Run(q); err == nil {
			t.Fatalf("%s ran in Async mode", q.Op)
		} else if !strings.Contains(err.Error(), "Async") {
			t.Fatalf("%s: error does not name the mode: %v", q.Op, err)
		}
	}
	if _, err := nw.Run(AverageOf(values)); err != nil {
		t.Fatalf("AverageOf rejected: %v", err)
	}
}

// The async answer's bill must be internally consistent: convergence to
// the ε-ball around the exact mean, 2 messages per committed exchange
// (lossless), Rounds carrying the event count, and a positive clock.
func TestAsyncAnswerShape(t *testing.T) {
	const n = 256
	values := uniformValues(n, 83)
	nw, err := New(Config{N: n, Seed: 84, Mode: Async, SampleNodes: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := nw.Exact(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Converged {
		t.Fatalf("lossless complete-graph run did not converge: %+v", ans.Cost)
	}
	if math.Abs(ans.Value-exact) > 1e-5 {
		t.Fatalf("value %v strayed from exact %v", ans.Value, exact)
	}
	if ans.Exchanges <= 0 || ans.Cost.Messages != 2*ans.Exchanges {
		t.Fatalf("lossless bill inconsistent: %d exchanges, %d messages", ans.Exchanges, ans.Cost.Messages)
	}
	if ans.Cost.Clock <= 0 || ans.Cost.Rounds <= 0 || ans.Cost.Runs != 1 {
		t.Fatalf("cost incomplete: %+v", ans.Cost)
	}
	if ans.Alive != n || len(ans.PerNode) != n {
		t.Fatalf("population accounting off: alive %d, perNode %d", ans.Alive, len(ans.PerNode))
	}
	spread := 0.0
	for _, v := range ans.PerNode {
		if d := math.Abs(v - ans.Value); d > spread {
			spread = d
		}
	}
	if spread > 1e-6 {
		t.Fatalf("estimates not in the ε-ball: max deviation %v", spread)
	}
}

// Telemetry, with the engine observers it installs, is a read-only tap
// in Async mode exactly as in Sync: the event stream carries
// run/phase/round/fault/run-end events with monotone counters, and
// attaching it changes no answer bit.
func TestAsyncObserversAndTelemetry(t *testing.T) {
	const n = 128
	values := uniformValues(n, 85)
	plan, err := ParseFaultPlan("crash:0.1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New(Config{N: n, Seed: 86, Mode: Async, Faults: plan, SampleNodes: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}

	var buf telemetry.Buffer
	tapped, err := New(Config{N: n, Seed: 86, Mode: Async, Faults: plan, SampleNodes: AllNodes,
		Telemetry: &telemetry.Options{Sink: &buf, RoundEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tapped.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "telemetry tap", want, got)

	kinds := map[telemetry.Kind]int{}
	var rounds []telemetry.Event
	for _, ev := range buf.Events() {
		kinds[ev.Kind]++
		if ev.Kind == telemetry.KindRound {
			rounds = append(rounds, ev)
		}
	}
	if kinds[telemetry.KindRunStart] == 0 || kinds[telemetry.KindRunEnd] == 0 {
		t.Fatalf("run events missing: %v", kinds)
	}
	if len(rounds) == 0 {
		t.Fatalf("no round samples at stride 64 over %d events: %v", got.Cost.Rounds, kinds)
	}
	if kinds[telemetry.KindFault] == 0 {
		t.Fatalf("no fault events from the crash plan: %v", kinds)
	}
	// The stream covers two runs (the horizon pre-run, then the faulted
	// run); round samples are monotone within each run and reset between
	// them.
	last := telemetry.Event{}
	for i, ev := range rounds {
		if ev.Run != last.Run {
			last = telemetry.Event{Run: ev.Run}
		}
		if ev.Round <= last.Round || ev.Counters.Messages < last.Counters.Messages {
			t.Fatalf("round stream not monotone at %d: %+v after %+v", i, ev, last)
		}
		last = ev
	}
}

// A fault plan with fractional timings exercises the wall-clock horizon
// binding: one pre-run, one bind, crashes actually applied, and the
// session reuses the binding across queries.
func TestAsyncFaultHorizonBinding(t *testing.T) {
	const n = 256
	values := uniformValues(n, 87)
	plan, err := ParseFaultPlan("crash:0.25@0.5")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(Config{N: n, Seed: 88, Mode: Async, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	first, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if first.FaultCrashes == 0 || first.Alive != n-first.FaultCrashes {
		t.Fatalf("plan did not bite: %+v", first)
	}
	second, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "bound reuse", first, second)
	st := nw.Stats()
	if st.HorizonRuns != 1 || st.PlanBinds != 1 || st.ProtocolRuns != 3 {
		t.Fatalf("amortization off: %+v", st)
	}
}

// RunAll with Parallelism must reproduce sequential answers in Async
// mode (worker sessions share the one async fault binding).
func TestAsyncRunAllParallel(t *testing.T) {
	const n = 128
	plan, err := ParseFaultPlan("crash:0.2@0.5;rejoin@0.9")
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		AverageOf(uniformValues(n, 91)),
		AverageOf(uniformValues(n, 92)),
		AverageOf(uniformValues(n, 93)),
		AverageOf(uniformValues(n, 94)),
	}
	for _, cfg := range []Config{
		{N: n, Seed: 95, Mode: Async, Loss: 0.02},
		{N: n, Seed: 96, Mode: Async, Faults: plan},
	} {
		seqNW, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq, seqBill, err := seqNW.RunAll(queries)
		if err != nil {
			t.Fatal(err)
		}
		parNW, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, parBill, err := parNW.RunAll(queries, BatchOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seqBill != parBill {
			t.Fatalf("bills diverged: %+v vs %+v", seqBill, parBill)
		}
		for i := range seq {
			answersEqual(t, queries[i].Op.String(), seq[i], par[i])
		}
		ss, ps := seqNW.Stats(), parNW.Stats()
		if ss.HorizonRuns != ps.HorizonRuns || ss.PlanBinds != ps.PlanBinds {
			t.Fatalf("session stats diverged: %+v vs %+v", ss, ps)
		}
	}
}
