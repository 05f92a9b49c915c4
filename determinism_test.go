package drrgossip

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/faults"
	"drrgossip/internal/sim"
)

// Determinism regression: identical Seed ⇒ bit-identical Counters and
// results, with and without an active fault plan, at GOMAXPROCS 1, 2
// and 8. A run starts no goroutine, so the core count must not reach
// any draw, bill or answer; this guards against a per-node step that
// comes to depend on it again.
func TestDeterminismAcrossParallelForScheduling(t *testing.T) {
	const n = 2048
	values := uniformValues(n, 61)
	plans := map[string]*faults.Plan{"static": nil}
	churn, err := faults.Parse("churn:0.25:30;loss:0.2@100r..200r;part:2@220r..300r")
	if err != nil {
		t.Fatal(err)
	}
	plans["faulty"] = churn

	type outcome struct {
		value   float64
		stats   sim.Counters
		perNode []float64
	}
	run := func(procs int, plan *faults.Plan) outcome {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		eng := sim.NewEngine(n, sim.Options{Seed: 63, Loss: 0.02})
		if plan != nil {
			// A fixed 400-round horizon for the churn expansion; events
			// past the run's actual end simply never fire.
			b, err := plan.Bind(n, 63, 400)
			if err != nil {
				t.Fatal(err)
			}
			b.Attach(eng)
		}
		res, err := core.Run(eng, nil, core.Ave, values)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{value: res.Value, stats: eng.Stats(), perNode: res.PerNode}
	}

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			serial := run(1, plan)
			for _, procs := range []int{2, 8} {
				parallel := run(procs, plan)
				if parallel.stats != serial.stats {
					t.Fatalf("GOMAXPROCS=%d: counters drifted: %+v vs %+v",
						procs, parallel.stats, serial.stats)
				}
				if parallel.value != serial.value {
					t.Fatalf("GOMAXPROCS=%d: value %v vs %v", procs, parallel.value, serial.value)
				}
				for i := range serial.perNode {
					// NaN-safe bit comparison: NaN != NaN, so compare the
					// "both NaN" case explicitly.
					a, b := parallel.perNode[i], serial.perNode[i]
					if a != b && !(a != a && b != b) {
						t.Fatalf("GOMAXPROCS=%d: perNode[%d] = %v vs %v", procs, i, a, b)
					}
				}
			}
		})
	}
}

// A run starts no goroutine, and RunAll starts as many workers as its
// Parallelism asks, so what a warm session allocates per query must not
// depend on the core count: the same at GOMAXPROCS 1 and 8, within 2%
// for the runtime's own allocations. testing.AllocsPerRun pins
// GOMAXPROCS to 1, so mallocsPerRun counts without it.
func TestAllocsIndependentOfProcs(t *testing.T) {
	const n = 4096
	v := uniformValues(n, 67)
	plan, err := ParseFaultPlan("loss:0.1@0.2..0.8")
	if err != nil {
		t.Fatal(err)
	}
	batch := []Query{MaxOf(v), SumOf(v), CountOf(v), AverageOf(v), RankOf(v, 500)}
	for _, c := range []struct {
		name string
		cfg  Config
		run  func(nw *Network) error
	}{
		{"average", Config{N: n, Seed: 68}, func(nw *Network) error {
			_, err := nw.Run(AverageOf(v))
			return err
		}},
		{"quantile", Config{N: n, Seed: 69}, func(nw *Network) error {
			_, err := nw.Run(QuantileOf(v, 0.9, 0))
			return err
		}},
		{"runall-parallel2", Config{N: n, Seed: 70, Topology: SmallWorld, Loss: 0.02, Faults: plan}, func(nw *Network) error {
			_, _, err := nw.RunAll(batch, BatchOptions{Parallelism: 2})
			return err
		}},
	} {
		allocs := func(procs int) float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			nw, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return mallocsPerRun(3, func() {
				if err := c.run(nw); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, eight := allocs(1), allocs(8)
		if math.Abs(eight-one) > 0.02*one {
			t.Errorf("%s: %.0f allocs per query at GOMAXPROCS 8, %.0f at 1", c.name, eight, one)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun at the current GOMAXPROCS: the
// average heap allocations of runs calls of f after one warm-up call.
// The collection after the warm-up starts the runtime's mark workers for
// every P, which would otherwise allocate inside the count.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// RunAll's opt-in concurrency must return answers bit-identical to
// sequential execution — for any worker count, any GOMAXPROCS, with and
// without a fault plan, on dense and sparse topologies, including
// composite queries (Quantile bisection, Histogram edges) whose fault
// bindings are resolved up front and shared by every worker.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	const n = 256
	values := uniformValues(n, 91)
	churn, err := ParseFaultPlan("crash:0.2@0.5;rejoin@0.9")
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		MaxOf(values), MinOf(values), SumOf(values), CountOf(values),
		AverageOf(values), RankOf(values, 500),
		QuantileOf(values, 0.9, 5), HistogramOf(values, []float64{250, 500, 750}),
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"complete-static", Config{N: n, Seed: 92, Loss: 0.02}},
		{"complete-faulty", Config{N: n, Seed: 93, Loss: 0.02, Faults: churn}},
		{"chord-faulty", Config{N: n, Seed: 94, Topology: Chord, Faults: churn}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBatch := func(procs, workers int) ([]*Answer, Cost) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				nw, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				answers, bill, err := nw.RunAll(queries, BatchOptions{Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				return answers, bill
			}
			seqAnswers, seqBill := runBatch(1, 1)
			for _, procs := range []int{1, 2, 8} {
				for _, workers := range []int{2, 4, len(queries) + 3} {
					parAnswers, parBill := runBatch(procs, workers)
					if parBill != seqBill {
						t.Fatalf("GOMAXPROCS=%d workers=%d: bill %+v vs sequential %+v",
							procs, workers, parBill, seqBill)
					}
					for i := range seqAnswers {
						answersEqual(t, fmt.Sprintf("procs=%d workers=%d query %d (%s)",
							procs, workers, i, queries[i].Op), seqAnswers[i], parAnswers[i])
					}
				}
			}
			// SessionStats parity: the parallel batch resolves the same
			// bindings and pre-runs the sequential batch would.
			seqNW, _ := New(tc.cfg)
			if _, _, err := seqNW.RunAll(queries); err != nil {
				t.Fatal(err)
			}
			parNW, _ := New(tc.cfg)
			if _, _, err := parNW.RunAll(queries, BatchOptions{Parallelism: 4}); err != nil {
				t.Fatal(err)
			}
			ss, ps := seqNW.Stats(), parNW.Stats()
			if ss.HorizonRuns != ps.HorizonRuns || ss.PlanBinds != ps.PlanBinds ||
				ss.Queries != ps.Queries || ss.ProtocolRuns != ps.ProtocolRuns {
				t.Fatalf("session stats diverged: sequential %+v parallel %+v", ss, ps)
			}
		})
	}
}

// Async-mode determinism: the event-driven engine is strictly
// sequential, so GOMAXPROCS-independence is structural — pinned here
// end to end through the facade anyway (the contract outlives the
// implementation), across repeated runs on one session (fresh engine
// per run must not leak state), with loss, with an initial crash set,
// with a fractional-timing fault plan (horizon pre-run + wall-clock
// binding), and for every peer-selection policy.
func TestAsyncDeterminism(t *testing.T) {
	const n = 512
	values := uniformValues(n, 71)
	churn, err := ParseFaultPlan("crash:0.2@0.5;rejoin@0.9")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"complete-uniform", Config{N: n, Seed: 72, Mode: Async, Loss: 0.05, SampleNodes: AllNodes}},
		{"complete-samplegreedy", Config{N: n, Seed: 73, Mode: Async, AsyncPeer: "samplegreedy",
			CrashFraction: 0.1, SampleNodes: AllNodes}},
		{"smallworld-gge", Config{N: n, Seed: 74, Mode: Async, AsyncPeer: "gge",
			Topology: SmallWorld, SampleNodes: AllNodes}},
		{"complete-faulty", Config{N: n, Seed: 75, Mode: Async, Loss: 0.02,
			Faults: churn, SampleNodes: AllNodes}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) *Answer {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				nw, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				first, err := nw.Run(AverageOf(values))
				if err != nil {
					t.Fatal(err)
				}
				// Session repeat: the second run reuses the session (and its
				// cached fault binding) and must reproduce the first bitwise.
				second, err := nw.Run(AverageOf(values))
				if err != nil {
					t.Fatal(err)
				}
				answersEqual(t, fmt.Sprintf("procs=%d session repeat", procs), first, second)
				return first
			}
			serial := run(1)
			for _, procs := range []int{2, 8} {
				answersEqual(t, fmt.Sprintf("GOMAXPROCS=%d", procs), serial, run(procs))
			}
			if serial.Cost.Clock <= 0 || serial.Cost.Rounds == 0 {
				t.Fatalf("async run reported no progress: %+v", serial.Cost)
			}
		})
	}
}

// The same property through the public facade, where the fault plan's
// horizon-measurement pre-run doubles the engine executions.
func TestFacadeDeterminismUnderFaults(t *testing.T) {
	plan, err := ParseFaultPlan("crash:0.2@0.5;rejoin@0.9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 1024, Seed: 65, Loss: 0.03, Faults: plan}
	values := uniformValues(1024, 66)
	run := func(procs int) *Answer {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return mustRun(t, cfg, AverageOf(values))
	}
	serial := run(1)
	parallel := run(8)
	if serial.Value != parallel.Value || serial.Cost.Messages != parallel.Cost.Messages ||
		serial.Cost.Rounds != parallel.Cost.Rounds || serial.Cost.Drops != parallel.Cost.Drops ||
		serial.FaultEvents != parallel.FaultEvents {
		t.Fatalf("facade drifted across schedulers:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}
