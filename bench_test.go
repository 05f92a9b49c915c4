// Benchmarks of the engine hot paths and the public facade. The
// BenchmarkPerf* family is the pinned performance baseline (make
// bench-perf, make bench-guard); BenchmarkFacadeAverage times one
// AverageOf query end to end. The paper's evaluation (Table 1, the
// measured theorems and the ablations) runs with machine-checked
// verdicts in internal/experiments (TestT1 through TestA3) and
// cmd/benchtab (go run ./cmd/benchtab -experiment all).
package drrgossip

import (
	"testing"
	"time"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/faults"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
	"drrgossip/internal/xrand"
)

const benchN = 4096

func benchValues(n int) []float64 { return agg.GenUniform(n, 0, 1000, 42) }

// --- perf: pinned engine hot-path benchmarks -----------------------------
//
// The BenchmarkPerf* family is the repo's performance baseline: `make
// bench-perf` runs it with -benchmem and emits BENCH_PERF.json (ns/op,
// allocs/op, msgs/node), and `make bench-guard` fails the build when
// allocs/op regresses against the pinned BENCH_PERF_BASELINE.json. Each
// iteration performs a fixed amount of protocol work so allocs/op is
// comparable across machines.

// BenchmarkPerfEngineSendTick measures the raw delivery loop: one round
// of n direct sends plus the Tick that files them. Steady state is
// allocation-free (ring slots and inboxes recycle their backing arrays).
func BenchmarkPerfEngineSendTick(b *testing.B) {
	const n = 1024
	e := sim.NewEngine(n, sim.Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < n; s++ {
			e.Send(s, (s+1)%n, sim.Payload{X: int64(s)})
		}
		e.Tick()
	}
	b.ReportMetric(float64(e.Stats().Messages)/float64(b.N)/n, "msgs/node")
}

// BenchmarkPerfEngineSendLossy is SendTick with per-message loss hashing
// engaged (the non-zero-δ path of attempt).
func BenchmarkPerfEngineSendLossy(b *testing.B) {
	const n = 1024
	e := sim.NewEngine(n, sim.Options{Seed: 2, Loss: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < n; s++ {
			e.Send(s, (s+1)%n, sim.Payload{})
		}
		e.Tick()
	}
}

// BenchmarkPerfEngineSendEach measures the neighbourhood round Local-DRR's
// rank exchange runs on: n senders × 16 neighbours through SendEach, each
// receipt folded into a per-receiver max, plus the Tick. No Message is
// queued, so the round is allocation-free at any size.
func BenchmarkPerfEngineSendEach(b *testing.B) {
	const n, deg = 1024, 16
	e := sim.NewEngine(n, sim.Options{Seed: 6, Loss: 0.02})
	to := make([][]int, n)
	for s := range to {
		for k := 0; k < deg; k++ {
			to[s] = append(to[s], (s+1+k*(n/deg))%n)
		}
	}
	heard := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < n; s++ {
			e.SendEach(s, to[s], func(r int) { heard[r] = max(heard[r], s) })
		}
		e.Tick()
	}
	b.ReportMetric(float64(e.Stats().Messages)/float64(b.N)/n, "msgs/node")
}

// BenchmarkPerfEngineRouted measures the routed transport (staggered
// multi-round deliveries through the ring buffer).
func BenchmarkPerfEngineRouted(b *testing.B) {
	const n = 1024
	e := sim.NewEngine(n, sim.Options{Seed: 3})
	path := []int{7, 19, 83, 211}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 64; s++ {
			e.SendRouted(s, path, sim.Payload{})
		}
		e.Tick()
	}
}

// BenchmarkPerfEngineRoutedLossy is EngineRouted on a lossy engine
// (Loss 0.02) driven by an attached fault binding whose loss bursts open
// and close every other round pair, so every hop draws a loss hash and
// the binding swaps the engine's link predicate in and out. Past warm-up
// it is allocation-free.
func BenchmarkPerfEngineRoutedLossy(b *testing.B) {
	const n, warm = 1024, 64
	e := sim.NewEngine(n, sim.Options{Seed: 3, Loss: 0.02})
	var plan faults.Plan
	for k := 0; 4*k < warm+b.N; k++ {
		plan.Events = append(plan.Events, faults.Event{
			Kind: faults.LossBurst, At: faults.At(4*k + 1), End: faults.At(4*k + 3), Loss: 0.1,
		})
	}
	bound, err := plan.Bind(n, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	bound.Attach(e)
	path := []int{7, 19, 83, 211}
	step := func() {
		for s := 0; s < 64; s++ {
			e.SendRouted(s, path, sim.Payload{})
		}
		e.Tick()
	}
	for i := 0; i < warm; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkPerfEngineResolveCalls measures one synchronous call round
// (the paper's phone-call primitive, the dense pipelines' hot path).
func BenchmarkPerfEngineResolveCalls(b *testing.B) {
	const n = 1024
	e := sim.NewEngine(n, sim.Options{Seed: 4})
	calls := make([]sim.Call, n)
	for i := range calls {
		calls[i] = sim.Call{From: i, To: (i + 1) % n, Pay: sim.Payload{A: float64(i)}}
	}
	handle := func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
		return sim.Payload{A: req.A + 1}, true
	}
	var sink float64
	reply := func(caller int, resp sim.Payload) { sink += resp.A }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ResolveCalls(calls, handle, reply)
		e.Tick()
	}
	_ = sink
}

// BenchmarkPerfEngineReset measures run-to-run reuse: Reset must cost a
// few memclears, not an engine rebuild.
func BenchmarkPerfEngineReset(b *testing.B) {
	const n = 4096
	e := sim.NewEngine(n, sim.Options{Seed: 5, Loss: 0.05})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(sim.Options{Seed: uint64(i), Loss: 0.05})
	}
}

// BenchmarkPerfPhase2 measures Phase II on a fixed DRR forest: one
// convergecast-sum, the root-address broadcast and a value broadcast per
// iteration, all on one engine and one Scratch, as a session's pipeline
// runs them. The call rounds run on the engine's call list and the
// per-node state on the Scratch, so allocs/op and B/op pin what every
// run still allocates: the per-root sums and the per-node broadcast
// result that becomes an answer's PerNode.
func BenchmarkPerfPhase2(b *testing.B) {
	const n = 4096
	e := sim.NewEngine(n, sim.Options{Seed: 8})
	res, err := drr.Run(e, drr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Forest
	values := benchValues(n)
	perRoot := make([]float64, f.NumTrees())
	var s convergecast.Scratch // pooled like the pipeline's workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, sizes, err := s.Sum(e, f, values)
		if err != nil {
			b.Fatal(err)
		}
		for k, v := range sums {
			perRoot[k] = v / sizes[k]
		}
		if _, err := s.BroadcastRootAddr(e, f); err != nil {
			b.Fatal(err)
		}
		if _, err := s.BroadcastValue(e, f, perRoot, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfQuantileSession is the workload the engine reuse exists
// for: a full Quantile query (Min + Max + Count + bisection Rank steps,
// every run on the session's pooled engine).
func BenchmarkPerfQuantileSession(b *testing.B) {
	const n = 1024
	values := benchValues(n)
	var runs int
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := New(Config{N: n, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		a, err := nw.Run(QuantileOf(values, 0.9, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		runs = a.Cost.Runs
		msgs = a.Cost.Messages
	}
	b.ReportMetric(float64(runs), "runs")
	b.ReportMetric(float64(msgs)/float64(n), "msgs/node")
}

// BenchmarkPerfTelemetry pins the observability overhead contract on a
// full Quantile session: `off` is the facade with no telemetry
// configured (must stay allocation-identical to the plain session — the
// disabled tap adds zero allocs), `ring` is the live-monitoring
// configuration (in-memory Ring, round events every 8 rounds — the
// stride also gates the drivers' residual scans, see
// Engine.SetResidualStride). The bench-guard checks `ring` against
// `off` with a ns/op ratio budget (-overhead: same report, same
// machine, so the comparison survives hardware changes) on top of the
// usual allocs/op pins. n is larger than PerfQuantileSession's because
// the telemetry cost is per *round*, not per message — a monitoring
// deployment amortizes the tap over real per-round work, and small n
// would mostly measure timer noise.
func BenchmarkPerfTelemetry(b *testing.B) {
	const n = 4096
	values := benchValues(n)
	run := func(b *testing.B, opts *telemetry.Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nw, err := New(Config{N: n, Seed: uint64(i) + 1, Telemetry: opts})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := nw.Run(QuantileOf(values, 0.9, 0.5)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("ring", func(b *testing.B) {
		run(b, &telemetry.Options{Sink: telemetry.NewRing(8192), RoundEvery: 8})
	})
	// Shared runners drift on the timescale of whole sub-benchmarks, so a
	// ratio of the two results above is too noisy to gate on. The paired
	// variant interleaves an off and a ring session inside every
	// iteration — both halves see the same machine conditions — and
	// reports the wall-clock ratio directly as the overhead-x metric,
	// which the bench-guard pins (<= 1.05).
	b.Run("paired", func(b *testing.B) {
		ring := &telemetry.Options{Sink: telemetry.NewRing(8192), RoundEvery: 8}
		one := func(opts *telemetry.Options, seed uint64) time.Duration {
			nw, err := New(Config{N: n, Seed: seed, Telemetry: opts})
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			if _, err := nw.Run(QuantileOf(values, 0.9, 0.5)); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		var tOff, tRing time.Duration
		for i := 0; i < b.N; i++ {
			tOff += one(nil, uint64(i)+1)
			tRing += one(ring, uint64(i)+1)
		}
		b.ReportMetric(float64(tRing)/float64(tOff), "overhead-x")
	})
}

// BenchmarkPerfRunAllBatch compares sequential and concurrent execution
// of one query batch (answers are bit-identical; see the determinism
// regression) — the wall-clock case for RunAll's opt-in parallelism —
// and times a faulted session's set-up: New plus the first RunAll on a
// SmallWorld overlay under a fraction-timed loss burst, whose horizon
// pre-runs (one per pipeline shape) run across the batch's workers. Its
// allocs/op and B/op let the guard catch set-up allocation regressions.
func BenchmarkPerfRunAllBatch(b *testing.B) {
	const n = 2048
	values := benchValues(n)
	queries := []Query{
		MaxOf(values), MinOf(values), SumOf(values), CountOf(values),
		AverageOf(values), RankOf(values, 500),
	}
	plan, err := ParseFaultPlan("loss:0.1@0.2..0.8")
	if err != nil {
		b.Fatal(err)
	}
	sparse := benchValues(1024)
	// The worker count is pinned (not GOMAXPROCS) so allocs/op — which
	// includes the per-worker engines and binding caches — is
	// machine-independent and safe for the bench-guard baseline; the
	// wall-clock benefit of the fan-out still shows wherever cores exist.
	for _, tc := range []struct {
		name    string
		cfg     Config
		queries []Query
		workers int
	}{
		{"sequential", Config{N: n}, queries, 1},
		{"parallel", Config{N: n}, queries, 4},
		{"faulted-setup", Config{N: 1024, Topology: SmallWorld, Faults: plan}, []Query{
			MaxOf(sparse), SumOf(sparse), CountOf(sparse), AverageOf(sparse), RankOf(sparse, 500),
		}, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tc.cfg
				cfg.Seed = uint64(i) + 1
				nw, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := nw.RunAll(tc.queries, BatchOptions{Parallelism: tc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerfGraphNeighbors sweeps every neighbor list of a chord
// graph through the caller-owned-buffer path — the inner loop of
// Local-DRR's rank exchange, a copy out of the graph's CSR rows. Zero
// allocs/op and B/op are the pinned contract: reading adjacency must not
// leave per-query garbage.
func BenchmarkPerfGraphNeighbors(b *testing.B) {
	ring := chord.MustNew(benchN, chord.Options{Seed: 1})
	g := ring.Graph()
	buf := make([]int, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for u := 0; u < g.N(); u++ {
			buf = g.NeighborsInto(u, buf)
			sink += len(buf)
		}
	}
	if sink == 0 {
		b.Fatal("empty neighbor lists")
	}
}

// BenchmarkPerfRoutedSample measures the Phase III transport primitive:
// a near-uniform random-node sample plus its route, appended into one
// warm caller-owned buffer, on the landmark router (small-world graph)
// and the Chord finger router. One op is 256 samples on each overlay at
// n = 4096. Zero allocs/op and B/op are the pinned contract: the sparse
// pipelines draw O(log n) such samples per root per procedure.
func BenchmarkPerfRoutedSample(b *testing.B) {
	const n = 4096
	landmark, err := overlay.Build(overlay.Spec{Name: "smallworld"}, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	overlays := []overlay.Overlay{landmark, overlay.NewChord(chord.MustNew(n, chord.Options{Seed: 1}))}
	rng := xrand.New(7)
	buf := make([]int, 0, 256)
	hops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ov := range overlays {
			for s := 0; s < 256; s++ {
				var h int
				_, buf, h = ov.AppendSample(buf[:0], rng, (s*131)%n)
				hops += h
			}
		}
	}
	if hops == 0 {
		b.Fatal("no routed hops")
	}
}

// --- public API ----------------------------------------------------------

func BenchmarkFacadeAverage(b *testing.B) {
	values := benchValues(benchN)
	for i := 0; i < b.N; i++ {
		if _, err := runOnce(Config{N: benchN, Seed: uint64(i)}, AverageOf(values)); err != nil {
			b.Fatal(err)
		}
	}
}
