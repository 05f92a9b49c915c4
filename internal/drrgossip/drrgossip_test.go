package drrgossip

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"drrgossip/internal/agg"
	"drrgossip/internal/sim"
)

func TestMaxEndToEnd(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 41})
	values := agg.GenUniform(n, -100, 100, 1)
	res, err := Run(eng, nil, Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want %v", res.Value, want)
	}
	if !res.Consensus {
		t.Fatal("no consensus")
	}
	for i, v := range res.PerNode {
		if res.Forest.Member(i) && v != want {
			t.Fatalf("node %d has %v", i, v)
		}
	}
}

func TestMinEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 42})
	values := agg.GenSigned(n, 50, 2)
	res, err := Run(eng, nil, Min, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Min, values, 0)
	if res.Value != want || !res.Consensus {
		t.Fatalf("Min = %v (consensus %v), want %v", res.Value, res.Consensus, want)
	}
}

func TestAveEndToEnd(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 43})
	values := agg.GenUniform(n, 0, 1000, 3)
	res, err := Run(eng, nil, Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Value, want); e > 1e-6 {
		t.Fatalf("Ave = %v, want %v (rel err %v)", res.Value, want, e)
	}
	if !res.Consensus {
		t.Fatal("no consensus")
	}
}

func TestSumEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 44})
	values := agg.GenUniform(n, -5, 5, 4)
	res, err := Run(eng, nil, Sum, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Sum, values, 0)
	if e := agg.RelError(res.Value, want); e > 1e-6 {
		t.Fatalf("Sum = %v, want %v (rel err %v)", res.Value, want, e)
	}
}

func TestCountEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 45})
	values := agg.GenUniform(n, 0, 1, 5)
	res, err := Run(eng, nil, Count, values)
	if err != nil {
		t.Fatal(err)
	}
	if e := agg.RelError(res.Value, float64(n)); e > 1e-6 {
		t.Fatalf("Count = %v, want %d", res.Value, n)
	}
}

func TestCountWithCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 46, CrashFrac: 0.3})
	values := agg.GenUniform(n, 0, 1, 6)
	res, err := Run(eng, nil, Count, values)
	if err != nil {
		t.Fatal(err)
	}
	if e := agg.RelError(res.Value, float64(eng.NumAlive())); e > 1e-6 {
		t.Fatalf("Count = %v, want alive %d", res.Value, eng.NumAlive())
	}
}

func TestRankEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 47})
	values := agg.GenUniform(n, 0, 100, 7)
	q := 42.0
	res, err := new(Workspace).Run(eng, nil, Lane{Kind: Rank, Values: values, Arg: q})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Rank, values, q)
	if e := agg.RelError(res[0].Value, want); e > 1e-6 {
		t.Fatalf("Rank(%v) = %v, want %v", q, res[0].Value, want)
	}
}

func TestMaxUnderLossAndCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 48, Loss: 0.125, CrashFrac: 0.1})
	values := agg.GenUniform(n, 0, 10000, 8)
	res, err := Run(eng, nil, Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, agg.Subset(values, eng.AliveIDs()), 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want %v", res.Value, want)
	}
	if !res.Consensus {
		t.Fatal("no consensus under loss")
	}
	for i, v := range res.PerNode {
		if !res.Forest.Member(i) {
			if !math.IsNaN(v) {
				t.Fatalf("crashed node %d has value %v", i, v)
			}
		}
	}
}

func TestAveUnderLoss(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 49, Loss: 0.1})
	values := agg.GenUniform(n, 0, 100, 9)
	res, err := Run(eng, nil, Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Value, want); e > 0.05 {
		t.Fatalf("Ave = %v, want %v under loss (rel err %v)", res.Value, want, e)
	}
	if !res.Consensus {
		t.Fatal("no consensus under loss")
	}
}

func TestTimeComplexityLogarithmic(t *testing.T) {
	// End-to-end rounds must grow like log n: compare n and n^2.
	rounds := func(n int) float64 {
		eng := sim.NewEngine(n, sim.Options{Seed: 50})
		values := agg.GenUniform(n, 0, 1, 10)
		if _, err := Run(eng, nil, Max, values); err != nil {
			t.Fatal(err)
		}
		return float64(eng.Stats().Rounds)
	}
	r1 := rounds(256)
	r2 := rounds(256 * 256)
	// log(n^2) = 2 log n: allow [1.2, 3.5] to absorb additive constants.
	ratio := r2 / r1
	if ratio < 1.2 || ratio > 3.5 {
		t.Fatalf("rounds(65536)/rounds(256) = %v, inconsistent with O(log n)", ratio)
	}
}

func TestMessageComplexityNLogLogN(t *testing.T) {
	// Messages per node must grow like log log n (DRR-dominated), far
	// slower than log n: doubling n several times should barely move it.
	perNode := func(n int) float64 {
		eng := sim.NewEngine(n, sim.Options{Seed: 51})
		values := agg.GenUniform(n, 0, 1, 11)
		if _, err := Run(eng, nil, Max, values); err != nil {
			t.Fatal(err)
		}
		return float64(eng.Stats().Messages) / float64(n)
	}
	m1 := perNode(1024)
	m2 := perNode(16384)
	// log log grows by log(14)/log(10) = 1.14x; log n would grow 1.4x.
	if m2/m1 > 1.35 {
		t.Fatalf("messages/node grew %vx from n=1k to n=16k; too fast for n loglog n", m2/m1)
	}
}

// checkLedger runs Ave on eng and checks the engine's ledger for the
// run: one row per pipeline phase, in order, summing to what the engine
// counted during the run. It returns that sum.
func checkLedger(t *testing.T, eng *sim.Engine, values []float64) sim.Counters {
	t.Helper()
	before := eng.Stats()
	if _, err := Run(eng, nil, Ave, values); err != nil {
		t.Fatal(err)
	}
	var total sim.Counters
	var labels []string
	for _, b := range eng.Ledger() {
		total = total.Add(b.Counters)
		labels = append(labels, b.Phase)
	}
	if want := []string{PhaseDRR, PhaseAggregate, PhaseGossip, PhaseBroadcast}; !slices.Equal(labels, want) {
		t.Fatalf("ledger phases %v, want %v", labels, want)
	}
	if delta := eng.Stats().Sub(before); total != delta {
		t.Fatalf("ledger total %+v, engine delta %+v", total, delta)
	}
	return total
}

func TestPhaseStatsConsistent(t *testing.T) {
	n := 512
	eng := sim.NewEngine(n, sim.Options{Seed: 52})
	checkLedger(t, eng, agg.GenUniform(n, 0, 1, 12))
	if eng.Billed(PhaseDRR).Messages == 0 || eng.Billed(PhaseGossip).Messages == 0 {
		t.Fatal("empty phase counters")
	}
}

// A link fault installed after Phase I blocks Phase III and broadcast
// traffic; the ledger must bill those blocked drops like every other
// counter, not only the ones of Phase I.
func TestPhaseTotalKeepsBlocked(t *testing.T) {
	n := 512
	eng := sim.NewEngine(n, sim.Options{Seed: 9})
	eng.SetPhaseObserver(func(phase string) {
		if phase == PhaseGossip {
			eng.SetLinkFault(func(from, to int) float64 {
				if (from < n/2) != (to < n/2) {
					return 1
				}
				return 0
			})
		}
	})
	if checkLedger(t, eng, agg.GenUniform(n, 0, 100, 1)).Blocked == 0 {
		t.Fatal("the cut blocked nothing")
	}
	if eng.Billed(PhaseDRR).Blocked != 0 {
		t.Fatal("the cut blocked Phase I traffic, before it was made")
	}
}

func TestValueLengthValidation(t *testing.T) {
	eng := sim.NewEngine(16, sim.Options{Seed: 53})
	if _, err := Run(eng, nil, Max, make([]float64, 8)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Run(eng, nil, Ave, make([]float64, 8)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDeterminism(t *testing.T) {
	n := 512
	values := agg.GenUniform(n, 0, 1, 13)
	run := func() (float64, sim.Counters) {
		eng := sim.NewEngine(n, sim.Options{Seed: 54})
		res, err := Run(eng, nil, Ave, values)
		if err != nil {
			t.Fatal(err)
		}
		return res.Value, eng.Stats()
	}
	av, as := run()
	bv, bs := run()
	if av != bv || as != bs {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", av, as, bv, bs)
	}
}

func TestTinyNetworks(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		eng := sim.NewEngine(n, sim.Options{Seed: 55})
		values := agg.GenLinear(n)
		res, err := Run(eng, nil, Max, values)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Value != float64(n-1) {
			t.Fatalf("n=%d: Max = %v", n, res.Value)
		}
	}
}

// Property: across seeds and aggregate kinds, DRR-gossip matches the
// exact aggregate within push-sum tolerance.
func TestAllAggregatesProperty(t *testing.T) {
	f := func(seed uint16) bool {
		n := 256
		values := agg.GenSigned(n, 100, uint64(seed))
		eng := func() *sim.Engine {
			return sim.NewEngine(n, sim.Options{Seed: uint64(seed) + 1000})
		}
		if r, err := Run(eng(), nil, Max, values); err != nil || r.Value != agg.Exact(agg.Max, values, 0) {
			return false
		}
		if r, err := Run(eng(), nil, Min, values); err != nil || r.Value != agg.Exact(agg.Min, values, 0) {
			return false
		}
		if r, err := Run(eng(), nil, Ave, values); err != nil ||
			agg.RelError(r.Value, agg.Exact(agg.Average, values, 0)) > 1e-4 {
			return false
		}
		if r, err := Run(eng(), nil, Count, values); err != nil ||
			agg.RelError(r.Value, float64(n)) > 1e-4 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDRRGossipMax(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := Run(eng, nil, Max, values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDRRGossipAve(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := Run(eng, nil, Ave, values); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountUnderLossAndCrashes(t *testing.T) {
	// Regression: the distinguished-root denominator must survive link
	// loss (reliable shares); without them a single early lost share
	// skews Count by tens of percent.
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 56, Loss: 0.1, CrashFrac: 0.08})
	values := agg.GenUniform(n, 0, 1, 14)
	res, err := Run(eng, nil, Count, values)
	if err != nil {
		t.Fatal(err)
	}
	if e := agg.RelError(res.Value, float64(eng.NumAlive())); e > 0.01 {
		t.Fatalf("Count = %v, want %d (rel err %v)", res.Value, eng.NumAlive(), e)
	}
}

func TestSumUnderLoss(t *testing.T) {
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 57, Loss: 0.125})
	values := agg.GenUniform(n, -5, 5, 15)
	res, err := Run(eng, nil, Sum, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Sum, values, 0)
	if e := agg.RelError(res.Value, want); e > 0.01 {
		t.Fatalf("Sum = %v, want %v (rel err %v)", res.Value, want, e)
	}
}

func TestRankUnderLoss(t *testing.T) {
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 58, Loss: 0.1})
	values := agg.GenUniform(n, 0, 100, 16)
	res, err := new(Workspace).Run(eng, nil, Lane{Kind: Rank, Values: values, Arg: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Rank, values, 42)
	if e := agg.RelError(res[0].Value, want); e > 0.01 {
		t.Fatalf("Rank = %v, want %v", res[0].Value, want)
	}
}

// The election key holds root ids in 24 bits: every id below MaxKeyNodes
// round-trips, and the first id past it does not — it aliases root 0 of
// a one-larger tree, which is why the facade rejects N > MaxKeyNodes.
func TestLargestKeyRootLimit(t *testing.T) {
	for _, size := range []int{1, 1000, MaxKeyNodes} {
		for _, root := range []int{0, 1, 12345, MaxKeyNodes - 1} {
			if got := decodeKeyRoot(largestKey(size, root)); got != root {
				t.Fatalf("decodeKeyRoot(largestKey(%d, %d)) = %d", size, root, got)
			}
		}
		if got := decodeKeyRoot(largestKey(size, MaxKeyNodes)); got == MaxKeyNodes {
			t.Fatalf("root id 2^24 round-tripped at size %d; the documented limit is stale", size)
		}
		if largestKey(size, MaxKeyNodes) != largestKey(size+1, 0) {
			t.Fatalf("root id 2^24 at size %d does not alias root 0 of size %d", size, size+1)
		}
	}
}
