package kashyap

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/sim"
)

func TestBuildForestValid(t *testing.T) {
	eng := sim.NewEngine(2048, sim.Options{Seed: 91})
	f, rootTo, err := BuildForest(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.NumMembers() != 2048 {
		t.Fatalf("members = %d", f.NumMembers())
	}
	for i := 0; i < 2048; i++ {
		if rootTo[i] != f.RootOf(i) {
			t.Fatalf("rootTo[%d] = %d, want %d", i, rootTo[i], f.RootOf(i))
		}
	}
	if stats := eng.Stats(); stats.Rounds == 0 || stats.Messages == 0 {
		t.Fatal("empty build stats")
	}
}

func TestClusterSizesCapped(t *testing.T) {
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 92})
	f, _, err := BuildForest(eng)
	if err != nil {
		t.Fatal(err)
	}
	cap := 4 * int(math.Ceil(math.Log2(float64(n))))
	for root, size := range f.TreeSizes() {
		if size > cap {
			t.Fatalf("cluster %d has size %d > cap %d", root, size, cap)
		}
	}
}

func TestClusterCountShrinks(t *testing.T) {
	// The point of the clustering: far fewer clusters than nodes.
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 93})
	f, _, err := BuildForest(eng)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() > n/3 {
		t.Fatalf("clustering left %d roots of %d nodes", f.NumTrees(), n)
	}
}

func TestBuildTimeBudget(t *testing.T) {
	// Phase-padded schedule: rounds = phases * budget (+ slack when a
	// broadcast overruns).
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 94})
	if _, _, err := BuildForest(eng); err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()
	expect := phases(n) * phaseBudget(n)
	if stats.Rounds < expect {
		t.Fatalf("rounds %d below synchronous schedule %d", stats.Rounds, expect)
	}
	if stats.Rounds > 3*expect {
		t.Fatalf("rounds %d far above schedule %d", stats.Rounds, expect)
	}
}

func TestBuildMessageComplexity(t *testing.T) {
	// O(n log log n): per-node messages must be a small multiple of
	// loglog n and clearly below log n.
	n := 16384
	eng := sim.NewEngine(n, sim.Options{Seed: 95})
	if _, _, err := BuildForest(eng); err != nil {
		t.Fatal(err)
	}
	perNode := float64(eng.Stats().Messages) / float64(n)
	loglog := math.Log2(math.Log2(float64(n)))
	if perNode > 6*loglog {
		t.Fatalf("messages per node %v > 6 loglog n = %v", perNode, 6*loglog)
	}
}

func TestMaxEndToEnd(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 96})
	values := agg.GenUniform(n, -100, 100, 1)
	res, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want || !res.Consensus {
		t.Fatalf("Max = %v (consensus %v), want %v", res.Value, res.Consensus, want)
	}
}

func TestAveEndToEnd(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 97})
	values := agg.GenUniform(n, 0, 1000, 2)
	res, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Ave, values)
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

func TestMaxUnderLoss(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 98, Loss: 0.1})
	values := agg.GenUniform(n, 0, 500, 3)
	res, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want %v under loss", res.Value, want)
	}
}

func TestWithCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 99, CrashFrac: 0.2})
	values := agg.GenUniform(n, 0, 100, 4)
	res, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, agg.Subset(values, eng.AliveIDs()), 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want alive-max %v", res.Value, want)
	}
}

func TestDeterminism(t *testing.T) {
	n := 512
	values := agg.GenUniform(n, 0, 1, 5)
	run := func() (float64, sim.Counters) {
		eng := sim.NewEngine(n, sim.Options{Seed: 100})
		res, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Ave, values)
		if err != nil {
			t.Fatal(err)
		}
		return res.Value, eng.Stats()
	}
	av, as := run()
	bv, bs := run()
	if av != bv || as != bs {
		t.Fatal("nondeterministic run")
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(16, sim.Options{Seed: 101})
	if _, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Max, make([]float64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkKashyapMax(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := drrgossip.RunForest(eng, BuildForest, drrgossip.Max, values); err != nil {
			b.Fatal(err)
		}
	}
}
