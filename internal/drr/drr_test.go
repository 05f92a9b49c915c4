package drr

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"drrgossip/internal/sim"
)

func run(t *testing.T, n int, opts sim.Options, dopts Options) *Result {
	t.Helper()
	eng := sim.NewEngine(n, opts)
	res, err := Run(eng, dopts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestForestValid(t *testing.T) {
	res := run(t, 1024, sim.Options{Seed: 1}, Options{})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Forest.NumMembers() != 1024 {
		t.Fatalf("members = %d", res.Forest.NumMembers())
	}
}

func TestRanksIncreaseTowardsRoots(t *testing.T) {
	// The defining DRR invariant: every edge goes to a strictly higher
	// rank, so ranks strictly increase along every root path.
	res := run(t, 2048, sim.Options{Seed: 2}, Options{})
	f := res.Forest
	for i := 0; i < f.N(); i++ {
		if p := f.Parent(i); p >= 0 {
			if !(res.Ranks[p] > res.Ranks[i]) {
				t.Fatalf("edge (%d->%d) violates rank order: %v <= %v",
					i, p, res.Ranks[p], res.Ranks[i])
			}
		}
	}
}

func TestTreeCountTheorem2(t *testing.T) {
	// Theorem 2: number of trees is Θ(n/log n). The expectation is
	// Σ (i/n)^(log n -1) ≈ n/log n; allow generous whp slack.
	for _, n := range []int{1024, 4096} {
		res := run(t, n, sim.Options{Seed: 3}, Options{})
		trees := float64(res.Forest.NumTrees())
		expect := float64(n) / math.Log2(float64(n))
		if trees > 6*expect {
			t.Fatalf("n=%d: %v trees, > 6*n/log n = %v", n, trees, 6*expect)
		}
		if trees < expect/6 {
			t.Fatalf("n=%d: %v trees, < n/(6 log n) = %v", n, trees, expect/6)
		}
	}
}

func TestTreeSizeTheorem3(t *testing.T) {
	// Theorem 3: every tree has O(log n) nodes whp.
	for _, n := range []int{1024, 4096, 16384} {
		res := run(t, n, sim.Options{Seed: 4}, Options{})
		maxSize := float64(res.Forest.MaxTreeSize())
		logn := math.Log2(float64(n))
		if maxSize > 12*logn {
			t.Fatalf("n=%d: max tree size %v > 12 log n = %v", n, maxSize, 12*logn)
		}
	}
}

func TestMessagesTheorem4(t *testing.T) {
	// Theorem 4: O(n log log n) messages; expected probes per node is
	// O(log log n). Check the per-node average is well under log n and
	// within a constant of log2(log2 n).
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 5})
	res, err := Run(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	avgProbes := float64(res.TotalProbes()) / float64(n)
	loglog := math.Log2(math.Log2(float64(n)))
	if avgProbes > 4*loglog {
		t.Fatalf("avg probes %v > 4 loglog n = %v", avgProbes, 4*loglog)
	}
	if avgProbes < 1 {
		t.Fatalf("avg probes %v < 1", avgProbes)
	}
	// Message count tracks probes within a small constant factor (probe =
	// up to 2 messages, plus O(n) connections).
	msgs := float64(eng.Stats().Messages)
	if msgs > float64(3*res.TotalProbes()+3*n) {
		t.Fatalf("messages %v inconsistent with probes %d", msgs, res.TotalProbes())
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// Probing takes exactly the budget rounds; connection adds <= retries.
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 6})
	if _, err := Run(eng, Options{}); err != nil {
		t.Fatal(err)
	}
	budget := DefaultProbeBudget(n)
	if r := eng.Stats().Rounds; r < budget || r > budget+9 {
		t.Fatalf("rounds = %d, budget = %d", r, budget)
	}
}

func TestDeterminism(t *testing.T) {
	engs := [2]*sim.Engine{sim.NewEngine(512, sim.Options{Seed: 7}), sim.NewEngine(512, sim.Options{Seed: 7})}
	var res [2]*Result
	for k, eng := range engs {
		var err error
		if res[k], err = Run(eng, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		if res[0].Forest.Parent(i) != res[1].Forest.Parent(i) {
			t.Fatalf("forests differ at node %d", i)
		}
	}
	if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
}

func TestSeedsProduceDifferentForests(t *testing.T) {
	a := run(t, 512, sim.Options{Seed: 8}, Options{})
	b := run(t, 512, sim.Options{Seed: 9}, Options{})
	same := 0
	for i := 0; i < 512; i++ {
		if a.Forest.Parent(i) == b.Forest.Parent(i) {
			same++
		}
	}
	if same == 512 {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestUnderLoss(t *testing.T) {
	// With δ = 1/8 (the paper's maximum) the forest must stay valid;
	// probes are wasted so there are more roots, and a few orphans may
	// fall back to roots.
	res := run(t, 2048, sim.Options{Seed: 10, Loss: 0.125}, Options{})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	lossless := run(t, 2048, sim.Options{Seed: 10}, Options{})
	if res.Forest.NumTrees() < lossless.Forest.NumTrees() {
		t.Fatalf("loss reduced tree count: %d < %d",
			res.Forest.NumTrees(), lossless.Forest.NumTrees())
	}
}

func TestOrphansRareUnderModerateLoss(t *testing.T) {
	res := run(t, 4096, sim.Options{Seed: 11, Loss: 0.1}, Options{})
	// Each connection fails per attempt w.p. <= 0.19; after 8 retries
	// orphan probability is ~2e-6 per node.
	if res.Orphans > 3 {
		t.Fatalf("too many orphans: %d", res.Orphans)
	}
}

func TestWithCrashes(t *testing.T) {
	eng := sim.NewEngine(2048, sim.Options{Seed: 12, CrashFrac: 0.3})
	res, err := Run(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Forest.NumMembers() != eng.NumAlive() {
		t.Fatalf("members %d != alive %d", res.Forest.NumMembers(), eng.NumAlive())
	}
	for i := 0; i < eng.N(); i++ {
		if !eng.Alive(i) && res.Forest.Member(i) {
			t.Fatalf("crashed node %d in forest", i)
		}
		if !eng.Alive(i) && res.Probes[i] != 0 {
			t.Fatalf("crashed node %d probed", i)
		}
	}
}

func TestProbeBudgetAblation(t *testing.T) {
	// Larger budgets mean fewer trees (more nodes find parents).
	n := 4096
	small := run(t, n, sim.Options{Seed: 13}, Options{ProbeBudget: 2})
	paper := run(t, n, sim.Options{Seed: 13}, Options{})
	big := run(t, n, sim.Options{Seed: 13}, Options{ProbeBudget: 3 * DefaultProbeBudget(n)})
	if !(small.Forest.NumTrees() > paper.Forest.NumTrees()) {
		t.Fatalf("small budget should leave more roots: %d vs %d",
			small.Forest.NumTrees(), paper.Forest.NumTrees())
	}
	if !(big.Forest.NumTrees() <= paper.Forest.NumTrees()) {
		t.Fatalf("big budget should leave no more roots: %d vs %d",
			big.Forest.NumTrees(), paper.Forest.NumTrees())
	}
}

func TestProbesNeverExceedBudget(t *testing.T) {
	n := 1024
	res := run(t, n, sim.Options{Seed: 14}, Options{})
	budget := DefaultProbeBudget(n)
	for i, p := range res.Probes {
		if p > budget {
			t.Fatalf("node %d used %d probes > budget %d", i, p, budget)
		}
	}
}

func TestHighestRankIsAlwaysRoot(t *testing.T) {
	res := run(t, 1024, sim.Options{Seed: 15}, Options{})
	best, bestRank := -1, -1.0
	for i, r := range res.Ranks {
		if r > bestRank {
			best, bestRank = i, r
		}
	}
	if !res.Forest.IsRoot(best) {
		t.Fatalf("highest-ranked node %d is not a root", best)
	}
}

func TestDefaultProbeBudget(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, 1}, {4, 1}, {8, 2}, {1024, 9}, {1 << 16, 15},
	}
	for _, c := range cases {
		if got := DefaultProbeBudget(c.n); got != c.want {
			t.Fatalf("DefaultProbeBudget(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTinyNetwork(t *testing.T) {
	res := run(t, 2, sim.Options{Seed: 16}, Options{})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Forest.NumTrees() < 1 || res.Forest.NumTrees() > 2 {
		t.Fatalf("trees = %d", res.Forest.NumTrees())
	}
}

func BenchmarkDRR(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
				if _, err := Run(eng, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	// A run starts no goroutine, so the core count must not reach Phase
	// I's forest or bill: they are identical at GOMAXPROCS 1 and 4.
	runWith := func(procs int) (*Result, sim.Counters) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		eng := sim.NewEngine(4096, sim.Options{Seed: 99, Loss: 0.05})
		res, err := Run(eng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.Stats()
	}
	serial, serialStats := runWith(1)
	parallel, parallelStats := runWith(4)
	if serialStats != parallelStats {
		t.Fatalf("stats differ: serial %+v, parallel %+v", serialStats, parallelStats)
	}
	for i := 0; i < 4096; i++ {
		if serial.Forest.Parent(i) != parallel.Forest.Parent(i) {
			t.Fatalf("forest differs at node %d across GOMAXPROCS", i)
		}
	}
}
