package drrapps

import (
	"math"
	"testing"

	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

func TestElectLeaderConsensus(t *testing.T) {
	for _, n := range []int{256, 2048} {
		eng := sim.NewEngine(n, sim.Options{Seed: 151})
		res, err := ElectLeader(eng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus {
			t.Fatalf("n=%d: no consensus", n)
		}
		if res.Leader < 0 || res.Leader >= n {
			t.Fatalf("leader %d out of range", res.Leader)
		}
		for i, l := range res.PerNode {
			if res.Forest.Member(i) && l != res.Leader {
				t.Fatalf("node %d believes %d, leader %d", i, l, res.Leader)
			}
		}
	}
}

func TestElectLeaderIsAliveAndHighRank(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 152, CrashFrac: 0.2})
	res, err := ElectLeader(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Alive(res.Leader) {
		t.Fatal("elected a crashed node")
	}
	if !res.Consensus {
		t.Fatal("no consensus under crashes")
	}
}

func TestElectLeaderUnderLoss(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 153, Loss: 0.125})
	res, err := ElectLeader(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatal("no consensus under loss")
	}
}

func TestElectLeaderComplexity(t *testing.T) {
	// O(log n) rounds and O(n loglog n) messages — the §6 payoff.
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 154})
	res, err := ElectLeader(eng)
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(float64(n))
	if float64(res.Stats.Rounds) > 20*logn {
		t.Fatalf("rounds %d exceed 20 log n", res.Stats.Rounds)
	}
	if float64(res.Stats.Messages) > 12*float64(n)*math.Log2(logn) {
		t.Fatalf("messages %d exceed 12 n loglog n", res.Stats.Messages)
	}
}

func TestElectLeaderDeterministic(t *testing.T) {
	run := func() int {
		eng := sim.NewEngine(512, sim.Options{Seed: 155})
		res, err := ElectLeader(eng)
		if err != nil {
			t.Fatal(err)
		}
		return res.Leader
	}
	if run() != run() {
		t.Fatal("election not deterministic")
	}
}

func TestBuildSpanningTree(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 156})
	res, err := BuildSpanningTree(eng)
	if err != nil {
		t.Fatal(err)
	}
	span, err := forest.FromParents(res.Parent)
	if err != nil {
		t.Fatal(err)
	}
	if span.NumTrees() != 1 {
		t.Fatalf("got %d trees", span.NumTrees())
	}
	if !span.IsRoot(res.Leader) {
		t.Fatal("leader is not the tree root")
	}
	if span.NumMembers() != n {
		t.Fatalf("spanning tree covers %d of %d", span.NumMembers(), n)
	}
	// Depth O(log n): DRR height + star level (+ possibly the leader's
	// former ancestor chain).
	if float64(res.Depth) > 6*math.Log2(float64(n)) {
		t.Fatalf("depth %d too large", res.Depth)
	}
}

func TestBuildSpanningTreeWithCrashes(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 157, CrashFrac: 0.25})
	res, err := BuildSpanningTree(eng)
	if err != nil {
		t.Fatal(err)
	}
	span, err := forest.FromParents(res.Parent)
	if err != nil {
		t.Fatal(err)
	}
	if span.NumMembers() != eng.NumAlive() {
		t.Fatalf("covers %d of %d alive", span.NumMembers(), eng.NumAlive())
	}
	for i := 0; i < n; i++ {
		if !eng.Alive(i) && res.Parent[i] != forest.NotMember {
			t.Fatalf("crashed node %d in spanning tree", i)
		}
	}
}

func BenchmarkElectLeader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(4096, sim.Options{Seed: uint64(i)})
		if _, err := ElectLeader(eng); err != nil {
			b.Fatal(err)
		}
	}
}
