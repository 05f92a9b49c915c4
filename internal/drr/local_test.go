package drr

import (
	"math"
	"testing"

	"drrgossip/internal/chord"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

func runLocal(t *testing.T, g *graph.Graph, opts sim.Options) *Result {
	t.Helper()
	eng := sim.NewEngine(g.N(), opts)
	res, err := RunLocal(eng, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestForestValidOnRing(t *testing.T) {
	res := runLocal(t, graph.Ring(500), sim.Options{Seed: 1})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Forest.NumMembers() != 500 {
		t.Fatalf("members = %d", res.Forest.NumMembers())
	}
}

func TestParentIsNeighbourWithHigherRank(t *testing.T) {
	g := graph.MustRandomRegular(400, 6, 3)
	res := runLocal(t, g, sim.Options{Seed: 2})
	f := res.Forest
	for i := 0; i < f.N(); i++ {
		p := f.Parent(i)
		if p < 0 {
			continue
		}
		if !g.HasEdge(i, p) {
			t.Fatalf("parent %d of %d is not a neighbour", p, i)
		}
		if !(res.Ranks[p] > res.Ranks[i]) {
			t.Fatalf("rank order violated on edge (%d,%d)", i, p)
		}
	}
}

func TestLosslessParentIsHighestNeighbour(t *testing.T) {
	g := graph.Torus(10, 10)
	res := runLocal(t, g, sim.Options{Seed: 3})
	f := res.Forest
	for i := 0; i < f.N(); i++ {
		bestNb, bestRank := -1, math.Inf(-1)
		for _, nb := range g.NeighborsInto(i, nil) {
			if res.Ranks[nb] > bestRank {
				bestNb, bestRank = nb, res.Ranks[nb]
			}
		}
		if bestRank > res.Ranks[i] {
			if f.Parent(i) != bestNb {
				t.Fatalf("node %d: parent %d, want highest neighbour %d", i, f.Parent(i), bestNb)
			}
		} else if !f.IsRoot(i) {
			t.Fatalf("node %d outranks all neighbours but is not a root", i)
		}
	}
}

func TestRootsAreLocalMaxima(t *testing.T) {
	g := graph.Ring(300)
	res := runLocal(t, g, sim.Options{Seed: 4})
	for _, r := range res.Forest.Roots() {
		for _, nb := range g.NeighborsInto(r, nil) {
			if res.Ranks[nb] > res.Ranks[r] {
				t.Fatalf("root %d has higher-ranked neighbour %d", r, nb)
			}
		}
	}
}

func TestHeightTheorem11(t *testing.T) {
	// Theorem 11: max tree height O(log n) whp on arbitrary graphs.
	for _, g := range []*graph.Graph{
		graph.Ring(4096),
		graph.Torus(64, 64),
		graph.MustRandomRegular(4096, 8, 5),
		graph.Hypercube(12),
	} {
		res := runLocal(t, g, sim.Options{Seed: 6})
		h := float64(res.Forest.MaxHeight())
		bound := 6 * math.Log2(float64(g.N()))
		if h > bound {
			t.Fatalf("%s: max height %v > 6 log n = %v", g.Name(), h, bound)
		}
	}
}

func TestTreeCountTheorem13(t *testing.T) {
	// Theorem 13: E[#trees] = Σ 1/(d_i+1); on a d-regular graph n/(d+1).
	for _, tc := range []struct {
		g *graph.Graph
	}{
		{graph.Ring(3000)},
		{graph.Torus(50, 60)},
		{graph.MustRandomRegular(3000, 9, 7)},
	} {
		res := runLocal(t, tc.g, sim.Options{Seed: 8})
		got := float64(res.Forest.NumTrees())
		want := tc.g.HarmonicDegreeSum()
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Fatalf("%s: trees = %v, want ~%v", tc.g.Name(), got, want)
		}
	}
}

func TestOnChordGraph(t *testing.T) {
	r := chord.MustNew(1024, chord.Options{Bits: 30, Placement: chord.Hashed, Seed: 9})
	g := r.Graph()
	res := runLocal(t, g, sim.Options{Seed: 10})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if h := res.Forest.MaxHeight(); float64(h) > 6*math.Log2(1024) {
		t.Fatalf("chord max height %d", h)
	}
}

func TestConstantRoundsLinearMessages(t *testing.T) {
	g := graph.MustRandomRegular(2048, 8, 11)
	eng := sim.NewEngine(g.N(), sim.Options{Seed: 12})
	if _, err := RunLocal(eng, g, Options{}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	// 1 rank-exchange round + <= 8 connection rounds.
	if st.Rounds > 10 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	// Messages: 2|E| rank exchange + <= 2n connection handshakes.
	bound := int64(2*g.NumEdges() + 2*g.N() + 16)
	if st.Messages > bound {
		t.Fatalf("messages = %d > %d", st.Messages, bound)
	}
}

func TestUnderLossStillValid(t *testing.T) {
	g := graph.Torus(40, 40)
	eng := sim.NewEngine(g.N(), sim.Options{Seed: 13, Loss: 0.125})
	res, err := RunLocal(eng, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rank order must hold even when boundaries shifted due to loss.
	for i := 0; i < g.N(); i++ {
		if p := res.Forest.Parent(i); p >= 0 && !(res.Ranks[p] > res.Ranks[i]) {
			t.Fatalf("rank order violated under loss at %d", i)
		}
	}
}

func TestLocalWithCrashes(t *testing.T) {
	g := graph.MustRandomRegular(1000, 6, 14)
	eng := sim.NewEngine(g.N(), sim.Options{Seed: 15, CrashFrac: 0.2})
	res, err := RunLocal(eng, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Forest.NumMembers() != eng.NumAlive() {
		t.Fatalf("members %d != alive %d", res.Forest.NumMembers(), eng.NumAlive())
	}
}

func TestGraphSizeMismatch(t *testing.T) {
	eng := sim.NewEngine(10, sim.Options{Seed: 1})
	if _, err := RunLocal(eng, graph.Ring(20), Options{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestLocalDeterminism(t *testing.T) {
	g := graph.Ring(256)
	a := runLocal(t, g, sim.Options{Seed: 16})
	b := runLocal(t, g, sim.Options{Seed: 16})
	for i := 0; i < 256; i++ {
		if a.Forest.Parent(i) != b.Forest.Parent(i) {
			t.Fatalf("forests differ at %d", i)
		}
	}
}

func TestStarGraph(t *testing.T) {
	// On a star, every leaf with rank below the hub attaches to the hub;
	// every leaf outranking the hub becomes a singleton root (its only
	// neighbour is lower-ranked); the hub attaches to its best leaf if one
	// outranks it.
	res := runLocal(t, graph.Star(100), sim.Options{Seed: 17})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	hubRank := res.Ranks[0]
	hubParent := res.Forest.Parent(0)
	for leaf := 1; leaf < 100; leaf++ {
		switch {
		case res.Ranks[leaf] < hubRank:
			if res.Forest.Parent(leaf) != 0 {
				t.Fatalf("low leaf %d not attached to hub", leaf)
			}
		case leaf == hubParent:
			// The hub's best leaf roots the hub's tree.
			if !res.Forest.IsRoot(leaf) {
				t.Fatalf("hub parent %d is not a root", leaf)
			}
		default:
			if !res.Forest.IsRoot(leaf) || res.Forest.TreeSize(leaf) != 1 {
				t.Fatalf("high leaf %d should be a singleton root", leaf)
			}
		}
	}
}

func BenchmarkLocalDRRTorus(b *testing.B) {
	g := graph.Torus(64, 64)
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(g.N(), sim.Options{Seed: uint64(i)})
		if _, err := RunLocal(eng, g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHeavyTailBarabasiAlbert(t *testing.T) {
	// Heavy-tailed degrees: hubs almost never become roots, leaves often
	// do; Theorem 13's harmonic sum still nails the tree count and
	// Theorem 11's height bound still holds.
	g := graph.BarabasiAlbert(4096, 3, 21)
	res := runLocal(t, g, sim.Options{Seed: 22})
	if err := res.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
	want := g.HarmonicDegreeSum()
	got := float64(res.Forest.NumTrees())
	if math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("BA trees = %v, want ~%v", got, want)
	}
	if h := float64(res.Forest.MaxHeight()); h > 6*math.Log2(4096) {
		t.Fatalf("BA max height %v", h)
	}
}
