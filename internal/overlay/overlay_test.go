package overlay

import (
	"math"
	"strings"
	"testing"

	"drrgossip/internal/chord"
	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// checkRoutes verifies the Overlay routing contract on a sample of
// pairs: every hop is a graph edge, the path ends at the target,
// excludes the source, and respects RouteBound.
func checkRoutes(t *testing.T, ov Overlay) {
	t.Helper()
	g := ov.Graph()
	n := g.N()
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		from, to := rng.Intn(n), rng.Intn(n)
		path := ov.AppendRoute(nil, from, to)
		if from == to {
			if len(path) != 0 {
				t.Fatalf("%s: AppendRoute(%d,%d) self-route returned %v", ov.Name(), from, to, path)
			}
			continue
		}
		if len(path) == 0 {
			t.Fatalf("%s: AppendRoute(%d,%d) empty", ov.Name(), from, to)
		}
		if len(path) > ov.RouteBound() {
			t.Fatalf("%s: AppendRoute(%d,%d) length %d exceeds RouteBound %d", ov.Name(), from, to, len(path), ov.RouteBound())
		}
		prev := from
		for _, hop := range path {
			if !g.HasEdge(prev, hop) {
				t.Fatalf("%s: AppendRoute(%d,%d) uses non-edge (%d,%d)", ov.Name(), from, to, prev, hop)
			}
			prev = hop
		}
		if prev != to {
			t.Fatalf("%s: AppendRoute(%d,%d) ends at %d", ov.Name(), from, to, prev)
		}
	}
}

func checkSampler(t *testing.T, ov Overlay) {
	t.Helper()
	n := ov.Graph().N()
	rng := xrand.New(7)
	seen := make(map[int]bool)
	for trial := 0; trial < 40*n; trial++ {
		node, path, totalHops := ov.AppendSample(nil, rng, trial%n)
		if node < 0 || node >= n {
			t.Fatalf("%s: sampled out-of-range node %d", ov.Name(), node)
		}
		if totalHops < len(path) {
			t.Fatalf("%s: totalHops %d < path length %d", ov.Name(), totalHops, len(path))
		}
		if len(path) > 0 && path[len(path)-1] != node {
			t.Fatalf("%s: sample path ends at %d, node %d", ov.Name(), path[len(path)-1], node)
		}
		if len(path) == 0 && node != trial%n {
			t.Fatalf("%s: empty path but sampled %d from %d", ov.Name(), node, trial%n)
		}
		seen[node] = true
	}
	if len(seen) < n*9/10 {
		t.Fatalf("%s: sampler reached only %d/%d nodes", ov.Name(), len(seen), n)
	}
}

func TestLandmarkOverlays(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Torus(8, 8),
		graph.Hypercube(6),
		graph.MustRandomRegular(64, 4, 3),
		graph.SmallWorld(64, 2, 0.25, 4),
		graph.Ring(31),
		graph.BarabasiAlbert(64, 3, 5),
		graph.Star(17),
	}
	for _, g := range graphs {
		ov, err := NewLandmark(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if ov.Graph() != g {
			t.Fatalf("%s: Graph() not the wrapped graph", g.Name())
		}
		checkRoutes(t, ov)
		checkSampler(t, ov)
	}
}

func TestLandmarkCenterBeatsWorstCase(t *testing.T) {
	// On a ring the double-sweep midpoint must keep the tree depth near
	// the radius, so RouteBound stays ~diameter rather than 2×diameter.
	g := graph.Ring(100)
	ov, err := NewLandmark(g)
	if err != nil {
		t.Fatal(err)
	}
	if ov.RouteBound() > 2*60 {
		t.Fatalf("ring RouteBound %d too large (radius is 50)", ov.RouteBound())
	}
}

func TestLandmarkRejectsDisconnected(t *testing.T) {
	adj := [][]int{{1}, {0}, {3}, {2}} // two components
	g, err := graph.FromAdjacency("twopairs", adj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLandmark(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestChordAdapterMatchesRing(t *testing.T) {
	ring := chord.MustNew(128, chord.Options{Bits: 30})
	ov := NewChord(ring)
	checkRoutes(t, ov)
	checkSampler(t, ov)
	for from := 0; from < 128; from += 7 {
		for to := 0; to < 128; to += 11 {
			got := ov.AppendRoute(nil, from, to)
			want := ring.AppendRouteToNode(nil, from, to)
			if len(got) != len(want) {
				t.Fatalf("AppendRoute(%d,%d) = %v, ring says %v", from, to, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("AppendRoute(%d,%d) = %v, ring says %v", from, to, got, want)
				}
			}
		}
	}
	// The sampler must consume the RNG exactly like the ring's own.
	a, b := xrand.New(5), xrand.New(5)
	for i := 0; i < 50; i++ {
		n1, p1, h1 := ov.AppendSample(nil, a, i%128)
		n2, p2, h2 := ring.AppendSample(nil, b, i%128)
		if n1 != n2 || h1 != h2 || len(p1) != len(p2) {
			t.Fatalf("adapter sample (%d,%v,%d) != ring sample (%d,%v,%d)", n1, p1, h1, n2, p2, h2)
		}
	}
	if want := 2 * int(math.Ceil(math.Log2(128))); ov.RouteBound() != want {
		t.Fatalf("chord RouteBound = %d, want %d", ov.RouteBound(), want)
	}
}

func TestRegistryParseAndBuild(t *testing.T) {
	good := map[string]Spec{
		"chord":        {Name: "chord"},
		"torus":        {Name: "torus"},
		"hypercube":    {Name: "hypercube"},
		"regular:6":    {Name: "regular", Param: 6},
		"smallworld:3": {Name: "smallworld", Param: 3},
		"ring":         {Name: "ring"},
		"scalefree":    {Name: "scalefree"},
		" Torus ":      {Name: "torus"},
	}
	for text, want := range good {
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got != want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", text, got, want)
		}
	}
	for _, bad := range []string{"mesh", "regular:abc", "", "torus:1:2",
		"chord:5", "torus:3", "ring:7", "hypercube:4"} { // parameterless families reject params
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}

	for _, spec := range []Spec{{Name: "chord"}, {Name: "torus"}, {Name: "hypercube"},
		{Name: "regular"}, {Name: "smallworld"}, {Name: "ring"}, {Name: "scalefree"}} {
		ov, err := Build(spec, 64, 9)
		if err != nil {
			t.Fatalf("Build(%v, 64): %v", spec, err)
		}
		if ov.Graph().N() != 64 || !ov.Graph().Connected() {
			t.Fatalf("Build(%v): bad graph %s", spec, ov.Graph().Name())
		}
		// Deterministic: same (spec, n, seed) gives an identical graph.
		ov2, err := Build(spec, 64, 9)
		if err != nil {
			t.Fatal(err)
		}
		if ov.Graph().Name() != ov2.Graph().Name() || ov.Graph().NumEdges() != ov2.Graph().NumEdges() {
			t.Fatalf("Build(%v) not deterministic", spec)
		}
	}
}

func TestRegistryCheckRejections(t *testing.T) {
	cases := []struct {
		spec Spec
		n    int
	}{
		{Spec{Name: "hypercube"}, 48},         // not a power of two
		{Spec{Name: "torus"}, 14},             // no rows,cols >= 3 factorisation
		{Spec{Name: "torus"}, 7},              // prime
		{Spec{Name: "regular", Param: 2}, 16}, // d < 3
		{Spec{Name: "regular", Param: 3}, 9},  // n*d odd
		{Spec{Name: "regular", Param: 16}, 16},
		{Spec{Name: "smallworld", Param: 4}, 8}, // n < 2k+2
		{Spec{Name: "ring"}, 2},
		{Spec{Name: "scalefree", Param: 9}, 10},
		{Spec{Name: "chord"}, 1},
		{Spec{Name: "chord", Param: 5}, 64},     // chord takes no parameter
		{Spec{Name: "hypercube", Param: 4}, 16}, // hypercube takes no parameter
		{Spec{Name: "nope"}, 64},
	}
	for _, c := range cases {
		if err := Check(c.spec, c.n); err == nil {
			t.Fatalf("Check(%v, %d) accepted", c.spec, c.n)
		}
		if _, err := Build(c.spec, c.n, 1); err == nil {
			t.Fatalf("Build(%v, %d) accepted", c.spec, c.n)
		}
	}
}

func TestNamesCatalog(t *testing.T) {
	names := Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"chord", "torus", "hypercube", "regular", "smallworld", "ring", "scalefree"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Names() = %v missing %s", names, want)
		}
	}
}
