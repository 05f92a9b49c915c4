package overlay

import (
	"fmt"
	"testing"

	"drrgossip/internal/xrand"
)

// Materialize must preserve the graph element-for-element and the router
// hop-for-hop for every registered family.
func TestMaterializePreservesOverlay(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "chord"}, {Name: "ring"}, {Name: "torus"}, {Name: "hypercube"},
		{Name: "regular"}, {Name: "smallworld"}, {Name: "scalefree"},
	} {
		for _, n := range []int{64, 1000} {
			if spec.Name == "hypercube" {
				n = 64 // power of two
			}
			t.Run(fmt.Sprintf("%s/n=%d", spec, n), func(t *testing.T) {
				ov, err := Build(spec, n, 7)
				if err != nil {
					t.Fatal(err)
				}
				mat, err := Materialize(ov)
				if err != nil {
					t.Fatal(err)
				}
				g, mg := ov.Graph(), mat.Graph()
				if g.Name() != mg.Name() || g.N() != mg.N() || g.NumEdges() != mg.NumEdges() {
					t.Fatalf("graph identity differs: %s/%d/%d vs %s/%d/%d",
						g.Name(), g.N(), g.NumEdges(), mg.Name(), mg.N(), mg.NumEdges())
				}
				var a, b []int
				for u := 0; u < n; u++ {
					a = g.NeighborsInto(u, a)
					b = mg.NeighborsInto(u, b)
					if len(a) != len(b) {
						t.Fatalf("degree differs at %d: %v vs %v", u, a, b)
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("neighbours differ at %d: %v vs %v", u, a, b)
						}
					}
				}
				if ov.RouteBound() != mat.RouteBound() {
					t.Fatalf("RouteBound differs: %d vs %d", ov.RouteBound(), mat.RouteBound())
				}
				// Routes and samples must be identical (same router state).
				rng1 := xrand.Derive(3, 1)
				rng2 := xrand.Derive(3, 1)
				for trial := 0; trial < 50; trial++ {
					from := (trial * 13) % n
					to := (trial * 29) % n
					p1, p2 := ov.AppendRoute(nil, from, to), mat.AppendRoute(nil, from, to)
					if fmt.Sprint(p1) != fmt.Sprint(p2) {
						t.Fatalf("route %d->%d differs: %v vs %v", from, to, p1, p2)
					}
					n1, s1, h1 := ov.AppendSample(nil, rng1, from)
					n2, s2, h2 := mat.AppendSample(nil, rng2, from)
					if n1 != n2 || h1 != h2 || fmt.Sprint(s1) != fmt.Sprint(s2) {
						t.Fatalf("sample from %d differs: (%d,%v,%d) vs (%d,%v,%d)",
							from, n1, s1, h1, n2, s2, h2)
					}
				}
			})
		}
	}
}
