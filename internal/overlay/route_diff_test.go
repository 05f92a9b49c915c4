package overlay

import (
	"fmt"
	"slices"
	"testing"

	"drrgossip/internal/chord"
	"drrgossip/internal/xrand"
)

// refRoute is a verbatim copy of the allocating landmark router that
// AppendRoute replaced (separate up/down temporaries, a fresh path per
// call); refSample is the sampler built on it. They are the differential
// reference for the append-style methods.
func (l *Landmark) refRoute(from, to int) []int {
	if from == to {
		return nil
	}
	a, b := from, to
	var up, down []int // from-side ascent; to-side ascent (bottom-up)
	for l.depth[a] > l.depth[b] {
		a = l.parent[a]
		up = append(up, a)
	}
	for l.depth[b] > l.depth[a] {
		down = append(down, b)
		b = l.parent[b]
	}
	for a != b {
		a = l.parent[a]
		up = append(up, a)
		down = append(down, b)
		b = l.parent[b]
	}
	// a == b is the LCA; up already ends there (or is empty when from is
	// the LCA). Walk down the to-side in top-down order.
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

func (l *Landmark) refSample(rng *xrand.Stream, from int) (int, []int, int) {
	j := rng.Intn(l.g.N())
	path := l.refRoute(from, j)
	return j, path, len(path)
}

func TestLandmarkAppendRouteMatchesReference(t *testing.T) {
	prefix := []int{-3, -4}
	for _, name := range []string{"smallworld", "torus", "scalefree"} {
		for _, n := range []int{64, 1000} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				ov, err := Build(Spec{Name: name}, n, 11)
				if err != nil {
					t.Fatal(err)
				}
				l := ov.(*Landmark)
				buf := append([]int(nil), prefix...)
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						want := l.refRoute(from, to)
						buf = l.AppendRoute(buf[:len(prefix)], from, to)
						if !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], want) {
							t.Fatalf("AppendRoute(%d, %d) onto %v = %v, reference %v", from, to, prefix, buf, want)
						}
					}
				}
				// Degenerate and one-sided routes appended into a buffer
				// with no spare capacity: the route grows dst in place.
				deep := 0
				for i := 0; i < n; i++ {
					if l.depth[i] > l.depth[deep] {
						deep = i
					}
				}
				mid := l.parent[l.parent[deep]]
				for _, pair := range [][2]int{{deep, deep}, {mid, mid}, {mid, deep}, {deep, mid}, {l.landmark, deep}, {deep, l.landmark}} {
					from, to := pair[0], pair[1]
					tight := slices.Clip(slices.Clone(prefix))
					got := l.AppendRoute(tight, from, to)
					if want := l.refRoute(from, to); !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("AppendRoute(%d, %d) onto a full %v = %v, reference %v", from, to, prefix, got, want)
					}
				}
				a, b := xrand.New(23), xrand.New(23)
				for trial := 0; trial < 4*n; trial++ {
					from := (trial * 7) % n
					wantNode, wantPath, wantHops := l.refSample(b, from)
					var node, hops int
					node, buf, hops = l.AppendSample(buf[:len(prefix)], a, from)
					if node != wantNode || hops != wantHops ||
						!slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], wantPath) {
						t.Fatalf("AppendSample from %d = (%d, %v, %d), reference (%d, %v+%v, %d)",
							from, node, buf, hops, wantNode, prefix, wantPath, wantHops)
					}
				}
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("RNG streams diverged after sampling (%d vs %d)", x, y)
				}
			})
		}
	}
}

// Warm-buffer routing and sampling must not allocate on either router:
// the sparse pipelines call them once per routed message.
func TestAppendRouteSampleZeroAllocs(t *testing.T) {
	sw, err := Build(Spec{Name: "smallworld"}, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ov := range []Overlay{sw, NewChord(chord.MustNew(4096, chord.Options{Placement: chord.Hashed, Seed: 3}))} {
		rng := xrand.New(9)
		buf := make([]int, 0, 2*ov.RouteBound())
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			buf = ov.AppendRoute(buf[:0], i%4096, (i*977)%4096)
			i++
		}); allocs != 0 {
			t.Fatalf("%s: AppendRoute allocates %v objects per call", ov.Name(), allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			_, buf, _ = ov.AppendSample(buf[:0], rng, i%4096)
			i++
		}); allocs != 0 {
			t.Fatalf("%s: AppendSample allocates %v objects per call", ov.Name(), allocs)
		}
	}
}
