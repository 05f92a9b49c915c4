package chord

import (
	"fmt"
	"slices"
	"testing"

	"drrgossip/internal/xrand"
)

// The functions below are verbatim copies of the allocating router that
// the append-style methods replaced: a fresh path slice per call and a
// finger scan that evaluates every shift. They are the differential
// reference pinning AppendRoute, the early-exit closestPreceding and
// AppendSample hop-for-hop.

func (r *Ring) refRoute(from int, id uint64) []int {
	id &= r.space - 1
	owner := r.SuccessorOf(id)
	if owner == from {
		return nil
	}
	var path []int
	cur := from
	for cur != owner {
		next := r.refClosestPreceding(cur, id)
		if next == cur {
			// No finger strictly precedes id: the successor owns it.
			next = (cur + 1) % r.n
		}
		path = append(path, next)
		cur = next
		if len(path) > 4*r.bits {
			panic("chord: routing did not converge")
		}
	}
	return path
}

func (r *Ring) refClosestPreceding(cur int, id uint64) int {
	curID := r.ID(cur)
	best := cur
	bestDist := r.dist(curID, id)
	if bestDist == 0 {
		return cur
	}
	for k := 0; k < r.bits; k++ {
		f := r.SuccessorOf((curID + (uint64(1) << uint(k))) & (r.space - 1))
		if f == cur {
			continue
		}
		d := r.dist(r.ID(f), id)
		// Strictly inside (cur, id): closer to id than cur is, nonzero.
		if d < bestDist && d > 0 {
			best = f
			bestDist = d
		}
	}
	return best
}

func (r *Ring) refRouteToNode(from, to int) []int {
	if from == to {
		return nil
	}
	return r.refRoute(from, r.ID(to))
}

func (r *Ring) refSample(rng *xrand.Stream, from int) (node int, path []int, totalHops int) {
	avgArc := float64(r.space) / float64(r.n)
	for try := 0; ; try++ {
		id := rng.Uint64n(r.space)
		p := r.refRoute(from, id)
		totalHops += len(p)
		owner := r.SuccessorOf(id)
		a := float64(r.arc(owner))
		if a <= avgArc || try >= 63 || rng.Float64() < avgArc/a {
			return owner, p, totalHops
		}
	}
}

// diffRings covers both placements, the default 40-bit space and tight
// spaces where n is close to (or equal to) 2^bits, so owned arcs are a
// handful of identifiers and many shifts collapse onto one finger.
func diffRings(t *testing.T) map[string]*Ring {
	t.Helper()
	rings := map[string]*Ring{}
	for _, p := range []Placement{Even, Hashed} {
		for _, c := range []struct{ n, bits int }{
			{2, 40}, {5, 3}, {8, 3}, {64, 6}, {64, 8}, {64, 40},
			{1000, 10}, {1000, 12}, {1000, 40}, {4097, 13},
		} {
			r, err := New(c.n, Options{Bits: c.bits, Placement: p, Seed: uint64(c.n + c.bits)})
			if err != nil {
				t.Fatal(err)
			}
			rings[fmt.Sprintf("p%d/n%d/b%d", p, c.n, c.bits)] = r
		}
	}
	return rings
}

func TestAppendRouteMatchesFullScan(t *testing.T) {
	prefix := []int{-7, -8, -9}
	for name, r := range diffRings(t) {
		rng := xrand.New(41)
		buf := append([]int(nil), prefix...)
		for trial := 0; trial < 3000; trial++ {
			from := rng.Intn(r.N())
			id := rng.Uint64n(r.space)
			if got, want := r.closestPreceding(from, id), r.refClosestPreceding(from, id); got != want {
				t.Fatalf("%s: closestPreceding(%d, %d) = %d, full scan says %d", name, from, id, got, want)
			}
			want := r.refRoute(from, id)
			if got := r.AppendRoute(nil, from, id); !slices.Equal(got, want) {
				t.Fatalf("%s: AppendRoute(%d, %d) = %v, reference %v", name, from, id, got, want)
			}
			buf = r.AppendRoute(buf[:len(prefix)], from, id)
			if !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], want) {
				t.Fatalf("%s: AppendRoute onto prefix = %v, want %v+%v", name, buf, prefix, want)
			}
		}
		// Node-to-node routes over every pair (a stride of pairs on the
		// larger rings).
		step := 1 + r.N()/64
		for from := 0; from < r.N(); from += step {
			for to := 0; to < r.N(); to += step {
				want := r.refRouteToNode(from, to)
				if got := r.AppendRouteToNode(nil, from, to); !slices.Equal(got, want) {
					t.Fatalf("%s: AppendRouteToNode(%d, %d) = %v, reference %v", name, from, to, got, want)
				}
			}
		}
	}
}

func TestAppendSampleMatchesReference(t *testing.T) {
	prefix := []int{-1, -2}
	for name, r := range diffRings(t) {
		a, b := xrand.New(17), xrand.New(17)
		buf := append([]int(nil), prefix...)
		for trial := 0; trial < 1000; trial++ {
			from := trial % r.N()
			wantNode, wantPath, wantHops := r.refSample(b, from)
			var node, hops int
			node, buf, hops = r.AppendSample(buf[:len(prefix)], a, from)
			if node != wantNode || hops != wantHops ||
				!slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], wantPath) {
				t.Fatalf("%s: AppendSample from %d = (%d, %v, %d), reference (%d, %v+%v, %d)",
					name, from, node, buf, hops, wantNode, prefix, wantPath, wantHops)
			}
		}
		// Both samplers must have consumed the stream identically.
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: RNG streams diverged after sampling (%d vs %d)", name, x, y)
		}
	}
}

// Routing and sampling into a warm caller-owned buffer must not
// allocate: they run once per routed message in the sparse pipelines.
func TestAppendRouteSampleZeroAllocs(t *testing.T) {
	for _, p := range []Placement{Even, Hashed} {
		r := MustNew(4096, Options{Placement: p, Seed: 3})
		rng := xrand.New(5)
		buf := make([]int, 0, 4*r.Bits())
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			buf = r.AppendRoute(buf[:0], i%4096, rng.Uint64n(r.space))
			i++
		}); allocs != 0 {
			t.Fatalf("placement %d: AppendRoute allocates %v objects per call", p, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			_, buf, _ = r.AppendSample(buf[:0], rng, i%4096)
			i++
		}); allocs != 0 {
			t.Fatalf("placement %d: AppendSample allocates %v objects per call", p, allocs)
		}
	}
}
