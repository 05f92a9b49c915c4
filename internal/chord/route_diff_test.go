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
			{1000, 10}, {1000, 12}, {1000, 40}, {1000, 62}, {4097, 13},
			{12345, 20},
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

// TestFingerMatchesSuccessorOf checks the closed-form fingers against
// the successor search for every node and shift: on rings where step
// does not divide the space (rem > 0, so node 0's arc is longer), from
// three nodes in the widest space to a million nodes (a stride of them),
// and on every diffRings ring of both placements.
func TestFingerMatchesSuccessorOf(t *testing.T) {
	rings := diffRings(t)
	for _, c := range []struct{ n, bits int }{
		{3, 62}, {1000, 62}, {999, 10}, {12345, 20}, {1 << 13, 40}, {1000003, 40},
	} {
		rings[fmt.Sprintf("even/n%d/b%d", c.n, c.bits)] = MustNew(c.n, Options{Bits: c.bits})
	}
	for name, r := range rings {
		stride := 1 + r.N()/20000
		for i := 0; i < r.N(); i += stride {
			assertFingers(t, name, r, i)
		}
		assertFingers(t, name, r, r.N()-1)
	}
}

func assertFingers(t *testing.T, name string, r *Ring, i int) {
	t.Helper()
	for k := 0; k < r.bits; k++ {
		if got, want := r.finger(i, k), r.SuccessorOf(r.ID(i)+uint64(1)<<uint(k)); got != want {
			t.Fatalf("%s: finger(%d, %d) = %d, SuccessorOf says %d", name, i, k, got, want)
		}
	}
}

// FuzzChordRouteMatchesReference compares finger, closestPreceding,
// AppendRoute and AppendSample with SuccessorOf and the full-scan
// references on fuzzed rings (drawn as in FuzzChordGraphMatchesReference),
// start nodes, target identifiers and sampler seeds.
func FuzzChordRouteMatchesReference(f *testing.F) {
	f.Add(uint16(5), uint8(3), false, uint64(1), uint32(4), uint64(7))
	f.Add(uint16(64), uint8(40), true, uint64(0xfeed), uint32(0), uint64(1<<39))
	f.Add(uint16(1000), uint8(60), false, uint64(7), uint32(999), uint64(12345))
	f.Add(uint16(257), uint8(9), true, uint64(3), uint32(100), uint64(511))
	f.Fuzz(func(t *testing.T, size uint16, width uint8, hashed bool, seed uint64, from uint32, id uint64) {
		n := 2 + int(size)%1500
		minBits := 1
		for 1<<minBits < n {
			minBits++
		}
		opts := Options{Bits: minBits + int(width)%(63-minBits), Seed: seed}
		if hashed {
			opts.Placement = Hashed
		}
		r := MustNew(n, opts)
		src := int(from % uint32(n))
		id &= r.space - 1
		assertFingers(t, "fuzz", r, src)
		if got, want := r.closestPreceding(src, id), r.refClosestPreceding(src, id); got != want {
			t.Fatalf("closestPreceding(%d, %d) = %d, full scan says %d", src, id, got, want)
		}
		if got, want := r.AppendRoute(nil, src, id), r.refRoute(src, id); !slices.Equal(got, want) {
			t.Fatalf("AppendRoute(%d, %d) = %v, reference %v", src, id, got, want)
		}
		a, b := xrand.New(seed^id), xrand.New(seed^id)
		var buf []int
		for trial := 0; trial < 8; trial++ {
			wantNode, wantPath, wantHops := r.refSample(b, src)
			var node, hops int
			node, buf, hops = r.AppendSample(buf[:0], a, src)
			if node != wantNode || hops != wantHops || !slices.Equal(buf, wantPath) {
				t.Fatalf("AppendSample from %d = (%d, %v, %d), reference (%d, %v, %d)",
					src, node, buf, hops, wantNode, wantPath, wantHops)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("RNG streams diverged after sampling (%d vs %d)", x, y)
		}
	})
}

// An Even ring holds no per-node routing state: New allocates the Ring
// and nothing else. A per-node finger table (n × bits int32, even one
// shared between identical rings) made each routed hop a cache miss and
// doubled SC1's chord n = 10^6 leg (pipeline 9.4–10.6 s → 19.4–21.2 s,
// peak RSS 442 → 507 MB), so it must not come back.
func TestEvenRingHoldsNoPerNodeState(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { MustNew(1<<16, Options{}) }); allocs > 1 {
		t.Fatalf("New(2^16, Even) makes %v allocations, want at most 1", allocs)
	}
}
