package chord

import (
	"math"
	"slices"
	"testing"

	"drrgossip/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, Options{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := New(10, Options{Bits: 63}); err == nil {
		t.Fatal("Bits=63 accepted")
	}
}

func TestNewTooManyNodes(t *testing.T) {
	if _, err := New(10, Options{Bits: 3}); err == nil {
		t.Fatal("10 nodes in 8-id space accepted")
	}
}

func TestEvenPlacementIDs(t *testing.T) {
	r := MustNew(8, Options{Bits: 6})
	for i := 0; i < 8; i++ {
		if r.ID(i) != uint64(i*8) {
			t.Fatalf("even ID(%d) = %d", i, r.ID(i))
		}
		if r.arc(i) != 8 {
			t.Fatalf("even arc(%d) = %d", i, r.arc(i))
		}
	}
}

func TestSuccessorOf(t *testing.T) {
	r := MustNew(8, Options{Bits: 6}) // ids 0,8,16,...,56
	cases := []struct {
		id   uint64
		want int
	}{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {56, 7}, {57, 0}, {63, 0},
	}
	for _, c := range cases {
		if got := r.SuccessorOf(c.id); got != c.want {
			t.Fatalf("SuccessorOf(%d) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestRouteReachesOwner(t *testing.T) {
	for _, placement := range []Placement{Even, Hashed} {
		r := MustNew(128, Options{Bits: 20, Placement: placement, Seed: 5})
		rng := xrand.New(9)
		for trial := 0; trial < 500; trial++ {
			from := rng.Intn(128)
			id := rng.Uint64n(1 << 20)
			owner := r.SuccessorOf(id)
			path := r.AppendRoute(nil, from, id)
			if from == owner {
				if len(path) != 0 {
					t.Fatalf("self-route has hops: %v", path)
				}
				continue
			}
			if len(path) == 0 || path[len(path)-1] != owner {
				t.Fatalf("route from %d to id %d (owner %d): path %v", from, id, owner, path)
			}
		}
	}
}

func TestRouteHopBound(t *testing.T) {
	// Greedy finger routing takes O(log n) hops.
	for _, n := range []int{64, 256, 1024} {
		r := MustNew(n, Options{Bits: 32, Placement: Hashed, Seed: 3})
		rng := xrand.New(4)
		maxHops := 0
		for trial := 0; trial < 300; trial++ {
			from := rng.Intn(n)
			path := r.AppendRoute(nil, from, rng.Uint64n(1<<32))
			if len(path) > maxHops {
				maxHops = len(path)
			}
		}
		bound := 3 * int(math.Log2(float64(n)))
		if maxHops > bound {
			t.Fatalf("n=%d: max hops %d exceeds 3 log n = %d", n, maxHops, bound)
		}
	}
}

func TestRouteToNode(t *testing.T) {
	r := MustNew(64, Options{Bits: 16, Placement: Hashed, Seed: 8})
	rng := xrand.New(2)
	for trial := 0; trial < 200; trial++ {
		from, to := rng.Intn(64), rng.Intn(64)
		path := r.AppendRouteToNode(nil, from, to)
		if from == to {
			if len(path) != 0 {
				t.Fatal("self route nonempty")
			}
			continue
		}
		if len(path) == 0 || path[len(path)-1] != to {
			t.Fatalf("AppendRouteToNode(%d,%d) = %v", from, to, path)
		}
	}
}

// fingers returns node i's deduplicated finger set in ascending order.
func fingers(r *Ring, i int) []int {
	fs := r.appendFingers(i, nil)
	slices.Sort(fs)
	return slices.Compact(fs)
}

func TestFingersIncludeSuccessor(t *testing.T) {
	r := MustNew(50, Options{Bits: 24, Placement: Hashed, Seed: 1})
	for i := 0; i < 50; i++ {
		succ := (i + 1) % 50
		found := false
		for _, f := range fingers(r, i) {
			if f == succ {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d fingers %v missing successor %d", i, fingers(r, i), succ)
		}
	}
}

func TestFingerCountLogarithmic(t *testing.T) {
	r := MustNew(1024, Options{Bits: 40, Placement: Hashed, Seed: 2})
	for i := 0; i < 1024; i += 37 {
		if f := len(fingers(r, i)); f > 40 || f < 2 {
			t.Fatalf("node %d has %d fingers", i, f)
		}
	}
}

func TestSampleUniformEven(t *testing.T) {
	const n = 64
	r := MustNew(n, Options{Bits: 20})
	rng := xrand.New(7)
	counts := make([]int, n)
	const trials = 64000
	totalHops := 0
	for i := 0; i < trials; i++ {
		node, _, hops := r.AppendSample(nil, rng, i%n)
		counts[node]++
		totalHops += hops
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("node %d sampled %d times, want ~%v", v, c, want)
		}
	}
	if avg := float64(totalHops) / trials; avg > 3*math.Log2(n) {
		t.Fatalf("average sample cost %v hops too high", avg)
	}
}

func TestSampleHashedCoverage(t *testing.T) {
	// With Hashed placement sampling is near-uniform: every node must be
	// hit, and no node more than a few times its fair share.
	const n = 64
	r := MustNew(n, Options{Bits: 30, Placement: Hashed, Seed: 11})
	rng := xrand.New(13)
	counts := make([]int, n)
	const trials = 64000
	for i := 0; i < trials; i++ {
		node, _, _ := r.AppendSample(nil, rng, 0)
		counts[node]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("node %d never sampled", v)
		}
		if float64(c) > 5*want {
			t.Fatalf("node %d sampled %d times (fair share %v)", v, c, want)
		}
	}
}

func TestSamplePathMatchesNode(t *testing.T) {
	r := MustNew(32, Options{Bits: 16, Placement: Hashed, Seed: 21})
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		from := rng.Intn(32)
		node, path, hops := r.AppendSample(nil, rng, from)
		if len(path) > 0 && path[len(path)-1] != node {
			t.Fatalf("path %v does not end at sampled node %d", path, node)
		}
		if len(path) == 0 && node != from {
			t.Fatalf("empty path but node %d != from %d", node, from)
		}
		if hops < len(path) {
			t.Fatalf("total hops %d < accepted path %d", hops, len(path))
		}
	}
}

func TestGraphStructure(t *testing.T) {
	r := MustNew(256, Options{Bits: 30, Placement: Hashed, Seed: 6})
	g := r.Graph()
	if g.N() != 256 {
		t.Fatalf("graph N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("chord graph disconnected")
	}
	// Degree is O(log n): fingers in + out.
	if d := g.MaxDegree(); d > 8*30 {
		t.Fatalf("max degree %d too large", d)
	}
	// Ring edges present.
	for i := 0; i < 256; i++ {
		if !g.HasEdge(i, (i+1)%256) {
			t.Fatalf("missing successor edge at %d", i)
		}
	}
}

func TestHashedIDsSortedDistinct(t *testing.T) {
	r := MustNew(512, Options{Bits: 34, Placement: Hashed, Seed: 77})
	for i := 1; i < 512; i++ {
		if r.ID(i) <= r.ID(i-1) {
			t.Fatalf("ids not strictly increasing at %d", i)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := MustNew(100, Options{Bits: 24, Placement: Hashed, Seed: 3})
	b := MustNew(100, Options{Bits: 24, Placement: Hashed, Seed: 3})
	for i := 0; i < 100; i++ {
		if a.ID(i) != b.ID(i) {
			t.Fatalf("ids differ at %d", i)
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	r := MustNew(4096, Options{Bits: 40, Placement: Hashed, Seed: 1})
	rng := xrand.New(2)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendRoute(buf[:0], rng.Intn(4096), rng.Uint64n(1<<40))
	}
}

func BenchmarkSample(b *testing.B) {
	r := MustNew(4096, Options{Bits: 40, Placement: Hashed, Seed: 1})
	rng := xrand.New(2)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf, _ = r.AppendSample(buf[:0], rng, i%4096)
	}
}

func TestRouteDistanceMonotone(t *testing.T) {
	// The defining greedy-routing invariant: every hop strictly decreases
	// the clockwise identifier distance to the target — except the final
	// hop onto the owner, whose identifier sits just past the target (the
	// distance wraps there by construction).
	r := MustNew(512, Options{Bits: 30, Placement: Hashed, Seed: 31})
	rng := xrand.New(32)
	space := uint64(1) << 30
	dist := func(a, b uint64) uint64 { return (b - a) & (space - 1) }
	for trial := 0; trial < 300; trial++ {
		from := rng.Intn(512)
		id := rng.Uint64n(space)
		path := r.AppendRoute(nil, from, id)
		owner := r.SuccessorOf(id)
		d := dist(r.ID(from), id)
		for k, hop := range path {
			if hop == owner {
				if k != len(path)-1 {
					t.Fatalf("owner reached mid-path at hop %d of %v", k, path)
				}
				break
			}
			nd := dist(r.ID(hop), id)
			if nd >= d {
				t.Fatalf("hop %d did not progress: %d -> %d", hop, d, nd)
			}
			d = nd
		}
	}
}

func TestFingerDistanceHalving(t *testing.T) {
	// With even placement the farthest finger covers half the ring, the
	// next a quarter, etc. — the structural reason routing is O(log n).
	r := MustNew(64, Options{Bits: 12})
	for i := 0; i < 64; i++ {
		far := 0
		for _, f := range fingers(r, i) {
			gap := (f - i + 64) % 64
			if gap > far {
				far = gap
			}
		}
		if far < 16 {
			t.Fatalf("node %d farthest finger only spans %d of 64", i, far)
		}
	}
}
