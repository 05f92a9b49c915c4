package chord

// Differential golden for the communication graph: the CSR rows Graph
// builds must be element-identical to the implicit construction it
// replaced (interval-query reverse fingers over closed-form successor
// arithmetic, kept below as the reference) and to materialized [][]int
// adjacency lists built by the historical two-pass construction.

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// appendAllFingers is appendFingers as it was when the references below
// were written: successor(ID(i) + 2^k) for every k, excluding i itself,
// without sorting or dedup.
func (r *Ring) appendAllFingers(i int, buf []int) []int {
	id := r.ID(i)
	for k := 0; k < r.bits; k++ {
		f := r.SuccessorOf((id + (uint64(1) << uint(k))) & (r.space - 1))
		if f != i {
			buf = append(buf, f)
		}
	}
	return buf
}

// appendOwnersLinear appends (ascending) every node whose identifier lies
// in the linear range [a, b]; empty when a > b.
func (r *Ring) appendOwnersLinear(a, b uint64, buf []int) []int {
	if a > b {
		return buf
	}
	if r.ids == nil {
		i := int((a + r.step - 1) / r.step) // first index with i·step >= a
		j := int(b / r.step)                // last index with j·step <= b
		if j >= r.n {
			j = r.n - 1
		}
		for v := i; v <= j; v++ {
			buf = append(buf, v)
		}
		return buf
	}
	i := sort.Search(r.n, func(k int) bool { return r.ids[k] >= a })
	for ; i < r.n && r.ids[i] <= b; i++ {
		buf = append(buf, i)
	}
	return buf
}

// appendOwnersIn appends every node whose identifier lies in the
// clockwise identifier interval (lo, hi]; the interval must be nonempty
// (lo != hi).
func (r *Ring) appendOwnersIn(lo, hi uint64, buf []int) []int {
	if lo < hi {
		return r.appendOwnersLinear(lo+1, hi, buf)
	}
	buf = r.appendOwnersLinear(lo+1, r.space-1, buf)
	return r.appendOwnersLinear(0, hi, buf)
}

// appendGraphNeighbors appends node u's neighbours in the induced
// communication graph — forward fingers, reverse fingers (nodes v with u
// in their finger set), and the undirected ring links to successor and
// predecessor — sorted and deduplicated, excluding u.
//
// Reverse fingers come from an interval query instead of scanning all
// nodes: u = successor(ID(v) + 2^k) iff ID(v) + 2^k lands in u's owned
// arc (pred(u), u], i.e. ID(v) ∈ (ID(pred(u)) − 2^k, ID(u) − 2^k].
func (r *Ring) appendGraphNeighbors(u int, buf []int) []int {
	start := len(buf)
	buf = r.appendAllFingers(u, buf)
	uID := r.ID(u)
	predID := r.ID((u + r.n - 1) % r.n)
	mask := r.space - 1
	for k := 0; k < r.bits; k++ {
		s := uint64(1) << uint(k)
		buf = r.appendOwnersIn((predID-s)&mask, (uID-s)&mask, buf)
	}
	// Ring links: the successor edge is always present even when finger
	// dedup removed it, and symmetrically u is its predecessor's successor.
	if s := (u + 1) % r.n; s != u {
		buf = append(buf, s, (u+r.n-1)%r.n)
	}
	// Sort, dedup, drop u (the reverse-finger query can return u itself
	// when a shift maps u's own identifier back into its arc).
	row := buf[start:]
	sort.Ints(row)
	w := 0
	for _, v := range row {
		if v != u && (w == 0 || v != row[w-1]) {
			row[w] = v
			w++
		}
	}
	return buf[:start+w]
}

// materializedLists is the historical construction of the ring's
// communication graph: append every finger edge (and the successor link)
// from both endpoints, then sort and deduplicate each list.
func materializedLists(r *Ring) [][]int {
	lists := make([][]int, r.n)
	var fbuf []int
	for i := 0; i < r.n; i++ {
		fbuf = r.appendAllFingers(i, fbuf[:0])
		for _, f := range fbuf {
			lists[i] = append(lists[i], f)
			lists[f] = append(lists[f], i)
		}
		// Successor link always present even if finger dedup removed it.
		if s := (i + 1) % r.n; s != i {
			lists[i] = append(lists[i], s)
			lists[s] = append(lists[s], i)
		}
	}
	// Mutual fingers insert each edge twice; normalise.
	for u, ns := range lists {
		slices.Sort(ns)
		lists[u] = slices.Compact(ns)
	}
	return lists
}

// assertGraphsEqual checks every node's fingers against the reference
// finger scan, and the CSR graph's rows against the implicit reference
// and the materialized lists.
func assertGraphsEqual(t testing.TB, r *Ring) {
	t.Helper()
	g := r.Graph()
	mat := materializedLists(r)
	if g.N() != len(mat) {
		t.Fatalf("n=%d: N differs: %d vs %d", r.N(), g.N(), len(mat))
	}
	var buf, ref, fs, all []int
	degrees := 0
	for u := 0; u < r.N(); u++ {
		fs = r.appendFingers(u, fs[:0])
		for j := 1; j < len(fs); j++ {
			if r.dist(r.ID(u), r.ID(fs[j])) <= r.dist(r.ID(u), r.ID(fs[j-1])) {
				t.Fatalf("n=%d u=%d: fingers %v not strictly clockwise", r.N(), u, fs)
			}
		}
		all = r.appendAllFingers(u, all[:0])
		slices.Sort(all)
		sorted := slices.Clone(fs)
		slices.Sort(sorted)
		if !slices.Equal(sorted, slices.Compact(all)) {
			t.Fatalf("n=%d u=%d: fingers %v, the full scan's %v", r.N(), u, sorted, all)
		}
		buf = g.NeighborsInto(u, buf)
		ref = r.appendGraphNeighbors(u, ref[:0])
		want := mat[u]
		degrees += len(want)
		if !slices.Equal(buf, want) || !slices.Equal(ref, want) {
			t.Fatalf("n=%d u=%d: neighbours differ: CSR %v, implicit %v, materialized %v", r.N(), u, buf, ref, want)
		}
		for _, v := range want {
			if v == u || !slices.Contains(mat[v], u) {
				t.Fatalf("n=%d: reference edge (%d,%d) is a self-loop or not symmetric", r.N(), u, v)
			}
		}
	}
	if g.NumEdges() != degrees/2 {
		t.Fatalf("n=%d: edges %d vs %d", r.N(), g.NumEdges(), degrees/2)
	}
}

func TestImplicitGraphMatchesMaterialized(t *testing.T) {
	for _, placement := range []Placement{Even, Hashed} {
		for _, tc := range []struct{ n, bits int }{
			{2, 40}, {3, 40}, {5, 40}, {64, 40}, {1000, 40}, {4097, 40},
			// Tight identifier spaces stress wraparound intervals and
			// rounding (step does not divide space).
			{5, 3}, {64, 8}, {1000, 12}, {4097, 13},
		} {
			r := MustNew(tc.n, Options{Bits: tc.bits, Placement: placement, Seed: 0xfeed})
			t.Run(fmt.Sprintf("p%d/n%d/b%d", placement, tc.n, tc.bits), func(t *testing.T) {
				assertGraphsEqual(t, r)
			})
		}
	}
}

// FuzzChordGraphMatchesReference compares the CSR graph with both
// references on fuzzed ring sizes, identifier widths (down to the
// tightest space that holds n), placements and identifier seeds.
func FuzzChordGraphMatchesReference(f *testing.F) {
	f.Add(uint16(5), uint8(3), false, uint64(1))
	f.Add(uint16(64), uint8(40), true, uint64(0xfeed))
	f.Add(uint16(1000), uint8(12), true, uint64(7))
	f.Add(uint16(257), uint8(9), false, uint64(3))
	f.Fuzz(func(t *testing.T, size uint16, width uint8, hashed bool, seed uint64) {
		n := 2 + int(size)%1500
		minBits := 1
		for 1<<minBits < n {
			minBits++
		}
		opts := Options{Bits: minBits + int(width)%(63-minBits), Seed: seed}
		if hashed {
			opts.Placement = Hashed
		}
		assertGraphsEqual(t, MustNew(n, opts))
	})
}

// The closed-form Even successor must agree with binary search over the
// explicit identifier array for every identifier in a small space.
func TestEvenSuccessorClosedForm(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 64, 100} {
		bits := 10
		r := MustNew(n, Options{Bits: bits})
		space := uint64(1) << uint(bits)
		for id := uint64(0); id < space; id++ {
			got := r.SuccessorOf(id)
			// Reference: first node (clockwise, wrapping to 0) whose
			// identifier is >= id.
			want := 0
			for i := 0; i < n; i++ {
				if r.ID(i) >= id {
					want = i
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d id=%d: SuccessorOf = %d, want %d", n, id, got, want)
			}
		}
	}
}
