package chord

// Cross-representation golden: the implicit communication graph
// (interval-query reverse fingers over closed-form successor arithmetic)
// must be element-identical to materialized [][]int adjacency lists
// built by the historical two-pass construction.

import (
	"fmt"
	"slices"
	"testing"
)

// materializedLists is the historical construction of the ring's
// communication graph: append every finger edge (and the successor link)
// from both endpoints, then sort and deduplicate each list.
func materializedLists(r *Ring) [][]int {
	lists := make([][]int, r.n)
	var fbuf []int
	for i := 0; i < r.n; i++ {
		fbuf = r.appendFingers(i, fbuf[:0])
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

func assertGraphsEqual(t *testing.T, r *Ring) {
	t.Helper()
	imp := r.Graph()
	mat := materializedLists(r)
	if imp.N() != len(mat) {
		t.Fatalf("n=%d: N differs: %d vs %d", r.N(), imp.N(), len(mat))
	}
	var buf []int
	degrees := 0
	for u := 0; u < r.N(); u++ {
		buf = imp.NeighborsInto(u, buf)
		want := mat[u]
		degrees += len(want)
		if !slices.Equal(buf, want) {
			t.Fatalf("n=%d u=%d: neighbours differ: %v vs %v", r.N(), u, buf, want)
		}
		for _, v := range want {
			if v == u || !slices.Contains(mat[v], u) {
				t.Fatalf("n=%d: reference edge (%d,%d) is a self-loop or not symmetric", r.N(), u, v)
			}
		}
	}
	if imp.NumEdges() != degrees/2 {
		t.Fatalf("n=%d: edges %d vs %d", r.N(), imp.NumEdges(), degrees/2)
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
