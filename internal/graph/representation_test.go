package graph

// Reference goldens: every generator's CSR rows must be element-identical
// to the historical [][]int builders, replicated here verbatim as
// references.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"drrgossip/internal/xrand"
)

// adjacencyLists materializes g's adjacency through the public API.
func adjacencyLists(g *Graph) [][]int {
	lists := make([][]int, g.N())
	for u := range lists {
		lists[u] = g.NeighborsInto(u, nil)
	}
	return lists
}

// assertSameAdjacency compares g's every query against reference lists.
func assertSameAdjacency(t *testing.T, g *Graph, want [][]int) {
	t.Helper()
	if g.N() != len(want) {
		t.Fatalf("%s: N = %d, want %d", g.Name(), g.N(), len(want))
	}
	edges := 0
	var buf []int
	for u := range want {
		first, row := g.Row(u)
		if first != edges || len(row) != len(want[u]) {
			t.Fatalf("%s: Row(%d) starts at %d with %d entries, want %d and %d", g.Name(), u, first, len(row), edges, len(want[u]))
		}
		for i, v := range row {
			if int(v) != want[u][i] {
				t.Fatalf("%s: Row(%d) = %v, want %v", g.Name(), u, row, want[u])
			}
		}
		edges += len(want[u])
		buf = g.NeighborsInto(u, buf)
		if !equalInts(buf, want[u]) {
			t.Fatalf("%s: NeighborsInto(%d) = %v, want %v", g.Name(), u, buf, want[u])
		}
		if g.Degree(u) != len(want[u]) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", g.Name(), u, g.Degree(u), len(want[u]))
		}
		for _, v := range want[u] {
			if !g.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d,%d) = false", g.Name(), u, v)
			}
		}
		if g.HasEdge(u, u) {
			t.Fatalf("%s: HasEdge(%d,%d) = true", g.Name(), u, u)
		}
	}
	if g.NumEdges() != edges/2 {
		t.Fatalf("%s: NumEdges = %d, want %d", g.Name(), g.NumEdges(), edges/2)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reference builders: the pre-refactor materialized constructions.

func refRing(n int) [][]int {
	adj := make([][]int, n)
	for i := range adj {
		a, b := (i+n-1)%n, (i+1)%n
		if a > b {
			a, b = b, a
		}
		adj[i] = []int{a, b}
	}
	return adj
}

func refStar(n int) [][]int {
	adj := make([][]int, n)
	hub := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		hub = append(hub, i)
		adj[i] = []int{0}
	}
	adj[0] = hub
	return adj
}

func refTorus(rows, cols int) [][]int {
	n := rows * cols
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	adj := make([][]int, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := id(r, c)
			set := map[int]bool{
				id(r-1, c): true, id(r+1, c): true,
				id(r, c-1): true, id(r, c+1): true,
			}
			ns := make([]int, 0, 4)
			for v := range set {
				if v != u {
					ns = append(ns, v)
				}
			}
			sort.Ints(ns)
			adj[u] = ns
		}
	}
	return adj
}

func refHypercube(dim int) [][]int {
	n := 1 << dim
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		ns := make([]int, dim)
		for b := 0; b < dim; b++ {
			ns[b] = u ^ (1 << b)
		}
		sort.Ints(ns)
		adj[u] = ns
	}
	return adj
}

// refSmallWorld is the jagged-slice small-world builder over the same
// per-vertex derived streams the CSR builder consumes.
func refSmallWorld(n, k int, beta float64, seed uint64) [][]int {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			v := (u + d) % n
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	for u := 0; u < n; u++ {
		rng := xrand.DeriveStream(seed, 0x5311, uint64(n), uint64(k), uint64(u))
		if rng.Float64() < beta {
			v := rng.IntnOther(n, u)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	for u, ns := range adj {
		slices.Sort(ns)
		adj[u] = slices.Compact(ns)
	}
	return adj
}

// The closed-form generators, once implicit closures and now CSR built
// from an edge enumerator, must match the materialized references at
// every acceptance-bar size (64, 1000, 4097; nearest valid size where a
// family constrains n).
func TestImplicitMatchesReference(t *testing.T) {
	for _, n := range []int{64, 1000, 4097} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			assertSameAdjacency(t, Ring(n), refRing(n))
			assertSameAdjacency(t, Star(n), refStar(n))
		})
	}
	for _, rc := range [][2]int{{8, 8}, {25, 40}, {17, 241}} {
		assertSameAdjacency(t, Torus(rc[0], rc[1]), refTorus(rc[0], rc[1]))
	}
	for _, dim := range []int{6, 10, 12} {
		assertSameAdjacency(t, Hypercube(dim), refHypercube(dim))
	}
}

func TestSmallWorldCSRMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		beta float64
		seed uint64
	}{
		{64, 2, 0.25, 7}, {1000, 2, 0.25, 7}, {4097, 3, 0.4, 11},
		{64, 1, 1, 3}, {1000, 2, 0, 3},
	} {
		g := SmallWorld(tc.n, tc.k, tc.beta, tc.seed)
		assertSameAdjacency(t, g, refSmallWorld(tc.n, tc.k, tc.beta, tc.seed))
	}
}

// Sharded construction must be bit-identical to the sequential path:
// force fan-out by dropping the floor below n.
func TestSmallWorldParallelDeterministic(t *testing.T) {
	oldFloor := parallelFloor
	defer func() { parallelFloor = oldFloor }()
	n, k, beta := 5000, 2, 0.3
	parallelFloor = 1 << 30 // sequential
	seqLists := adjacencyLists(SmallWorld(n, k, beta, 9))
	parallelFloor = 1 // every build fans out
	assertSameAdjacency(t, SmallWorld(n, k, beta, 9), seqLists)
}

// CSR generators must agree with a [][]int copy of their adjacency: the
// copy validates as a simple symmetric graph with the same edge count,
// and every query on the CSR graph reproduces it.
func TestCSRMatchesJaggedCopy(t *testing.T) {
	for _, g := range []*Graph{
		MustRandomRegular(1000, 4, 7),
		BarabasiAlbert(1000, 3, 9),
		ErdosRenyi(500, 0.02, 11),
	} {
		lists := adjacencyLists(g)
		m, err := validateLists(g.Name(), lists)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if m != g.NumEdges() {
			t.Fatalf("%s: NumEdges = %d, lists hold %d edges", g.Name(), g.NumEdges(), m)
		}
		assertSameAdjacency(t, g, lists)
	}
}

// FromAdjacency must copy: caller mutations after construction cannot
// reach the graph (the historical implementation wrapped the slices).
func TestFromAdjacencyCopiesInput(t *testing.T) {
	adj := [][]int{{2, 1}, {0}, {0}}
	g, err := FromAdjacency("custom", adj)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(g.NeighborsInto(0, nil), []int{1, 2}) {
		t.Fatalf("Neighbors(0) = %v before mutation", g.NeighborsInto(0, nil))
	}
	// Caller scribbles over its slices; the graph must be unaffected.
	adj[0][0] = 99
	adj[0][1] = -5
	adj[1][0] = 77
	if got := g.NeighborsInto(0, nil); !equalInts(got, []int{1, 2}) {
		t.Fatalf("Neighbors(0) = %v after caller mutation, want [1 2]", got)
	}
	if got := g.NeighborsInto(1, nil); !equalInts(got, []int{0}) {
		t.Fatalf("Neighbors(1) = %v after caller mutation, want [0]", got)
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 99) {
		t.Fatal("edge set changed after caller mutation")
	}
	// And the input order must be preserved for the caller (sorted copies,
	// not sorted in place): rebuild from a deliberately unsorted list.
	raw := [][]int{{1, 0}, {}}
	if _, err := FromAdjacency("asym", raw); err == nil {
		t.Fatal("asymmetric input accepted")
	}
	if raw[0][0] != 1 || raw[0][1] != 0 {
		t.Fatalf("FromAdjacency sorted the caller's slice in place: %v", raw[0])
	}
}
