// Package graph provides the sparse-topology substrate for Section 4 of
// the paper (Local-DRR and gossip on arbitrary graphs): deterministic
// generators for standard topologies, adjacency queries, and structural
// invariants (connectivity, regularity, the harmonic degree sum of
// Theorem 13).
//
// All graphs are simple (no self-loops, no parallel edges) and undirected,
// with sorted neighbour lists for deterministic iteration.
//
// # Memory model
//
// A Graph carries exactly one of two storage representations, both
// serving the same query API with element-identical neighbour lists:
//
//   - implicit: Degree/Neighbors are computed on the fly from a closed
//     form (Ring, Complete, Star, Torus, Hypercube — and Chord via
//     chord.Ring). Zero bytes of adjacency at any n.
//   - CSR: one flat []int32 neighbour array plus int64 row offsets
//     (generated topologies that must be materialized: SmallWorld,
//     RandomRegular, BarabasiAlbert, ErdosRenyi). ~4 bytes per directed
//     edge instead of a 24-byte slice header plus 8 bytes per entry.
//
// Neighbors(u) fills an internal scratch buffer:
// the result is valid until the next Neighbors call on the same Graph
// and must be treated as read-only. Callers that hold neighbour lists
// across calls, or iterate from several goroutines, must use
// NeighborsInto with a buffer they own. Degree and HasEdge never disturb
// the Neighbors scratch (they use a second, private scratch), so the
// common pattern "ns := g.Neighbors(u); for _, v := range ns {
// g.HasEdge(v, u) }" stays valid.
package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"drrgossip/internal/xrand"
)

// Graph is an immutable simple undirected graph on vertices 0..n-1.
//
// Query methods share scratch buffers across calls (see the package
// comment), so concurrent readers must go through NeighborsInto.
type Graph struct {
	name string
	n    int

	// Exactly one representation is populated.
	off  []int64                      // CSR row offsets, len n+1
	csr  []int32                      // CSR flat neighbour array
	fill func(u int, buf []int) []int // implicit: append u's sorted neighbours
	deg  func(u int) int              // implicit: O(1) degree, may be nil

	m        int // undirected edge count; -1 = compute lazily (implicit)
	scratch  []int
	scratch2 []int
}

// ImplicitSpec describes an implicit (zero-storage) graph for
// NewImplicit.
type ImplicitSpec struct {
	// N is the vertex count.
	N int
	// Fill appends vertex u's neighbours to buf in strictly increasing
	// order, without self-loops or duplicates, and returns the extended
	// buffer. It must be pure (same output for same u) and safe for
	// concurrent calls with distinct buffers.
	Fill func(u int, buf []int) []int
	// Degree returns vertex u's degree in O(1); nil makes Degree fall
	// back to counting Fill's output.
	Degree func(u int) int
	// Edges is the undirected edge count, or -1 to compute it lazily
	// from the degrees on first NumEdges call.
	Edges int
}

// NewImplicit wraps a closed-form neighbour function as a Graph. The
// spec's Fill output is trusted (generators are correct by construction
// and covered by cross-representation goldens); it is not re-validated.
func NewImplicit(name string, spec ImplicitSpec) *Graph {
	if spec.N < 0 || spec.Fill == nil {
		panic("graph: NewImplicit needs N >= 0 and a Fill function")
	}
	return &Graph{name: name, n: spec.N, fill: spec.Fill, deg: spec.Degree, m: spec.Edges}
}

// validateLists checks that adjacency lists are in-range, strictly
// sorted (hence self-loop- and duplicate-free once combined with the
// range check), symmetric, and of even total degree; it returns the
// undirected edge count.
func validateLists(name string, adj [][]int) (int, error) {
	n := len(adj)
	hasEdge := func(u, v int) bool {
		ns := adj[u]
		i := sort.SearchInts(ns, v)
		return i < len(ns) && ns[i] == v
	}
	m := 0
	for u, ns := range adj {
		prev := -1
		for _, v := range ns {
			if v < 0 || v >= n {
				return 0, fmt.Errorf("graph %s: vertex %d has out-of-range neighbour %d", name, u, v)
			}
			if v == u {
				return 0, fmt.Errorf("graph %s: self-loop at %d", name, u)
			}
			if v <= prev {
				return 0, fmt.Errorf("graph %s: neighbours of %d not strictly sorted", name, u)
			}
			prev = v
			m++
		}
	}
	if m%2 != 0 {
		return 0, fmt.Errorf("graph %s: odd total degree", name)
	}
	for u, ns := range adj {
		for _, v := range ns {
			if !hasEdge(v, u) {
				return 0, fmt.Errorf("graph %s: edge (%d,%d) not symmetric", name, u, v)
			}
		}
	}
	return m / 2, nil
}

// packCSR converts validated adjacency lists to the CSR representation.
func packCSR(name string, n, m int, lists [][]int) *Graph {
	if n > math.MaxInt32 {
		panic("graph: CSR storage limited to 2^31-1 vertices")
	}
	off := make([]int64, n+1)
	for u, ns := range lists {
		off[u+1] = off[u] + int64(len(ns))
	}
	csr := make([]int32, off[n])
	for u, ns := range lists {
		row := csr[off[u]:off[u+1]]
		for i, v := range ns {
			row[i] = int32(v)
		}
	}
	return &Graph{name: name, n: n, off: off, csr: csr, m: m}
}

// fromLists validates adjacency lists and packs them into CSR storage.
// The caller's lists are not retained.
func fromLists(name string, lists [][]int) (*Graph, error) {
	m, err := validateLists(name, lists)
	if err != nil {
		return nil, err
	}
	return packCSR(name, len(lists), m, lists), nil
}

// mustFromLists is for generators whose construction is correct by
// design.
func mustFromLists(name string, lists [][]int) *Graph {
	g, err := fromLists(name, lists)
	if err != nil {
		panic(err)
	}
	return g
}

// FromAdjacency validates caller-provided adjacency lists and copies
// them into compact CSR storage. The caller's slices are sorted copies —
// they are neither mutated nor retained, so later caller writes cannot
// corrupt the graph (historically this wrapped and sorted the slices in
// place).
func FromAdjacency(name string, adj [][]int) (*Graph, error) {
	lists := make([][]int, len(adj))
	for u, ns := range adj {
		lists[u] = append([]int(nil), ns...)
		sort.Ints(lists[u])
	}
	return fromLists(name, lists)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges. On implicit graphs
// built without an edge count it sums the degrees on first call and
// caches the result (not safe to race with other queries).
func (g *Graph) NumEdges() int {
	if g.m < 0 {
		total := 0
		for u := 0; u < g.n; u++ {
			total += g.Degree(u)
		}
		g.m = total / 2
	}
	return g.m
}

// Name returns the generator name (for reports).
func (g *Graph) Name() string { return g.name }

// Neighbors returns vertex u's sorted neighbour list. The caller must
// not modify it, and it is only valid until the next Neighbors call on g (Degree and HasEdge do not invalidate it);
// use NeighborsInto to hold lists across calls or read concurrently.
func (g *Graph) Neighbors(u int) []int {
	g.scratch = g.NeighborsInto(u, g.scratch)
	return g.scratch
}

// NeighborsInto appends vertex u's sorted neighbour list to buf[:0] and
// returns the extended buffer. It is safe for concurrent use with
// distinct buffers on every representation — the scratch-free way to
// iterate adjacency from parallel workers.
func (g *Graph) NeighborsInto(u int, buf []int) []int {
	buf = buf[:0]
	switch {
	case g.off != nil:
		for _, v := range g.csr[g.off[u]:g.off[u+1]] {
			buf = append(buf, int(v))
		}
		return buf
	default:
		return g.fill(u, buf)
	}
}

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int {
	switch {
	case g.off != nil:
		return int(g.off[u+1] - g.off[u])
	case g.deg != nil:
		return g.deg(u)
	default:
		g.scratch2 = g.fill(u, g.scratch2[:0])
		return len(g.scratch2)
	}
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	switch {
	case g.off != nil:
		row := g.csr[g.off[u]:g.off[u+1]]
		i, ok := slices.BinarySearch(row, int32(v))
		return ok && i < len(row)
	default:
		g.scratch2 = g.fill(u, g.scratch2[:0])
		i := sort.SearchInts(g.scratch2, v)
		return i < len(g.scratch2) && g.scratch2[i] == v
	}
}

// MaxDegree returns the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if du := g.Degree(u); du > d {
			d = du
		}
	}
	return d
}

// MinDegree returns the minimum degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if du := g.Degree(u); du < d {
			d = du
		}
	}
	return d
}

// Regular reports whether all vertices share one degree, and that degree.
func (g *Graph) Regular() (d int, ok bool) {
	d = g.MaxDegree()
	return d, d == g.MinDegree()
}

// HarmonicDegreeSum returns Σ_i 1/(d_i + 1), the expected number of
// Local-DRR trees (Theorem 13).
func (g *Graph) HarmonicDegreeSum() float64 {
	s := 0.0
	for u := 0; u < g.n; u++ {
		s += 1 / float64(g.Degree(u)+1)
	}
	return s
}

// BFS returns the hop distance from src to every vertex (-1 if
// unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var nbuf []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbuf = g.NeighborsInto(u, nbuf)
		for _, v := range nbuf {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns max_v dist(src, v); it panics if the graph is
// disconnected from src.
func (g *Graph) Eccentricity(src int) int {
	e := 0
	for _, d := range g.BFS(src) {
		if d < 0 {
			panic("graph: Eccentricity on disconnected graph")
		}
		if d > e {
			e = d
		}
	}
	return e
}

// parallelFloor is the vertex count below which builders skip goroutine
// fan-out (a variable so construction tests can force the parallel path).
var parallelFloor = 1 << 14

// parallelFor runs body over contiguous chunks of [0, n) on up to
// GOMAXPROCS goroutines. Chunks are disjoint, so builders whose chunk
// work touches only chunk-owned state are bit-identical for any degree
// of parallelism (the same contract the simulator's sharded Tick keeps).
func parallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && n >= parallelFloor {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	body(0, n)
}

// Ring returns the n-cycle (n >= 3) as an implicit graph.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n >= 3")
	}
	return NewImplicit(fmt.Sprintf("ring(%d)", n), ImplicitSpec{
		N:      n,
		Edges:  n,
		Degree: func(int) int { return 2 },
		Fill: func(u int, buf []int) []int {
			a, b := (u+n-1)%n, (u+1)%n
			if a > b {
				a, b = b, a
			}
			return append(buf, a, b)
		},
	})
}

// Complete returns the complete graph K_n (n >= 2) as an implicit graph.
func Complete(n int) *Graph {
	if n < 2 {
		panic("graph: Complete needs n >= 2")
	}
	return NewImplicit(fmt.Sprintf("complete(%d)", n), ImplicitSpec{
		N:      n,
		Edges:  n * (n - 1) / 2,
		Degree: func(int) int { return n - 1 },
		Fill: func(u int, buf []int) []int {
			for j := 0; j < n; j++ {
				if j != u {
					buf = append(buf, j)
				}
			}
			return buf
		},
	})
}

// Star returns the star graph (vertex 0 is the hub, n >= 2) as an
// implicit graph.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star needs n >= 2")
	}
	return NewImplicit(fmt.Sprintf("star(%d)", n), ImplicitSpec{
		N:     n,
		Edges: n - 1,
		Degree: func(u int) int {
			if u == 0 {
				return n - 1
			}
			return 1
		},
		Fill: func(u int, buf []int) []int {
			if u == 0 {
				for v := 1; v < n; v++ {
					buf = append(buf, v)
				}
				return buf
			}
			return append(buf, 0)
		},
	})
}

// Torus returns the rows x cols wraparound grid (rows, cols >= 3, hence
// 4-regular) as an implicit graph.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs rows, cols >= 3")
	}
	n := rows * cols
	return NewImplicit(fmt.Sprintf("torus(%dx%d)", rows, cols), ImplicitSpec{
		N:      n,
		Edges:  2 * n,
		Degree: func(int) int { return 4 },
		Fill: func(u int, buf []int) []int {
			r, c := u/cols, u%cols
			// With both sides >= 3 the four wraparound neighbours are
			// always distinct, so a fixed 4-element sort suffices.
			ns := [4]int{
				((r+rows-1)%rows)*cols + c,
				((r+1)%rows)*cols + c,
				r*cols + (c+cols-1)%cols,
				r*cols + (c+1)%cols,
			}
			slices.Sort(ns[:])
			return append(buf, ns[:]...)
		},
	})
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices
// (1 <= dim <= 30) as an implicit graph.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 30 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << dim
	return NewImplicit(fmt.Sprintf("hypercube(%d)", dim), ImplicitSpec{
		N:      n,
		Edges:  n * dim / 2,
		Degree: func(int) int { return dim },
		Fill: func(u int, buf []int) []int {
			start := len(buf)
			for b := 0; b < dim; b++ {
				buf = append(buf, u^(1<<b))
			}
			slices.Sort(buf[start:])
			return buf
		},
	})
}

// ErrRegularFailed is returned when the d-regular sampler cannot repair
// its matching within the attempt budget.
var ErrRegularFailed = errors.New("graph: random regular construction failed; try another seed")

// RandomRegular samples a simple d-regular graph on n vertices via the
// configuration model with edge-switching repair of self-loops and
// parallel edges, stored as CSR. Requires 0 < d < n and n*d even.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d <= 0 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular needs 0 < d < n, got n=%d d=%d", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	rng := xrand.Derive(seed, 0x9e9, uint64(n), uint64(d))

	// Stub pairing.
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	type edge struct{ u, v int }
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	edges := make([]edge, 0, n*d/2)
	seen := make(map[edge]bool, n*d/2)
	var bad []int // indices into edges of invalid pairs
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i < len(stubs); i += 2 {
		e := norm(stubs[i], stubs[i+1])
		edges = append(edges, e)
		if e.u == e.v || seen[e] {
			bad = append(bad, len(edges)-1)
		} else {
			seen[e] = true
		}
	}

	// Repair bad pairs by 2-opt switches with random good edges.
	budget := 200*len(bad) + 10000
	for len(bad) > 0 && budget > 0 {
		budget--
		bi := bad[len(bad)-1]
		b := edges[bi]
		oi := rng.Intn(len(edges))
		o := edges[oi]
		if oi == bi {
			continue
		}
		// Propose rewiring (b.u,b.v),(o.u,o.v) -> (b.u,o.u),(b.v,o.v).
		e1 := norm(b.u, o.u)
		e2 := norm(b.v, o.v)
		if e1.u == e1.v || e2.u == e2.v || seen[e1] || seen[e2] || e1 == e2 {
			continue
		}
		// o must currently be a good (registered) edge.
		if !seen[o] {
			continue
		}
		delete(seen, o)
		if b.u != b.v && seen[b] {
			delete(seen, b)
		}
		seen[e1] = true
		seen[e2] = true
		edges[bi] = e1
		edges[oi] = e2
		bad = bad[:len(bad)-1]
	}
	if len(bad) > 0 {
		return nil, ErrRegularFailed
	}

	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	return fromLists(fmt.Sprintf("regular(%d,d=%d)", n, d), adj)
}

// MustRandomRegular retries RandomRegular over derived seeds until it
// produces a connected graph; it panics only if every attempt fails
// (practically impossible for d >= 3).
func MustRandomRegular(n, d int, seed uint64) *Graph {
	for try := uint64(0); try < 64; try++ {
		g, err := RandomRegular(n, d, seed+try)
		if err == nil && g.Connected() {
			return g
		}
	}
	panic("graph: MustRandomRegular exhausted retries")
}

// adjSets accumulates undirected edges in per-vertex sets — the shared
// scaffolding for generators that sample edges and must dedupe them
// before emitting sorted adjacency lists.
type adjSets []map[int]bool

func newAdjSets(n int) adjSets {
	a := make(adjSets, n)
	for i := range a {
		a[i] = make(map[int]bool)
	}
	return a
}

func (a adjSets) add(u, v int) {
	a[u][v] = true
	a[v][u] = true
}

func (a adjSets) lists() [][]int {
	lists := make([][]int, len(a))
	for u, set := range a {
		lst := make([]int, 0, len(set))
		for v := range set {
			lst = append(lst, v)
		}
		sort.Ints(lst)
		lists[u] = lst
	}
	return lists
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// (m+1)-clique, each new vertex attaches to m distinct existing vertices
// chosen with probability proportional to their degree. The heavy-tailed
// degree distribution stresses the degree-dependent results (Theorem 13's
// Σ 1/(d_i+1), Local-DRR heights) beyond the regular topologies.
// Requires n > m >= 1. Stored as CSR.
func BarabasiAlbert(n, m int, seed uint64) *Graph {
	if m < 1 || n <= m+1 {
		panic("graph: BarabasiAlbert needs n > m+1 and m >= 1")
	}
	rng := xrand.Derive(seed, 0xBA, uint64(n), uint64(m))
	adj := newAdjSets(n)
	// Repeated-endpoint list: sampling an index uniformly samples a vertex
	// with probability proportional to its degree.
	var endpoints []int
	addEdge := func(u, v int) {
		adj.add(u, v)
		endpoints = append(endpoints, u, v)
	}
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			addEdge(u, v)
		}
	}
	for u := m + 1; u < n; u++ {
		chosen := make(map[int]bool, m)
		targets := make([]int, 0, m)
		for len(targets) < m {
			v := endpoints[rng.Intn(len(endpoints))]
			if v != u && !chosen[v] {
				chosen[v] = true
				targets = append(targets, v)
			}
		}
		// Deterministic edge insertion order: the endpoint list feeds
		// later sampling, so it must not depend on map iteration.
		sort.Ints(targets)
		for _, v := range targets {
			addEdge(u, v)
		}
	}
	return mustFromLists(fmt.Sprintf("ba(%d,m=%d)", n, m), adj.lists())
}

// SmallWorld samples a Newman–Watts small-world graph: the ring lattice
// C(n, k) (every vertex linked to its k nearest neighbours on each side)
// plus, per vertex, a uniform random shortcut added with probability
// beta. Unlike Watts–Strogatz rewiring, the lattice stays intact, so the
// graph is always connected; the shortcuts give the O(log n) diameter
// that makes routed root-gossip cheap. Requires k >= 1, n >= 2k+2 and
// beta in [0,1].
//
// Construction is sharded: every vertex draws its shortcut from its own
// derived stream (xrand.DeriveStream(seed, 0x5311, n, k, u)), so the
// decisions are independent and the build parallelises over GOMAXPROCS
// with bit-identical output at any parallelism. Rows are packed straight
// into CSR storage — no per-vertex slices — which is what lets SC1 lift
// the old 3×10^5 small-world ceiling.
func SmallWorld(n, k int, beta float64, seed uint64) *Graph {
	if k < 1 || n < 2*k+2 {
		panic("graph: SmallWorld needs k >= 1 and n >= 2k+2")
	}
	if beta < 0 || beta > 1 {
		panic("graph: SmallWorld needs beta in [0,1]")
	}
	name := fmt.Sprintf("smallworld(%d,k=%d)", n, k)

	// Phase 1 (parallel): per-vertex shortcut decisions.
	shortcut := make([]int32, n)
	parallelFor(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			rng := xrand.DeriveStream(seed, 0x5311, uint64(n), uint64(k), uint64(u))
			if rng.Float64() < beta {
				shortcut[u] = int32(rng.IntnOther(n, u))
			} else {
				shortcut[u] = -1
			}
		}
	})

	// Phase 2 (sequential, O(n)): counting-sort the incoming shortcuts so
	// each vertex can read the shortcuts pointing at it.
	indeg := make([]int32, n)
	for _, v := range shortcut {
		if v >= 0 {
			indeg[v]++
		}
	}
	inOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		inOff[v+1] = inOff[v] + int64(indeg[v])
	}
	inArr := make([]int32, inOff[n])
	cursor := make([]int64, n)
	copy(cursor, inOff[:n])
	for u, v := range shortcut {
		if v >= 0 {
			inArr[cursor[v]] = int32(u)
			cursor[v]++
		}
	}

	// Phase 3 (sequential, O(n)): provisional row offsets with room for
	// lattice edges, the own shortcut and all incoming shortcuts.
	prov := make([]int64, n+1)
	for u := 0; u < n; u++ {
		c := int64(2*k) + int64(indeg[u])
		if shortcut[u] >= 0 {
			c++
		}
		prov[u+1] = prov[u] + c
	}

	// Phase 4 (parallel): fill each row in its provisional slot, then
	// sort and dedupe it in place (duplicates arise when a shortcut hits
	// a lattice edge or mirrors another shortcut).
	tmp := make([]int32, prov[n])
	deg := make([]int32, n)
	parallelFor(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := tmp[prov[u]:prov[u]:prov[u+1]]
			for d := 1; d <= k; d++ {
				row = append(row, int32((u+d)%n), int32((u+n-d)%n))
			}
			if v := shortcut[u]; v >= 0 {
				row = append(row, v)
			}
			row = append(row, inArr[inOff[u]:inOff[u+1]]...)
			slices.Sort(row)
			w := 0
			for i, v := range row {
				if i == 0 || v != row[i-1] {
					row[w] = v
					w++
				}
			}
			deg[u] = int32(w)
		}
	})

	// Phase 5: final offsets and compaction.
	off := make([]int64, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + int64(deg[u])
	}
	csr := make([]int32, off[n])
	parallelFor(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(csr[off[u]:off[u+1]], tmp[prov[u]:prov[u]+int64(deg[u])])
		}
	})
	return &Graph{name: name, n: n, off: off, csr: csr, m: int(off[n] / 2)}
}

// ErdosRenyi samples G(n, p) using geometric edge skipping, which runs in
// O(n + |E|) expected time. Stored as CSR.
func ErdosRenyi(n int, p float64, seed uint64) *Graph {
	if n < 1 {
		panic("graph: ErdosRenyi needs n >= 1")
	}
	if p < 0 || p > 1 {
		panic("graph: ErdosRenyi needs p in [0,1]")
	}
	rng := xrand.Derive(seed, 0xe12, uint64(n))
	adj := make([][]int, n)
	if p > 0 {
		logq := math.Log1p(-p) // log(1-p), p<1
		// addEdge maps a linear index over the strict upper triangle (in
		// row-major order) to a pair (u,v), u<v. Indices arrive in
		// increasing order, so the row cursor advances monotonically and
		// the mapping is amortized O(1).
		curU, consumed := 0, int64(0)
		addEdge := func(idx int64) {
			for idx-consumed >= int64(n-1-curU) {
				consumed += int64(n - 1 - curU)
				curU++
			}
			u := curU
			v := u + 1 + int(idx-consumed)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		total := int64(n) * int64(n-1) / 2
		if p >= 1 {
			for i := int64(0); i < total; i++ {
				addEdge(i)
			}
		} else {
			i := int64(-1)
			for {
				u := rng.Float64()
				skip := int64(1)
				if u > 0 {
					skip = 1 + int64(math.Floor(math.Log(u)/logq))
				}
				if skip < 1 {
					skip = 1
				}
				i += skip
				if i >= total {
					break
				}
				addEdge(i)
			}
		}
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	return mustFromLists(fmt.Sprintf("gnp(%d,p=%.4g)", n, p), adj)
}
