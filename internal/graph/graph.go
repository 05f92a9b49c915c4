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
// Every Graph is stored as CSR: one flat []int32 neighbour array plus
// int64 row offsets, 8 + 4·d bytes per vertex of degree d. Every
// generator (and chord.Ring.Graph) fills it through Build from an edge
// enumerator. A Graph is immutable once built and safe for concurrent
// readers: no query writes to it.
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

// Graph is an immutable simple undirected graph on vertices 0..n-1,
// stored as CSR.
type Graph struct {
	name string
	n    int
	off  []int64 // row offsets, len n+1
	csr  []int32 // rows laid end to end, each sorted
}

// Build packs the simple undirected graph on n vertices whose edges the
// enumerator emits into CSR storage. Build calls edges twice, once to
// count each vertex's degree and once to fill the rows, so it must emit
// the same edges both times. Each emitted edge {u, v} must have u != v;
// it is written at both of its ends, and an edge emitted more than once
// is kept once. The rows keep the storage the fill pass sized, spare
// slots for the duplicates included.
func Build(name string, n int, edges func(emit func(u, v int))) *Graph {
	if n > math.MaxInt32 {
		panic("graph: CSR storage limited to 2^31-1 vertices")
	}
	off := make([]int64, n+1)
	edges(func(u, v int) {
		off[u+1]++
		off[v+1]++
	})
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	csr := make([]int32, off[n])
	next := slices.Clone(off[:n])
	edges(func(u, v int) {
		csr[next[u]] = int32(v)
		next[u]++
		csr[next[v]] = int32(u)
		next[v]++
	})
	// Sort and dedup each row in its slot (next[u] becomes its length),
	// then close the gaps the duplicates left.
	parallelFor(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := csr[off[u]:off[u+1]]
			slices.Sort(row)
			next[u] = int64(len(slices.Compact(row)))
		}
	})
	w := int64(0)
	for u := 0; u < n; u++ {
		start := off[u]
		off[u] = w
		w += int64(copy(csr[w:], csr[start:start+next[u]]))
	}
	off[n] = w
	return &Graph{name: name, n: n, off: off, csr: csr[:w]}
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
	if _, err := validateLists(name, lists); err != nil {
		return nil, err
	}
	return Build(name, len(lists), func(emit func(u, v int)) {
		for u, ns := range lists {
			for _, v := range ns {
				if u < v {
					emit(u, v)
				}
			}
		}
	}), nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.csr) / 2 }

// Name returns the generator name (for reports).
func (g *Graph) Name() string { return g.name }

// NeighborsInto appends vertex u's sorted neighbour list to buf[:0] and
// returns the extended buffer.
func (g *Graph) NeighborsInto(u int, buf []int) []int {
	buf = buf[:0]
	for _, v := range g.csr[g.off[u]:g.off[u+1]] {
		buf = append(buf, int(v))
	}
	return buf
}

// Row returns vertex u's sorted neighbour row, a read-only view of the
// graph's storage, and the position of its first entry among the
// 2·NumEdges directed edges (rows laid end to end), so per-edge state
// fits one flat array indexed by first + i.
func (g *Graph) Row(u int) (first int, row []int32) {
	lo, hi := g.off[u], g.off[u+1]
	return int(lo), g.csr[lo:hi:hi]
}

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.csr[g.off[u]:g.off[u+1]], int32(v))
	return ok
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

// Ring returns the n-cycle (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n >= 3")
	}
	return Build(fmt.Sprintf("ring(%d)", n), n, func(emit func(u, v int)) {
		for u := 0; u < n; u++ {
			emit(u, (u+1)%n)
		}
	})
}

// Star returns the star graph (vertex 0 is the hub, n >= 2).
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star needs n >= 2")
	}
	return Build(fmt.Sprintf("star(%d)", n), n, func(emit func(u, v int)) {
		for v := 1; v < n; v++ {
			emit(0, v)
		}
	})
}

// Torus returns the rows x cols wraparound grid (rows, cols >= 3, hence
// 4-regular).
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs rows, cols >= 3")
	}
	return Build(fmt.Sprintf("torus(%dx%d)", rows, cols), rows*cols, func(emit func(u, v int)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				u := r*cols + c
				emit(u, ((r+1)%rows)*cols+c)
				emit(u, r*cols+(c+1)%cols)
			}
		}
	})
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices
// (1 <= dim <= 30).
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 30 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << dim
	return Build(fmt.Sprintf("hypercube(%d)", dim), n, func(emit func(u, v int)) {
		for u := 0; u < n; u++ {
			for b := 0; b < dim; b++ {
				if v := u ^ (1 << b); u < v {
					emit(u, v)
				}
			}
		}
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

	g := Build(fmt.Sprintf("regular(%d,d=%d)", n, d), n, func(emit func(u, v int)) {
		for _, e := range edges {
			emit(e.u, e.v)
		}
	})
	if g.NumEdges() != len(edges) {
		// A repair re-created an edge that was still present.
		return nil, ErrRegularFailed
	}
	return g, nil
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
	// Repeated-endpoint list, one pair per edge: sampling an index
	// uniformly samples a vertex with probability proportional to its
	// degree.
	var endpoints []int
	addEdge := func(u, v int) { endpoints = append(endpoints, u, v) }
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
	return Build(fmt.Sprintf("ba(%d,m=%d)", n, m), n, func(emit func(u, v int)) {
		for i := 0; i < len(endpoints); i += 2 {
			emit(endpoints[i], endpoints[i+1])
		}
	})
}

// SmallWorld samples a Newman–Watts small-world graph: the ring lattice
// C(n, k) (every vertex linked to its k nearest neighbours on each side)
// plus, per vertex, a uniform random shortcut added with probability
// beta. Unlike Watts–Strogatz rewiring, the lattice stays intact, so the
// graph is always connected; the shortcuts give the O(log n) diameter
// that makes routed root-gossip cheap. Requires k >= 1, n >= 2k+2 and
// beta in [0,1].
//
// Every vertex draws its shortcut from its own derived stream
// (xrand.DeriveStream(seed, 0x5311, n, k, u)), so the decisions are
// independent and are drawn in parallel over GOMAXPROCS with
// bit-identical output at any parallelism.
func SmallWorld(n, k int, beta float64, seed uint64) *Graph {
	if k < 1 || n < 2*k+2 {
		panic("graph: SmallWorld needs k >= 1 and n >= 2k+2")
	}
	if beta < 0 || beta > 1 {
		panic("graph: SmallWorld needs beta in [0,1]")
	}
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
	return Build(fmt.Sprintf("smallworld(%d,k=%d)", n, k), n, func(emit func(u, v int)) {
		for u, v := range shortcut {
			for d := 1; d <= k; d++ {
				emit(u, (u+d)%n)
			}
			if v >= 0 {
				emit(u, int(v))
			}
		}
	})
}

// ErdosRenyi samples G(n, p) using geometric edge skipping, which runs in
// O(n + |E|) expected time.
func ErdosRenyi(n int, p float64, seed uint64) *Graph {
	if n < 1 {
		panic("graph: ErdosRenyi needs n >= 1")
	}
	if p < 0 || p > 1 {
		panic("graph: ErdosRenyi needs p in [0,1]")
	}
	// Build runs the enumerator twice; each run replays the same stream.
	return Build(fmt.Sprintf("gnp(%d,p=%.4g)", n, p), n, func(emit func(u, v int)) {
		if p == 0 {
			return
		}
		rng := xrand.Derive(seed, 0xe12, uint64(n))
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
			emit(curU, curU+1+int(idx-consumed))
		}
		total := int64(n) * int64(n-1) / 2
		if p >= 1 {
			for i := int64(0); i < total; i++ {
				addEdge(i)
			}
			return
		}
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
				return
			}
			addEdge(i)
		}
	})
}
