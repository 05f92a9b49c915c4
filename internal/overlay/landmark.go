package overlay

import (
	"fmt"
	"slices"

	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Landmark is the generic router that turns any connected graph into an
// Overlay: a BFS tree rooted at a central landmark node gives every pair
// of nodes a route through their lowest common ancestor, using O(n)
// state and at most 2·depth hops — the classic landmark/tree-routing
// scheme. Sampling is exactly uniform (the simulator knows the node set,
// matching the paper's assumption of a uniform-sampling primitive whose
// cost is one route).
type Landmark struct {
	g        *graph.Graph
	landmark int
	parent   []int // BFS parent toward the landmark; -1 at the landmark
	depth    []int
	maxDepth int
}

// NewLandmark builds the landmark router for g, which must be connected
// and non-empty. The landmark is the midpoint of a double-sweep
// (approximate-diameter) path, which keeps the tree depth close to
// radius(g) rather than diameter(g).
func NewLandmark(g *graph.Graph) (*Landmark, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("overlay: empty graph %s", g.Name())
	}
	if !g.Connected() {
		return nil, fmt.Errorf("overlay: graph %s is disconnected", g.Name())
	}
	// Double sweep: farthest node u from 0, farthest node v from u; the
	// midpoint of the u–v tree path approximates the graph center.
	du, _ := bfsTree(g, 0)
	u := argmax(du)
	dv, pv := bfsTree(g, u)
	v := argmax(dv)
	mid := v
	for hop := 0; hop < dv[v]/2; hop++ {
		mid = pv[mid]
	}
	depth, parent := bfsTree(g, mid)
	l := &Landmark{g: g, landmark: mid, parent: parent, depth: depth}
	for _, d := range depth {
		if d > l.maxDepth {
			l.maxDepth = d
		}
	}
	return l, nil
}

// bfsTree returns BFS distances and parent pointers from src.
func bfsTree(g *graph.Graph, src int) (dist, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var nbuf []int // own buffer: keeps graph scratch untouched
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbuf = g.NeighborsInto(u, nbuf)
		for _, w := range nbuf {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	return dist, parent
}

func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Name implements Overlay.
func (l *Landmark) Name() string { return l.g.Name() }

// Graph implements Overlay.
func (l *Landmark) Graph() *graph.Graph { return l.g }

// AppendRoute implements Overlay: climb both endpoints to their lowest
// common ancestor in the landmark tree, appending the from-side ascent
// as it goes, then write the to-side descent top-down into the
// depth[to] − depth[lca] slots it needs. Every hop is a tree edge, hence
// a graph edge.
func (l *Landmark) AppendRoute(dst []int, from, to int) []int {
	a, b := from, to
	for l.depth[a] > l.depth[b] {
		a = l.parent[a]
		dst = append(dst, a)
	}
	for l.depth[b] > l.depth[a] {
		b = l.parent[b]
	}
	for a != b {
		a, b = l.parent[a], l.parent[b]
		dst = append(dst, a)
	}
	end := len(dst) + l.depth[to] - l.depth[a]
	dst = slices.Grow(dst, end-len(dst))[:end]
	for b := to; b != a; b = l.parent[b] {
		end--
		dst[end] = b
	}
	return dst
}

// AppendSample implements Overlay: an exactly uniform node, whose cost
// is the one route to it.
func (l *Landmark) AppendSample(dst []int, rng *xrand.Stream, from int) (int, []int, int) {
	j := rng.Intn(l.g.N())
	path := l.AppendRoute(dst, from, j)
	return j, path, len(path) - len(dst)
}

// RouteBound implements Overlay: any LCA route is at most two tree
// depths long.
func (l *Landmark) RouteBound() int { return 2*l.maxDepth + 1 }
