package overlay

import (
	"math"

	"drrgossip/internal/chord"
	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Chord adapts a chord.Ring to the Overlay interface, keeping the ring's
// native greedy finger routing and rejection-based random-node sampler —
// the message accounting is bit-for-bit the pre-refactor behaviour.
type Chord struct {
	ring *chord.Ring
	g    *graph.Graph
}

// NewChord wraps a Chord ring as an Overlay. The finger-table graph is
// built once here, as CSR rows.
func NewChord(ring *chord.Ring) *Chord {
	return &Chord{ring: ring, g: ring.Graph()}
}

// Name implements Overlay.
func (c *Chord) Name() string { return c.g.Name() }

// Graph implements Overlay.
func (c *Chord) Graph() *graph.Graph { return c.g }

// AppendRoute implements Overlay via greedy finger routing.
func (c *Chord) AppendRoute(dst []int, from, to int) []int {
	return c.ring.AppendRouteToNode(dst, from, to)
}

// AppendSample implements Overlay via the ring's rejection sampler
// (uniform identifier → owner, arc-bias cancelled by rejection).
func (c *Chord) AppendSample(dst []int, rng *xrand.Stream, from int) (int, []int, int) {
	return c.ring.AppendSample(dst, rng, from)
}

// RouteBound implements Overlay: a greedy Chord route halves the
// remaining identifier distance per hop, so 2·⌈log2 n⌉ bounds it.
func (c *Chord) RouteBound() int {
	return 2 * int(math.Ceil(math.Log2(float64(c.ring.N()))))
}
