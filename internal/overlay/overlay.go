// Package overlay abstracts the communication substrate of the
// Section 4 sparse pipeline (Local-DRR → routed root-level gossip →
// dissemination) behind a single interface, so the pipeline runs on any
// connected graph instead of only the Chord ring it was written against.
//
// An Overlay bundles the three capabilities the sparse protocols need:
//
//   - a communication graph (Local-DRR exchanges ranks over its edges and
//     the ranking trees are subgraphs of it),
//   - a point-to-point router that turns a "virtual edge" between tree
//     roots into a hop path of real graph edges, and
//   - a random-node sampler (the paper's "choosing a random peer"
//     primitive) whose message cost the routing bill must include.
//
// Chord keeps its native finger-table router and rejection sampler
// (preserving the pre-refactor message accounting exactly); every other
// graph gets the generic landmark-tree router of this package, which
// needs only O(n) state and routes in at most 2·ecc(landmark) hops.
//
// Overlays are built by name through a registry (see registry.go), so a
// new topology is one Register call plus a graph generator.
package overlay

import (
	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Overlay is a pluggable communication substrate for the sparse
// DRR-gossip pipeline.
type Overlay interface {
	// Name identifies the overlay for reports ("chord(1024)", ...).
	Name() string

	// Graph returns the undirected communication graph the overlay is
	// built on. Local-DRR runs on its edges; the result must be the same
	// object on every call (construction happens once).
	Graph() *graph.Graph

	// AppendRoute appends to dst the hop path from node `from` to node
	// `to`, excluding `from` and ending at `to`, and returns the extended
	// buffer; nothing is appended when from == to. Every consecutive pair
	// must be an edge of Graph(). The caller owns dst: implementations
	// never retain it, so one buffer reused across calls makes routing
	// allocation-free.
	AppendRoute(dst []int, from, to int) []int

	// AppendSample draws a (near-)uniform random node using rng, as seen
	// from node `from`. It returns the sampled node, dst extended by the
	// hop path from `from` to it (path[len(dst):], empty when the sample
	// is `from` itself), and the total routing hops spent including
	// rejected attempts — the message cost of the sample, which callers
	// must charge to the network bill. The dst prefix is preserved.
	AppendSample(dst []int, rng *xrand.Stream, from int) (node int, path []int, totalHops int)

	// RouteBound returns an upper bound on the length of any path that
	// AppendRoute or AppendSample can append. The pipeline uses it to
	// size its per-iteration drain window.
	RouteBound() int
}
