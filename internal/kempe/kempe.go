// Package kempe implements the two uniform-gossip baselines of Kempe,
// Dobra and Gehrke (FOCS 2003) that the experiments compare DRR-gossip
// against, as DRR-gossip's Phase III on the singleton forest: every node
// is its own root, so the root-level gossip of internal/gossip becomes
// gossip among all n nodes. That is the whole difference the paper makes
// — DRR-gossip runs the same push-sum and push-max among its
// O(n/log n) tree roots.
//
// PushSum computes the Average on the complete graph (Table 1). Every
// node gossips every round, so the protocol is address-oblivious, takes
// O(log n) rounds, and uses Θ(n log n) messages — time-optimal but a
// log n / log log n factor more messages than DRR-gossip (and, by
// Theorem 15, message-optimal among address-oblivious algorithms).
//
// PushMaxOnChord computes the Max on Chord, routing each gossip message
// with the overlay's O(log n)-hop protocol. That gives the O(log^2 n)
// time and O(n log^2 n) messages that Section 4 contrasts with
// DRR-gossip's O(n log n) messages on Chord.
package kempe

import (
	"fmt"
	"math"

	"drrgossip/internal/chord"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// Result reports a baseline run.
type Result struct {
	// Estimates is each node's final estimate (NaN for crashed nodes).
	Estimates []float64
	// S and W are the final push-sum components (nil for Push-Max); with
	// zero loss they satisfy ΣS = Σ values and ΣW = number of alive nodes.
	S, W []float64
}

// singletons is the forest of n one-node trees: node i is the root in
// slot i. Initially-crashed nodes are roots too, so a node a fault plan
// revives gossips again, as a uniform-gossip node does.
func singletons(n int) *forest.Forest {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = forest.Root
	}
	f, err := forest.FromParents(parent)
	if err != nil {
		panic(err) // a forest of roots has no cycle and no dangling parent
	}
	return f
}

// PushSum runs the Push-Sum protocol for the Average: every node keeps
// (s, w), halves both each round, keeps one half and sends the other to a
// uniformly random node; s/w converges to the global average at every
// node in O(log n + log 1/ε) rounds. It is gossip.Ave over the relay
// transport on the singleton forest, where each node relays to itself.
//
// A share aimed at a crashed node is retained (the call is never
// established); a share lost to link failure destroys mass, exactly as
// in the DRR-gossip Phase III analysis.
func PushSum(eng *sim.Engine, values []float64) (*Result, error) {
	n := eng.N()
	if len(values) != n {
		return nil, fmt.Errorf("kempe: %d values for %d nodes", len(values), n)
	}
	self := make([]int, n)
	s0, w0 := make([]float64, n), make([]float64, n)
	for i := range self {
		self[i] = i
		if eng.Alive(i) {
			s0[i], w0[i] = values[i], 1
		}
	}
	tr, err := gossip.Relay(eng, singletons(n), self)
	if err != nil {
		return nil, err
	}
	ave, err := gossip.Ave(tr, s0, w0, gossip.AveOptions{TrackRoot: -1})
	if err != nil {
		return nil, err
	}
	res := &Result{Estimates: ave.Estimates, S: ave.Sums, W: ave.Weights}
	for i := range res.Estimates {
		if !eng.Alive(i) {
			res.Estimates[i] = math.NaN()
		}
	}
	return res, nil
}

// PushMaxOnChord runs push gossip for Max: every round every node sends
// its current maximum to a uniform random node, routed over the Chord
// overlay by the sampling protocol. It is gossip.Push over the Chord
// route transport on the singleton forest, for the relay's loss-inflated
// 2⌈log2 n⌉+12 iterations.
// Time O(log^2 n), messages O(n log^2 n).
func PushMaxOnChord(eng *sim.Engine, ring *chord.Ring, values []float64) (*Result, error) {
	n := eng.N()
	if len(values) != n {
		return nil, fmt.Errorf("kempe: %d values for %d nodes", len(values), n)
	}
	if ring.N() != n {
		return nil, fmt.Errorf("kempe: ring has %d nodes, engine %d", ring.N(), n)
	}
	if eng.NumAlive() != n {
		return nil, fmt.Errorf("kempe: chord baseline requires all nodes alive")
	}
	est := append([]float64(nil), values...)
	tr := gossip.Route(eng, overlay.NewChord(ring), singletons(n))
	if err := gossip.Push(tr, est, gossip.LossInflate(2*sim.CeilLog2(n)+12, eng)); err != nil {
		return nil, err
	}
	return &Result{Estimates: est}, nil
}
