// Package drrapps explores the paper's closing question (§6): "whether
// the DRR technique can be used to obtain improved bounds for other
// distributed computing problems". It applies the DRR-gossip machinery
// to two classic problems:
//
//   - Leader election: every node learns the address of a single common
//     leader, in O(log n) rounds and O(n log log n) messages — run
//     DRR-gossip-max over the (rank, id) keys the DRR phase already drew,
//     then disseminate. The elected leader is the globally
//     highest-ranked node, which is necessarily a DRR root (it can find
//     no higher-ranked node to connect to).
//
//   - Spanning structure: a two-level spanning forest of the complete
//     graph — the DRR trees plus a star over their roots centred at the
//     leader — built with the same message budget. Every node ends up
//     with a parent pointer (the leader with none), giving an O(log n)-
//     depth tree usable for broadcast/aggregation afterwards.
package drrapps

import (
	"fmt"
	"math"

	"drrgossip/internal/drr"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

// ElectionResult reports a leader election.
type ElectionResult struct {
	// Leader is the elected node (the globally highest DRR rank).
	Leader int
	// PerNode is each node's belief about the leader (-1 for crashed
	// nodes).
	PerNode []int
	// Consensus reports whether every surviving node agrees.
	Consensus bool
	Forest    *forest.Forest
	Stats     sim.Counters
}

// electKey packs (rank, id) into one float64 so Gossip-max elects the
// highest-ranked node with id as tiebreaker: rank is quantized to 2^26
// levels and the id occupies the low 24 bits (exact for n < 2^24).
func electKey(rank float64, id int) float64 {
	q := math.Floor(rank * (1 << 26))
	return q*(1<<24) + float64(id)
}

func decodeElectKey(key float64) int {
	return int(int64(key) & (1<<24 - 1))
}

// ElectLeader elects the highest-DRR-ranked node as the common leader:
// DRR-gossip-max over each member's (rank, id) key, with the keys drawn
// by Phase I itself. Each tree's candidate is its highest rank, which is
// the root's own rank by the DRR invariant.
func ElectLeader(eng *sim.Engine) (*ElectionResult, error) {
	n := eng.N()
	keys := make([]float64, n)
	res, err := drrgossip.RunForest(eng, func(eng *sim.Engine) (*forest.Forest, []int, error) {
		dres, err := drr.Run(eng, drr.Options{})
		if err != nil {
			return nil, nil, err
		}
		for i := range keys {
			if dres.Forest.Member(i) {
				keys[i] = electKey(dres.Ranks[i], i)
			}
		}
		return dres.Forest, nil, nil
	}, drrgossip.Max, keys)
	if err != nil {
		return nil, err
	}

	// Every root keeps its own Gossip-max estimate, so the largest
	// member value is the largest root estimate: the winning key.
	maxKey := math.Inf(-1)
	for _, v := range res.PerNode {
		if v > maxKey {
			maxKey = v
		}
	}
	leader := decodeElectKey(maxKey)
	perNode := make([]int, n)
	consensus := true
	for i := 0; i < n; i++ {
		if !res.Forest.Member(i) {
			perNode[i] = -1
			continue
		}
		perNode[i] = decodeElectKey(res.PerNode[i])
		if perNode[i] != leader {
			consensus = false
		}
	}
	return &ElectionResult{
		Leader:    leader,
		PerNode:   perNode,
		Consensus: consensus,
		Forest:    res.Forest,
		Stats:     res.Stats,
	}, nil
}

// SpanningResult reports a spanning-structure construction.
type SpanningResult struct {
	// Parent is a spanning tree of the surviving nodes: Parent[i] is the
	// tree parent, forest.Root for the leader, forest.NotMember for
	// crashed nodes.
	Parent []int
	Leader int
	// Depth is the tree's height (O(log n): DRR tree height plus one
	// star level).
	Depth int
	Stats sim.Counters
}

// BuildSpanningTree builds a spanning tree of the surviving nodes: DRR
// trees with every non-leader root adopted by the leader.
func BuildSpanningTree(eng *sim.Engine) (*SpanningResult, error) {
	start := eng.Stats()
	el, err := ElectLeader(eng)
	if err != nil {
		return nil, err
	}
	if !el.Consensus {
		return nil, fmt.Errorf("drrapps: no leader consensus")
	}
	f := el.Forest
	n := eng.N()
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		switch {
		case !f.Member(i):
			parent[i] = forest.NotMember
		case i == el.Leader:
			parent[i] = forest.Root
		case f.IsRoot(i):
			// Non-leader roots attach to the leader (they know its
			// address from the election broadcast). One registration
			// call each: O(n/log n) messages.
			parent[i] = el.Leader
			eng.Send(i, el.Leader, sim.Payload{Kind: 0x91, X: int64(i)})
		default:
			parent[i] = f.Parent(i)
		}
	}
	eng.Tick()
	// The leader is a DRR root (it outranks every probe); its own tree
	// keeps its original parent pointers.
	span, err := forest.FromParents(parent)
	if err != nil {
		return nil, fmt.Errorf("drrapps: invalid spanning tree: %w", err)
	}
	if span.NumTrees() != 1 {
		return nil, fmt.Errorf("drrapps: expected one spanning tree, got %d", span.NumTrees())
	}
	return &SpanningResult{
		Parent: parent,
		Leader: el.Leader,
		Depth:  span.MaxHeight(),
		Stats:  eng.Stats().Sub(start),
	}, nil
}
