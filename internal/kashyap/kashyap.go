// Package kashyap implements the "efficient gossip" baseline of Kashyap,
// Deb, Naidu, Rastogi and Srinivasan (PODS 2006) — the O(n log log n)
// message, O(log n log log n) time comparator of Table 1.
//
// The original paper is a closed comparator; this is a reconstruction
// from its published contract, which the reproduced paper restates:
// randomly cluster the nodes into groups of size O(log n), then let the
// group representatives gossip (see docs/PAPER_MAP.md, Table 1 baselines).
//
// Structure: Θ(log log n) synchronous merge phases build clusters
// (trees). In each phase every cluster root flips a proposer/acceptor
// coin (Boruvka-style symmetry breaking: proposal edges go proposer ->
// acceptor, so no cycles); proposers sample a random node, learn its
// root, and ask it to adopt their tree; acceptors adopt any number of
// trees up to a size cap of Θ(log n). Each phase ends with a root-address
// broadcast and is padded to a fixed Θ(log n) round budget — the
// synchronous schedule that gives the algorithm its Θ(log n log log n)
// running time. Messages: O(#roots + n) per phase = O(n log log n) total.
// BuildForest is only Phase I: drrgossip.RunForest runs DRR-gossip's own
// Phases II–III over its clusters, so Table 1 measures exactly the cost
// of the different Phase I constructions.
package kashyap

import (
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

const (
	kindWhoIsRoot uint8 = 0x61
	kindPropose   uint8 = 0x62
)

// mergeSubRounds is the number of merge attempts per phase.
const mergeSubRounds = 3

// phases is the number of merge phases: ceil(log2 log2 n), at least 2.
func phases(n int) int {
	p := int(math.Ceil(math.Log2(float64(sim.CeilLog2(n)))))
	if p < 2 {
		p = 2
	}
	return p
}

// sizeCap caps cluster sizes at 4 log2 n.
func sizeCap(n int) int { return 4 * sim.CeilLog2(n) }

// phaseBudget is the synchronous round budget of one phase,
// ceil(log2 n) + 4.
func phaseBudget(n int) int { return sim.CeilLog2(n) + 4 }

// BuildForest runs the clustering phases and returns the cluster forest
// plus each node's root address, refreshed by the last phase's broadcast.
// It is efficient gossip's Phase I for drrgossip.RunForest, which then
// runs the shared Phases II–III without a second root-address broadcast.
func BuildForest(eng *sim.Engine) (f *forest.Forest, rootTo []int, err error) {
	n := eng.N()
	parent := make([]int, n)
	rootTo = make([]int, n) // current root-address knowledge per node
	size := make([]int, n)  // cluster size, maintained at roots
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			parent[i] = forest.Root
			rootTo[i] = i
			size[i] = 1
		} else {
			parent[i] = forest.NotMember
			rootTo[i] = -1
		}
	}
	isRoot := func(i int) bool { return parent[i] == forest.Root }
	maxSize := sizeCap(n)
	// Each phase's broadcast replaces the last one's addresses, so the
	// phases share one Scratch and its root-address vector.
	var cc convergecast.Scratch

	for phase := 0; phase < phases(n); phase++ {
		phaseStart := eng.Round()
		for sub := 0; sub < mergeSubRounds; sub++ {
			// Role flip: proposers seek adoption, acceptors adopt.
			proposer := make([]bool, n)
			learned := make([]int, n) // sampled node's root, -1 unknown
			for i := 0; i < n; i++ {
				learned[i] = -1
				if eng.Alive(i) && isRoot(i) {
					proposer[i] = eng.RNG(i).Bool(0.5)
				}
			}
			// Step 1: proposers sample a random node and ask for its root.
			eng.Tick()
			calls := eng.CallSlots()
			for i := 0; i < n; i++ {
				if eng.Alive(i) && isRoot(i) && proposer[i] {
					u := eng.RNG(i).IntnOther(n, i)
					calls = append(calls, sim.Call{From: i, To: u, Pay: sim.Payload{Kind: kindWhoIsRoot}})
				}
			}
			eng.ResolveCalls(calls,
				func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
					return sim.Payload{Kind: kindWhoIsRoot, X: int64(rootTo[callee])}, true
				},
				func(caller int, resp sim.Payload) {
					learned[caller] = int(resp.X)
				})
			// Step 2: proposers ask the learned root to adopt their tree.
			eng.Tick()
			calls = eng.CallSlots()
			for i := 0; i < n; i++ {
				if eng.Alive(i) && isRoot(i) && proposer[i] && learned[i] >= 0 && learned[i] != i {
					calls = append(calls, sim.Call{From: i, To: learned[i], Pay: sim.Payload{Kind: kindPropose, X: int64(size[i])}})
				}
			}
			eng.ResolveCalls(calls,
				func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
					// Adopt only while a root, an acceptor, and under cap.
					if !isRoot(callee) || proposer[callee] || size[callee]+int(req.X) > maxSize {
						return sim.Payload{}, false
					}
					size[callee] += int(req.X)
					return sim.Payload{Kind: kindPropose}, true
				},
				func(caller int, resp sim.Payload) {
					parent[caller] = learned[caller]
				})
		}
		// Refresh root-address knowledge down the merged trees.
		if f, err = forest.FromParents(parent); err != nil {
			return nil, nil, fmt.Errorf("kashyap: invalid forest: %w", err)
		}
		if rootTo, err = cc.BroadcastRootAddr(eng, f); err != nil {
			return nil, nil, err
		}
		// Pad to the synchronous phase budget (idle rounds still tick).
		for eng.Round()-phaseStart < phaseBudget(n) {
			eng.Tick()
		}
	}
	if f, err = forest.FromParents(parent); err != nil {
		return nil, nil, fmt.Errorf("kashyap: invalid forest: %w", err)
	}
	return f, rootTo, nil
}
