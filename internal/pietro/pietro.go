// Package pietro implements the clusterhead heuristic of Di Pietro and
// Michiardi (PODC 2008 brief announcement), which the reproduced paper
// discusses in §1.2: bootstrap the network into clusters, aggregate at
// clusterheads, gossip among clusterheads à la Kempe, then disseminate.
//
// The announcement leaves the bootstrap phase unspecified ("it is not
// clear how to efficiently implement the bootstrap phase") and claims,
// without proof, O(n log log n) messages overall. This reconstruction
// implements the obvious bootstrap — every node independently becomes a
// clusterhead with probability 1/log n, and every other node probes
// random nodes until it finds a head — and the A3 experiment measures
// what that costs: Θ(n log n) messages, i.e. the bootstrap alone already
// spends the budget DRR-gossip needs in total. That is exactly the
// paper's criticism, made quantitative.
//
// Bootstrap is only Phase I: drrgossip.RunForest runs DRR-gossip's own
// Phases II–III over the clusters, so the heuristic differs from
// DRR-gossip in nothing but its forest.
package pietro

import (
	"fmt"
	"math"

	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

const kindFindHead uint8 = 0x81

// headProb is the announcement's clusterhead self-selection probability,
// 1/log2 n.
func headProb(n int) float64 { return 1 / math.Log2(float64(n)) }

// probeCap bounds per-node head-search probes at 4 log2 n; nodes that
// never find a head become singleton heads.
func probeCap(n int) int { return 4 * int(math.Ceil(math.Log2(float64(n)))) }

// Bootstrap builds the clusterhead star forest: heads self-select, other
// nodes probe random nodes (one call per round) until they hit a head.
// It is the heuristic's Phase I for drrgossip.RunForest, which then runs
// the shared Phases II–III. It returns no root addresses (rootTo is nil),
// so Phase II broadcasts them after the convergecast, as after DRR.
func Bootstrap(eng *sim.Engine) (f *forest.Forest, rootTo []int, err error) {
	n := eng.N()
	p := headProb(n)
	head := make([]bool, n)
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		if !eng.Alive(i) {
			parent[i] = forest.NotMember
			continue
		}
		head[i] = eng.RNG(i).Bool(p)
		if head[i] {
			parent[i] = forest.Root
		} else {
			parent[i] = -3 // searching
		}
	}
	for probe := 0; probe < probeCap(n); probe++ {
		eng.Tick()
		calls := eng.CallSlots()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) || parent[i] != -3 {
				continue
			}
			calls = append(calls, sim.Call{From: i, To: eng.RNG(i).IntnOther(n, i), Pay: sim.Payload{Kind: kindFindHead}})
		}
		if len(calls) == 0 {
			break
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				// Only heads answer affirmatively, with their id; an
				// answer doubles as the join acknowledgement.
				if !head[callee] {
					return sim.Payload{}, false
				}
				return sim.Payload{Kind: kindFindHead, X: int64(callee)}, true
			},
			func(caller int, resp sim.Payload) {
				if parent[caller] == -3 {
					parent[caller] = int(resp.X)
				}
			})
	}
	for i := 0; i < n; i++ {
		if parent[i] == -3 {
			// Probe budget exhausted: become a singleton head.
			parent[i] = forest.Root
		}
	}
	if f, err = forest.FromParents(parent); err != nil {
		return nil, nil, fmt.Errorf("pietro: invalid forest: %w", err)
	}
	return f, nil, nil
}
