// Package drr implements Phase I of DRR-gossip: Distributed Random
// Ranking (Algorithm 1 of the paper).
//
// Every node chooses a rank independently and uniformly at random from
// [0,1], then probes up to log2(n)-1 random nodes, one per round, until it
// finds a node of higher rank; it connects to the first such node (sending
// a connection message) or becomes a root if none is found. Because every
// edge goes from lower to higher rank, the result is a forest of disjoint
// trees with, whp, O(n/log n) trees (Theorem 2) of size O(log n) each
// (Theorem 3), built in O(log n) rounds with O(n log log n) messages
// (Theorem 4).
//
// Faithfulness under the failure model: a probe whose request or reply is
// lost still consumes one of the node's log n - 1 attempts (the node
// learns nothing that round). Connection messages are acknowledged and
// retransmitted a bounded number of times — the paper's "repeated calls"
// remark — and a node whose connection never succeeds becomes a root,
// keeping the forest well defined.
package drr

import (
	"fmt"
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

// Options tune Algorithm 1. The zero value reproduces the paper.
type Options struct {
	// ProbeBudget is the maximum number of random probes per node.
	// 0 means the paper's log2(n) - 1 (minimum 1). The A1 ablation
	// experiment varies this.
	ProbeBudget int
}

// connectRetries bounds connection-message retransmissions under loss:
// 8 attempts drive the failure probability below 4^-8 for any δ < 1/8
// (each attempt fails with probability ≤ 2δ ≤ 1/4).
const connectRetries = 8

// Result is the outcome of Phase I.
type Result struct {
	Forest *forest.Forest
	Ranks  []float64 // the random ranks (NaN for crashed nodes)
	Probes []int     // probes actually used per node (0 for crashed)
	Stats  sim.Counters
	// Orphans counts nodes that found a higher-ranked parent but whose
	// connection message never got acknowledged; they became roots.
	Orphans int
}

// DefaultProbeBudget returns the paper's probe budget log2(n)-1 (>= 1).
func DefaultProbeBudget(n int) int {
	b := int(math.Ceil(math.Log2(float64(n)))) - 1
	if b < 1 {
		b = 1
	}
	return b
}

// message kinds
const (
	kindProbe uint8 = iota + 1
	kindConnect
)

// Run executes Algorithm 1 on the engine and returns the ranking forest.
func Run(eng *sim.Engine, opts Options) (*Result, error) {
	n := eng.N()
	budget := opts.ProbeBudget
	if budget == 0 {
		budget = DefaultProbeBudget(n)
	}
	if budget < 1 {
		return nil, fmt.Errorf("drr: probe budget must be >= 1, got %d", budget)
	}
	start := eng.Stats()

	ranks := make([]float64, n)
	parent := make([]int, n)
	// found/acked are per-node membership sets; dense bitsets keep the
	// Phase I state at n/8 bytes apiece, which matters at million-node
	// scale. They are only mutated on the engine's sequential paths
	// (ResolveCalls handlers); ParallelFor workers read them.
	found := bitset.New(n)
	probes := make([]int, n)
	sim.ParallelFor(n, func(i int) {
		if eng.Alive(i) {
			ranks[i] = eng.RNG(i).Float64()
			parent[i] = forest.Root
		} else {
			ranks[i] = math.NaN()
			parent[i] = forest.NotMember
		}
	})

	// Probing: one random sample per round per still-searching node.
	calls := eng.CallSlots()
	for k := 0; k < budget; k++ {
		eng.Tick()
		sim.ParallelFor(n, func(i int) {
			calls[i] = sim.Call{}
			if !eng.Alive(i) || found.Test(i) {
				return
			}
			u := eng.RNG(i).IntnOther(n, i)
			probes[i]++
			calls[i] = sim.Call{Active: true, To: u, Pay: sim.Payload{Kind: kindProbe}}
		})
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				// Reply with the callee's rank.
				return sim.Payload{Kind: kindProbe, A: ranks[callee], X: int64(callee)}, true
			},
			func(caller int, resp sim.Payload) {
				if resp.A > ranks[caller] {
					found.Set(caller)
					parent[caller] = int(resp.X)
				}
			})
	}

	// Connection: nodes that found a parent send it a connection message
	// carrying their identifier; the parent acknowledges (idempotently, so
	// retries after a lost ack are harmless). Unacknowledged nodes retry up
	// to connectRetries times and then fall back to being roots.
	acked := bitset.New(n)
	orphans := 0
	for attempt := 0; attempt < connectRetries; attempt++ {
		eng.Tick()
		active := false
		for i := 0; i < n; i++ {
			calls[i] = sim.Call{}
			if !eng.Alive(i) || !found.Test(i) || acked.Test(i) {
				continue
			}
			active = true
			calls[i] = sim.Call{Active: true, To: parent[i], Pay: sim.Payload{Kind: kindConnect, X: int64(i)}}
		}
		if !active {
			break
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				return sim.Payload{Kind: kindConnect}, true
			},
			func(caller int, resp sim.Payload) {
				acked.Set(caller)
			})
	}
	for i := 0; i < n; i++ {
		if found.Test(i) && !acked.Test(i) {
			// The child cannot be sure its parent registered it; failing
			// open to a root keeps the forest consistent.
			parent[i] = forest.Root
			found.Clear(i)
			orphans++
		}
	}
	// Dynamic membership: nodes that crashed during the phase leave the
	// forest, and their orphaned children are promoted to roots, so the
	// forest stays valid under mid-run churn. A no-op in the static model.
	orphans += forest.RepairParents(parent, eng.Alive)
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, fmt.Errorf("drr: invalid forest: %w", err)
	}
	return &Result{
		Forest:  f,
		Ranks:   ranks,
		Probes:  probes,
		Stats:   eng.Stats().Sub(start),
		Orphans: orphans,
	}, nil
}

// TotalProbes sums the per-node probe counts (the quantity Theorem 4
// bounds by O(n log log n) up to the constant per-probe message cost).
func (r *Result) TotalProbes() int {
	t := 0
	for _, p := range r.Probes {
		t += p
	}
	return t
}
