// Package drr implements Phase I of DRR-gossip: Distributed Random
// Ranking (Algorithm 1 of the paper) on the complete graph, and its
// Section 4 variant Local-DRR on sparse graphs.
//
// Both algorithms let every node choose a rank independently and
// uniformly at random from [0,1] and connect to a higher-ranked node,
// or become a root if it knows none. They differ only in how a node
// finds that parent:
//
//   - Run (DRR) probes up to log2(n)-1 random nodes, one per round,
//     and takes the first node of higher rank. The result has, whp,
//     O(n/log n) trees (Theorem 2) of size O(log n) each (Theorem 3),
//     built in O(log n) rounds with O(n log log n) messages (Theorem 4).
//   - RunLocal (Local-DRR) exchanges ranks with its immediate
//     neighbours (it may message all of them in one round, the standard
//     message-passing assumption) and takes its highest-ranked
//     neighbour. The trees have height O(log n) whp on any graph
//     (Theorem 11), the expected tree count is Σ_i 1/(d_i + 1)
//     (Theorem 13), and the phase costs O(1) rounds and O(|E|) messages.
//
// Every edge goes from lower to higher rank, so the result is a forest.
// The connection step after the parent choice is shared: the child
// sends its parent a connection message carrying its identifier.
//
// Faithfulness under the failure model: a probe whose request or reply
// is lost still consumes one of the node's log n - 1 attempts (the node
// learns nothing that round). Under loss Local-DRR repeats the rank
// exchange a few rounds and ranks only the neighbours it heard from;
// every edge still goes to a strictly higher rank, so loss only shifts
// the tree boundaries. Connection messages are acknowledged and
// retransmitted a bounded number of times — the paper's "repeated
// calls" remark — and a node whose connection never succeeds becomes a
// root, keeping the forest well defined.
package drr

import (
	"fmt"
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/forest"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

// Options tune Algorithm 1 and Local-DRR. The zero value reproduces the
// paper.
type Options struct {
	// ProbeBudget is the maximum number of random probes per node (DRR
	// only). 0 means the paper's log2(n) - 1 (minimum 1). The A1
	// ablation experiment varies this.
	ProbeBudget int
	// Scratch, when set, holds the run's per-node state, rebuilt in
	// place: the Result's Forest, Ranks and Probes are then the
	// scratch's and valid until its next run, so a caller running Phase I
	// once per protocol run reuses its storage. Nil runs on a fresh one.
	Scratch *Scratch
}

// Scratch holds Phase I's per-node state: the ranking forest, the ranks
// and parent choices, the probe counts, the connection acks and
// Local-DRR's best-neighbour records. Every run resets what it uses, so
// one Scratch serves any number of runs on any network size, allocating
// only while it grows. The zero value is ready to use; a Scratch serves
// one run at a time.
type Scratch struct {
	forest    forest.Forest
	ranks     []float64
	parent    []int
	probes    []int
	acked     bitset.Set
	best      []int     // Local-DRR: highest-ranked neighbour heard from, -1 none
	bestRank  []float64 // Local-DRR: its rank
	heardFrom []int     // Local-DRR: this exchange's best sender, -1 none
	heard     []float64 // Local-DRR: its rank
}

// scratch returns the Scratch a run with opts uses.
func (o Options) scratch() *Scratch {
	if o.Scratch != nil {
		return o.Scratch
	}
	return new(Scratch)
}

// connectRetries bounds connection-message retransmissions under loss:
// 8 attempts drive the failure probability below 4^-8 for any δ < 1/8
// (each attempt fails with probability ≤ 2δ ≤ 1/4).
const connectRetries = 8

// Local-DRR repeats the rank exchange to mask loss: 1 round when the
// engine is lossless, lossyRankExchanges otherwise.
const lossyRankExchanges = 4

// Result is the outcome of Phase I.
type Result struct {
	Forest *forest.Forest
	Ranks  []float64 // the random ranks (NaN for crashed nodes)
	// Probes counts the probes each node used (0 for crashed). It is
	// nil for Local-DRR, which does not probe.
	Probes []int
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
	sc := opts.scratch()
	ranks, parent := sc.drawRanks(eng)

	// Probing: one random sample per round per still-searching node. A
	// node stops once parent[i] >= 0. The round's calls are appended in
	// ascending caller order.
	sc.probes = resized(sc.probes, n)
	probes := sc.probes
	clear(probes)
	for k := 0; k < budget; k++ {
		eng.Tick()
		calls := eng.CallSlots()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) || parent[i] >= 0 {
				continue
			}
			probes[i]++
			calls = append(calls, sim.Call{From: i, To: eng.RNG(i).IntnOther(n, i), Pay: sim.Payload{Kind: kindProbe}})
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				// Reply with the callee's rank.
				return sim.Payload{Kind: kindProbe, A: ranks[callee], X: int64(callee)}, true
			},
			func(caller int, resp sim.Payload) {
				if resp.A > ranks[caller] {
					parent[caller] = int(resp.X)
				}
			})
	}
	return sc.connect(eng, probes)
}

// RunLocal executes Local-DRR on the engine over graph g (g.N() ==
// eng.N()) and returns the ranking forest; opts.ProbeBudget is unused.
func RunLocal(eng *sim.Engine, g *graph.Graph, opts Options) (*Result, error) {
	n := eng.N()
	if g.N() != n {
		return nil, fmt.Errorf("drr: graph has %d nodes, engine %d", g.N(), n)
	}
	exchanges := 1
	if eng.Loss() != 0 {
		exchanges = lossyRankExchanges
	}
	sc := opts.scratch()
	ranks, parent := sc.drawRanks(eng)

	// Rank exchange: every node sends its rank to all neighbours (the
	// sparse model allows simultaneous neighbour messages in one round).
	// A receiver only needs the best rank it heard, so each exchange
	// folds receipts into heard/heardFrom as they are sent — senders in
	// ascending id, first maximum kept — and after the Tick folds those
	// into best/bestRank for receivers still alive: the same result, tie
	// for tie, as scanning the delivered inboxes in send order.
	sc.best, sc.bestRank = resized(sc.best, n), resized(sc.bestRank, n)
	sc.heardFrom, sc.heard = resized(sc.heardFrom, n), resized(sc.heard, n)
	best, bestRank, heardFrom, heard := sc.best, sc.bestRank, sc.heardFrom, sc.heard
	for i := range best {
		best[i] = -1
		bestRank[i] = math.Inf(-1)
	}
	// nbuf is this run's neighbour buffer.
	nbuf := make([]int, 0, 64)
	for r := 0; r < exchanges; r++ {
		for i := range heard {
			heardFrom[i] = -1
			heard[i] = math.Inf(-1)
		}
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			nbuf = g.NeighborsInto(i, nbuf)
			from, rank := i, ranks[i]
			eng.SendEach(from, nbuf, func(to int) {
				if rank > heard[to] {
					heard[to] = rank
					heardFrom[to] = from
				}
			})
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			if eng.Alive(i) && heard[i] > bestRank[i] {
				bestRank[i] = heard[i]
				best[i] = heardFrom[i]
			}
		}
	}

	// Local decision: connect to the highest-ranked neighbour if it
	// outranks us, else become a root. Membership is decided by who is
	// alive now, after the exchange rounds.
	for i := 0; i < n; i++ {
		switch {
		case !eng.Alive(i):
			parent[i] = forest.NotMember
		case best[i] >= 0 && bestRank[i] > ranks[i]:
			parent[i] = best[i]
		default:
			parent[i] = forest.Root
		}
	}
	return sc.connect(eng, nil)
}

// drawRanks draws every alive node's rank from its own RNG stream and
// makes it a root, in s's storage; crashed nodes get a NaN rank and stay
// out of the forest.
func (s *Scratch) drawRanks(eng *sim.Engine) (ranks []float64, parent []int) {
	n := eng.N()
	s.ranks, s.parent = resized(s.ranks, n), resized(s.parent, n)
	ranks, parent = s.ranks, s.parent
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			ranks[i] = eng.RNG(i).Float64()
			parent[i] = forest.Root
		} else {
			ranks[i] = math.NaN()
			parent[i] = forest.NotMember
		}
	}
	return ranks, parent
}

// resized returns s with n entries, on s's own storage when it is large
// enough; the entries are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// connect is the connection step both algorithms end with, on the ranks
// and parent choices in s. Every node with a parent (parent[i] >= 0)
// sends it a connection message carrying its identifier; the parent
// acknowledges (idempotently, so retries after a lost ack are harmless).
// Unacknowledged nodes retry up to connectRetries times and then fall
// back to being roots. The forest is rebuilt into s's.
func (s *Scratch) connect(eng *sim.Engine, probes []int) (*Result, error) {
	n := eng.N()
	ranks, parent := s.ranks, s.parent
	// The ack set is a dense bitset (n/8 bytes, which matters at
	// million-node scale) mutated only from the sequential ResolveCalls
	// path.
	acked := &s.acked
	acked.Resize(n)
	orphans := 0
	for attempt := 0; attempt < connectRetries; attempt++ {
		eng.Tick()
		calls := eng.CallSlots()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) || parent[i] < 0 || acked.Test(i) {
				continue
			}
			calls = append(calls, sim.Call{From: i, To: parent[i], Pay: sim.Payload{Kind: kindConnect, X: int64(i)}})
		}
		if len(calls) == 0 {
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
		if parent[i] >= 0 && !acked.Test(i) {
			// The child cannot be sure its parent registered it; failing
			// open to a root keeps the forest consistent.
			parent[i] = forest.Root
			orphans++
		}
	}
	// Dynamic membership: nodes that crashed during the phase leave the
	// forest, and their orphaned children are promoted to roots, so the
	// forest stays valid under mid-run churn. A no-op in the static model.
	orphans += forest.RepairParents(parent, eng.Alive)
	f := &s.forest
	if err := f.Rebuild(parent); err != nil {
		return nil, fmt.Errorf("drr: invalid forest: %w", err)
	}
	return &Result{
		Forest:  f,
		Ranks:   ranks,
		Probes:  probes,
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
