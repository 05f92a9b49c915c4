// Package localdrr implements the Local-DRR algorithm of Section 4: the
// DRR variant for sparse networks where a node exchanges rank information
// only with its immediate neighbours (and may message all of them in one
// round, the standard message-passing assumption).
//
// Every node picks a rank uniformly at random from [0,1] and connects to
// its highest-ranked neighbour; a node whose rank beats all its
// neighbours' becomes a root. Edges point up in rank, so the result is a
// forest whose trees have height O(log n) whp on any graph (Theorem 11)
// and whose expected tree count is Σ_i 1/(d_i + 1) (Theorem 13). Phase I
// costs O(1) rounds and O(|E|) messages.
//
// Under message loss a node simply ranks the neighbours it heard from
// (unheard neighbours are treated as absent); since every edge still goes
// to a strictly higher rank, the forest stays acyclic — loss only shifts
// the tree boundaries. Rank exchange may be repeated a few rounds to
// shrink the unheard set.
package localdrr

import (
	"fmt"
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/forest"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

// Rank exchange is repeated to mask loss: 1 round when the engine is
// lossless, lossyRankExchanges otherwise.
const lossyRankExchanges = 4

// connectRetries bounds connection retransmissions, as in global DRR.
const connectRetries = 8

// Result is the outcome of Local-DRR.
type Result struct {
	Forest *forest.Forest
	Ranks  []float64
	Stats  sim.Counters
	// Orphans counts nodes whose connection message was never
	// acknowledged; they fall back to roots.
	Orphans int
}

const kindConnect uint8 = 0x12

// Run executes Local-DRR on the engine over graph g (g.N() == eng.N()).
func Run(eng *sim.Engine, g *graph.Graph) (*Result, error) {
	n := eng.N()
	if g.N() != n {
		return nil, fmt.Errorf("localdrr: graph has %d nodes, engine %d", g.N(), n)
	}
	exchanges := 1
	if eng.Loss() != 0 {
		exchanges = lossyRankExchanges
	}
	start := eng.Stats()

	ranks := make([]float64, n)
	sim.ParallelFor(n, func(i int) {
		if eng.Alive(i) {
			ranks[i] = eng.RNG(i).Float64()
		} else {
			ranks[i] = math.NaN()
		}
	})

	// Rank exchange: every node sends its rank to all neighbours (the
	// sparse model allows simultaneous neighbour messages in one round).
	// A receiver only needs the best rank it heard, so each exchange
	// folds receipts into heard/heardFrom as they are sent — senders in
	// ascending id, first maximum kept — and after the Tick folds those
	// into best/bestRank for receivers still alive: the same result, tie
	// for tie, as scanning the delivered inboxes in send order.
	best := make([]int, n) // highest-ranked neighbour heard from, -1 none
	bestRank := make([]float64, n)
	heardFrom := make([]int, n) // this exchange's best sender, -1 none
	heard := make([]float64, n)
	for i := range best {
		best[i] = -1
		bestRank[i] = math.Inf(-1)
	}
	// nbuf is this run's private neighbour buffer: parallel batch workers
	// share one overlay graph, so the graph-owned Neighbors scratch of
	// implicit/CSR representations must not be touched from here.
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
		sim.ParallelFor(n, func(i int) {
			if eng.Alive(i) && heard[i] > bestRank[i] {
				bestRank[i] = heard[i]
				best[i] = heardFrom[i]
			}
		})
	}

	// Local decision: connect to the highest-ranked neighbour if it
	// outranks us, else become a root.
	parent := make([]int, n)
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

	// Connection handshake with ack/retransmit, as in global DRR. The ack
	// set is a dense bitset (n/8 bytes) mutated only from the sequential
	// ResolveCalls path.
	acked := bitset.New(n)
	calls := eng.CallSlots()
	orphans := 0
	for attempt := 0; attempt < connectRetries; attempt++ {
		eng.Tick()
		active := false
		for i := 0; i < n; i++ {
			calls[i] = sim.Call{}
			if !eng.Alive(i) || parent[i] < 0 || acked.Test(i) {
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
		if parent[i] >= 0 && !acked.Test(i) {
			parent[i] = forest.Root
			orphans++
		}
	}
	// Dynamic membership: drop nodes that crashed during the phase and
	// promote their orphaned children (no-op in the static model).
	orphans += forest.RepairParents(parent, eng.Alive)
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, fmt.Errorf("localdrr: invalid forest: %w", err)
	}
	return &Result{
		Forest:  f,
		Ranks:   ranks,
		Stats:   eng.Stats().Sub(start),
		Orphans: orphans,
	}, nil
}
