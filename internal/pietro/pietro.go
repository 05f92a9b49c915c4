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
package pietro

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/sim"
)

// Options tune the heuristic; zero values follow the announcement's
// parameters.
type Options struct {
	// HeadProb is the clusterhead self-selection probability
	// (0 = 1/log2 n).
	HeadProb float64
	// ProbeCap bounds per-node head-search probes (0 = 4 log2 n); nodes
	// that never find a head become singleton heads.
	ProbeCap     int
	Convergecast convergecast.Options
}

// Result mirrors the other pipelines' result shape.
type Result struct {
	Value     float64
	PerNode   []float64
	Consensus bool
	Forest    *forest.Forest
	// BootstrapStats isolates the cost of the unspecified bootstrap
	// phase — the quantity experiment A3 reports.
	BootstrapStats sim.Counters
	Stats          sim.Counters
}

// ErrNoNodes is returned when no node is alive.
var ErrNoNodes = errors.New("pietro: no alive nodes")

const kindFindHead uint8 = 0x81

func (o Options) headProb(n int) float64 {
	if o.HeadProb != 0 {
		return o.HeadProb
	}
	return 1 / math.Log2(float64(n))
}

func (o Options) probeCap(n int) int {
	if o.ProbeCap != 0 {
		return o.ProbeCap
	}
	return 4 * int(math.Ceil(math.Log2(float64(n))))
}

// Bootstrap builds the clusterhead star forest: heads self-select, other
// nodes probe random nodes (one call per round) until they hit a head.
func Bootstrap(eng *sim.Engine, opts Options) (*forest.Forest, sim.Counters, error) {
	n := eng.N()
	start := eng.Stats()
	p := opts.headProb(n)
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
	calls := make([]sim.Call, n)
	for probe := 0; probe < opts.probeCap(n); probe++ {
		eng.Tick()
		searching := false
		for i := 0; i < n; i++ {
			calls[i] = sim.Call{}
			if !eng.Alive(i) || parent[i] != -3 {
				continue
			}
			searching = true
			calls[i] = sim.Call{Active: true, To: eng.RNG(i).IntnOther(n, i), Pay: sim.Payload{Kind: kindFindHead}}
		}
		if !searching {
			break
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				// Only heads answer affirmatively; an answer doubles as
				// the join acknowledgement.
				if !head[callee] {
					return sim.Payload{}, false
				}
				return sim.Payload{Kind: kindFindHead}, true
			},
			func(caller int, resp sim.Payload) {
				if parent[caller] == -3 {
					parent[caller] = calls[caller].To
				}
			})
	}
	orphaned := 0
	for i := 0; i < n; i++ {
		if parent[i] == -3 {
			// Probe budget exhausted: become a singleton head.
			parent[i] = forest.Root
			head[i] = true
			orphaned++
		}
	}
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, eng.Stats().Sub(start), fmt.Errorf("pietro: invalid forest: %w", err)
	}
	return f, eng.Stats().Sub(start), nil
}

// Max computes the global maximum with the clusterhead heuristic.
func Max(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("pietro: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, boot, err := Bootstrap(eng, opts)
	if err != nil {
		return nil, err
	}
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}
	covmax, _, err := convergecast.Max(eng, f, values, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	rootTo, _, err := convergecast.BroadcastRootAddr(eng, f, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	tr, err := gossip.Relay(eng, f, rootTo)
	if err != nil {
		return nil, err
	}
	gres, err := gossip.Max(tr, covmax)
	if err != nil {
		return nil, err
	}
	perNode, _, err := convergecast.BroadcastValue(eng, f, gres.Estimates, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	return finish(eng, f, perNode[f.LargestRoot()], perNode, boot, runStart), nil
}

// Ave computes the global average with the clusterhead heuristic, using
// the same elect/push-sum/spread structure as the other pipelines.
func Ave(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("pietro: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, boot, err := Bootstrap(eng, opts)
	if err != nil {
		return nil, err
	}
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}
	covsum, _, err := convergecast.Sum(eng, f, values, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	rootTo, _, err := convergecast.BroadcastRootAddr(eng, f, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	keys := make(map[int]float64, f.NumTrees())
	for r, sc := range covsum {
		keys[r] = float64(int(sc.Count))*(1<<24) + float64(r)
	}
	tr, err := gossip.Relay(eng, f, rootTo)
	if err != nil {
		return nil, err
	}
	kres, err := gossip.Max(tr, keys)
	if err != nil {
		return nil, err
	}
	maxKey := math.Inf(-1)
	for _, v := range kres.Estimates {
		if v > maxKey {
			maxKey = v
		}
	}
	z := int(int64(maxKey) & (1<<24 - 1))
	if !f.IsRoot(z) {
		return nil, fmt.Errorf("pietro: elected node %d is not a root", z)
	}
	ares, err := gossip.Ave(tr, covsum, gossip.AveOptions{TrackRoot: -1})
	if err != nil {
		return nil, err
	}
	sres, err := gossip.Spread(tr, z, ares.Estimates[z])
	if err != nil {
		return nil, err
	}
	perNode, _, err := convergecast.BroadcastValue(eng, f, sres.Estimates, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	return finish(eng, f, ares.Estimates[z], perNode, boot, runStart), nil
}

func finish(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, boot, runStart sim.Counters) *Result {
	consensus := true
	for i, v := range perNode {
		if f.Member(i) && (v != value || math.IsNaN(v)) {
			consensus = false
			break
		}
	}
	return &Result{
		Value:          value,
		PerNode:        perNode,
		Consensus:      consensus,
		Forest:         f,
		BootstrapStats: boot,
		Stats:          eng.Stats().Sub(runStart),
	}
}
