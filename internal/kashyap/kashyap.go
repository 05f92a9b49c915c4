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
// Phases II/III then reuse the same convergecast and root-gossip
// machinery as DRR-gossip, so Table 1 measures exactly the cost of the
// different Phase I constructions.
package kashyap

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/sim"
)

// Options tune the baseline; zero values pick contract-scaled defaults.
type Options struct {
	Phases         int // merge phases (0 = ceil(log2 log2 n), min 2)
	MergeSubRounds int // merge attempts per phase (0 = 3)
	SizeCap        int // cluster size cap (0 = 4 log2 n)
	PhaseBudget    int // rounds per phase (0 = ceil(log2 n) + 4)
	Convergecast   convergecast.Options
}

// Result mirrors the DRR-gossip result shape for the harness.
type Result struct {
	Value     float64
	PerNode   []float64
	Consensus bool
	Forest    *forest.Forest
	// BuildStats covers the cluster construction (this algorithm's
	// phase I); Stats covers the whole run.
	BuildStats sim.Counters
	Stats      sim.Counters
}

// ErrNoNodes is returned when no node is alive.
var ErrNoNodes = errors.New("kashyap: no alive nodes")

const (
	kindWhoIsRoot uint8 = 0x61
	kindPropose   uint8 = 0x62
)

func ceilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

func (o Options) phases(n int) int {
	if o.Phases != 0 {
		return o.Phases
	}
	p := int(math.Ceil(math.Log2(float64(ceilLog2(n)))))
	if p < 2 {
		p = 2
	}
	return p
}

func (o Options) subRounds() int {
	if o.MergeSubRounds != 0 {
		return o.MergeSubRounds
	}
	return 3
}

func (o Options) sizeCap(n int) int {
	if o.SizeCap != 0 {
		return o.SizeCap
	}
	return 4 * ceilLog2(n)
}

func (o Options) phaseBudget(n int) int {
	if o.PhaseBudget != 0 {
		return o.PhaseBudget
	}
	return ceilLog2(n) + 4
}

// BuildForest runs the clustering phases and returns the cluster forest
// plus each node's root address.
func BuildForest(eng *sim.Engine, opts Options) (*forest.Forest, []int, sim.Counters, error) {
	n := eng.N()
	start := eng.Stats()
	parent := make([]int, n)
	rootTo := make([]int, n) // current root-address knowledge per node
	size := make([]int, n)   // cluster size, maintained at roots
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
	calls := make([]sim.Call, n)
	sizeCap := opts.sizeCap(n)

	for phase := 0; phase < opts.phases(n); phase++ {
		phaseStart := eng.Round()
		for sub := 0; sub < opts.subRounds(); sub++ {
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
			for i := 0; i < n; i++ {
				calls[i] = sim.Call{}
				if eng.Alive(i) && isRoot(i) && proposer[i] {
					u := eng.RNG(i).IntnOther(n, i)
					calls[i] = sim.Call{Active: true, To: u, Pay: sim.Payload{Kind: kindWhoIsRoot}}
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
			for i := 0; i < n; i++ {
				calls[i] = sim.Call{}
				if eng.Alive(i) && isRoot(i) && proposer[i] && learned[i] >= 0 && learned[i] != i {
					calls[i] = sim.Call{Active: true, To: learned[i], Pay: sim.Payload{Kind: kindPropose, X: int64(size[i])}}
				}
			}
			eng.ResolveCalls(calls,
				func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
					// Adopt only while a root, an acceptor, and under cap.
					if !isRoot(callee) || proposer[callee] || size[callee]+int(req.X) > sizeCap {
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
		f, err := forest.FromParents(parent)
		if err != nil {
			return nil, nil, eng.Stats().Sub(start), fmt.Errorf("kashyap: invalid forest: %w", err)
		}
		fresh, _, err := convergecast.BroadcastRootAddr(eng, f, opts.Convergecast)
		if err != nil {
			return nil, nil, eng.Stats().Sub(start), err
		}
		rootTo = fresh
		// Pad to the synchronous phase budget (idle rounds still tick).
		for eng.Round()-phaseStart < opts.phaseBudget(n) {
			eng.Tick()
		}
	}
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, nil, eng.Stats().Sub(start), fmt.Errorf("kashyap: invalid forest: %w", err)
	}
	return f, rootTo, eng.Stats().Sub(start), nil
}

// Max computes the global maximum with efficient gossip.
func Max(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kashyap: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, rootTo, build, err := BuildForest(eng, opts)
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
	return finish(eng, f, perNode[f.LargestRoot()], perNode, build, runStart), nil
}

// Ave computes the global average with efficient gossip, following the
// same elect/push-sum/spread structure as DRR-gossip-ave.
func Ave(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kashyap: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, rootTo, build, err := BuildForest(eng, opts)
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
		return nil, fmt.Errorf("kashyap: elected node %d is not a root", z)
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
	return finish(eng, f, ares.Estimates[z], perNode, build, runStart), nil
}

func finish(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, build, runStart sim.Counters) *Result {
	consensus := true
	for i, v := range perNode {
		if f.Member(i) && (v != value || math.IsNaN(v)) {
			consensus = false
			break
		}
	}
	return &Result{
		Value:      value,
		PerNode:    perNode,
		Consensus:  consensus,
		Forest:     f,
		BuildStats: build,
		Stats:      eng.Stats().Sub(runStart),
	}
}
