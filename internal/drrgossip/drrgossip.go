// Package drrgossip composes the three phases of the paper into the
// complete DRR-gossip algorithms: DRR-gossip-max (Algorithm 7),
// DRR-gossip-ave (Algorithm 8) and the derived aggregates (Min, Sum,
// Count, Rank, Moments) obtained by the paper's "suitable
// modifications". Every aggregate runs the same skeleton, Run:
//
//   - Phase I builds the ranking forest: DRR on the complete graph, or
//     Local-DRR over a sparse overlay's links (Section 4, Theorem 11).
//     RunForest takes any other forest builder instead: the Table 1
//     baselines (internal/kashyap, internal/pietro) differ from
//     DRR-gossip only here;
//   - Phase II convergecasts each tree's aggregate to its root and
//     broadcasts the root address down the tree;
//   - Phase III gossips among the roots and disseminates the answer down
//     the trees. Roots reach each other through a gossip.Transport: the
//     tree relay on the complete graph, overlay routing on a sparse one
//     (Theorems 13-14).
//
// The aggregate only picks the Phase III combiner. Max and Min use
// Gossip-max. Ave, Sum, Count and Moments use push-sum: Gossip-max on
// (tree size, root id) keys elects the largest-tree root z (as in
// Algorithm 8), push-sum converges there (Theorem 7) and Data-spread
// hands z's estimate to every root. Sum and Count use the
// distinguished-root form: weight g0 = 1 at z and 0 elsewhere, so every
// ratio converges to Σ s0 / 1 — the global sum (s0 = tree sums) or the
// live node count (s0 = tree sizes). Moments carries Σv² as a third
// push-sum component.
//
// Complexity (Theorems 2-7): O(log n) rounds and O(n log log n) messages
// on the complete graph, the message bill dominated by Phase I; Phases II
// and III cost O(n) messages each. On Chord the routed transport gives
// O(log^2 n) time and O(n log n) messages (Theorem 14); on any other
// overlay the landmark routes of internal/overlay cost at most twice the
// landmark tree depth per sample, and Theorem 13 bounds the expected root
// count by the harmonic degree sum Σ 1/(d_i+1).
//
// A Result carries the answer, not its cost. A run's bill is read from
// the engine it ran on: sim.Core.Stats for the whole run, and Ledger or
// Billed for each phase under the Phase labels below.
package drrgossip

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// Phase labels the pipeline records on the engine (sim.SetPhase) as it
// progresses: the engine's ledger bills each phase under its label, and
// per-round observers attribute time to the paper's phases by it. No
// protocol logic reads them.
const (
	PhaseDRR       = "drr"       // Phase I: (Local-)DRR forest building
	PhaseAggregate = "aggregate" // Phase II: convergecast + root-address broadcast
	PhaseGossip    = "gossip"    // Phase III: root-level gossip (max/ave/spread)
	PhaseBroadcast = "broadcast" // final dissemination down the trees
)

// Kind selects the aggregate Run computes, and with it the Phase III
// combiner.
type Kind int

const (
	// Max is DRR-gossip-max (Algorithm 7).
	Max Kind = iota
	// Min is Max on negated values.
	Min
	// Ave is DRR-gossip-ave (Algorithm 8).
	Ave
	// Sum is the distinguished-root push-sum over tree sums. Rank(q) is
	// Sum over agg.Indicator(values, q).
	Sum
	// Count is the distinguished-root push-sum over tree sizes: the
	// number of live nodes.
	Count
	// Moments is Ave with a Σv² push-sum component: mean and population
	// variance in one run.
	Moments
)

// Result is the outcome of a DRR-gossip run.
type Result struct {
	// Value is the aggregate at the distinguished root (the consensus
	// value whp); the mean for Moments.
	Value float64
	// Variance is the population variance E[v²] − E[v]² (Moments only).
	Variance float64
	// PerNode is every node's final value (NaN for crashed nodes).
	PerNode []float64
	// Consensus reports whether all alive nodes ended with the same value
	// (and, for Moments, the same variance).
	Consensus bool
	// Forest is the run's ranking forest. When the run used a
	// Workspace's storage, it is valid until that workspace's next run.
	Forest *forest.Forest
}

// ErrNoNodes is returned when the engine has no alive nodes to aggregate.
var ErrNoNodes = errors.New("drrgossip: no alive nodes")

// ErrCrashedOverlay is returned when a sparse run starts with crashed
// nodes: overlay routing repair (e.g. Chord successor-list maintenance
// under churn) is outside this reproduction's scope, matching the paper,
// which analyses sparse topologies without the crash model.
var ErrCrashedOverlay = errors.New("drrgossip: sparse pipelines require all nodes alive")

// MaxKeyNodes is the largest network the largest-tree election supports:
// largestKey packs a root id into the low 24 bits of its key, so ids
// (and tree sizes) must stay within 2^24. Larger networks are rejected
// up front by the facade rather than electing a corrupted root.
const MaxKeyNodes = 1 << 24

// largestKey encodes (tree size, root id) into an exactly-representable
// float64 so Gossip-max can elect a unique largest-tree root. Sizes and
// ids stay below MaxKeyNodes, so size*2^24 + id < 2^48 < 2^53.
func largestKey(size, root int) float64 {
	return float64(size)*(1<<24) + float64(root)
}

func decodeKeyRoot(key float64) int {
	return int(int64(key) & (1<<24 - 1))
}

// Workspace holds the storage a pipeline run needs beyond the engine:
// the forest Phase I rebuilds and Phase II's scratch. A caller that runs
// the pipeline repeatedly keeps one (the facade: one per query, shared
// by all of the query's runs, and one per RunAll worker), and every run
// rebuilds both in place instead of allocating them. The zero value is
// ready to use; a Workspace serves one run at a time.
type Workspace struct {
	forest forest.Forest
	cc     convergecast.Scratch
}

// Run computes kind over values on eng: on the complete graph when ov is
// nil, over the overlay's links and routes otherwise. It runs on a fresh
// Workspace, so the Result is entirely the caller's.
func Run(eng *sim.Engine, ov overlay.Overlay, kind Kind, values []float64) (*Result, error) {
	return new(Workspace).Run(eng, ov, kind, values)
}

// Run is the package-level Run on w's storage: the Result's Forest is
// w's and valid until w's next run.
func (w *Workspace) Run(eng *sim.Engine, ov overlay.Overlay, kind Kind, values []float64) (*Result, error) {
	opts := drr.Options{Forest: &w.forest}
	build := func(eng *sim.Engine) (*forest.Forest, []int, error) {
		if ov != nil {
			return phaseOne(drr.RunLocal(eng, ov.Graph(), opts))
		}
		return phaseOne(drr.Run(eng, opts))
	}
	return w.run(eng, ov, build, kind, values)
}

// RunForest computes kind over values on the complete graph with build as
// Phase I: any forest builder (DRR, or a baseline's clustering) feeds the
// same Phases II–III, and its cost is billed to PhaseDRR. A builder
// that learns each node's root address while building returns it as
// rootTo and Phase II skips the root-address broadcast; a nil rootTo
// makes Phase II broadcast the addresses after the convergecast. values
// is read only after build returns, so a builder may fill it.
func RunForest(eng *sim.Engine, build func(*sim.Engine) (f *forest.Forest, rootTo []int, err error), kind Kind, values []float64) (*Result, error) {
	return new(Workspace).run(eng, nil, build, kind, values)
}

// phaseOne adapts a DRR or Local-DRR outcome to a forest builder's
// results; neither learns the root addresses.
func phaseOne(res *drr.Result, err error) (*forest.Forest, []int, error) {
	if err != nil {
		return nil, nil, err
	}
	return res.Forest, nil, nil
}

// run is the three-phase skeleton on w's Phase II scratch: Phase I is
// build, and the transport between roots is the overlay's routes when ov
// is set, the tree relay otherwise.
func (w *Workspace) run(eng *sim.Engine, ov overlay.Overlay, build func(*sim.Engine) (*forest.Forest, []int, error), kind Kind, values []float64) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	if kind < Max || kind > Moments {
		return nil, fmt.Errorf("drrgossip: unknown aggregate kind %d", int(kind))
	}
	if ov != nil {
		if eng.NumAlive() != eng.N() {
			return nil, ErrCrashedOverlay
		}
		if ov.Graph().N() != eng.N() {
			return nil, fmt.Errorf("drrgossip: overlay %s has %d nodes, engine %d", ov.Name(), ov.Graph().N(), eng.N())
		}
	}

	// Phase I: the forest builder.
	eng.SetPhase(PhaseDRR)
	f, rootTo, err := build(eng)
	if err != nil {
		return nil, err
	}
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}

	// Min is Max on negated values, negated only now because a builder
	// may fill values during Phase I.
	maxLike := kind == Max || kind == Min
	if kind == Min {
		neg := make([]float64, len(values))
		for i, v := range values {
			neg[i] = -v
		}
		values = neg
	}

	// Phase II: convergecast + root-address broadcast. Routed gossip
	// needs no root addresses, but the broadcast is part of the protocol
	// (and of its bill); the sparse pipeline runs it first.
	eng.SetPhase(PhaseAggregate)
	var tr gossip.Transport
	if ov != nil {
		if _, err := w.cc.BroadcastRootAddr(eng, f); err != nil {
			return nil, err
		}
		tr = gossip.Route(eng, ov, f)
	}
	var (
		covmax []float64
		cov    []convergecast.MomentsVec
	)
	switch {
	case maxLike:
		covmax, err = w.cc.Max(eng, f, values)
	case kind == Moments:
		cov, err = w.cc.Moments(eng, f, values)
	default:
		cov, err = w.cc.Sum(eng, f, values)
	}
	if err != nil {
		return nil, err
	}
	if ov == nil {
		if rootTo == nil {
			if rootTo, err = w.cc.BroadcastRootAddr(eng, f); err != nil {
				return nil, err
			}
		}
		if tr, err = gossip.Relay(eng, f, rootTo); err != nil {
			return nil, err
		}
	}

	// Phase III: root gossip with the kind's combiner.
	eng.SetPhase(PhaseGossip)
	var g *phase3
	if maxLike {
		gres, err := gossip.Max(tr, covmax)
		if err != nil {
			return nil, err
		}
		g = &phase3{est: gres.Estimates}
	} else if g, err = pushSum(eng, f, tr, kind, cov); err != nil {
		return nil, err
	}

	// Final dissemination down the trees.
	eng.SetPhase(PhaseBroadcast)
	perNode, err := w.cc.BroadcastValue(eng, f, g.est)
	if err != nil {
		return nil, err
	}
	var perVar []float64
	if g.varEst != nil {
		if perVar, err = w.cc.BroadcastValue(eng, f, g.varEst); err != nil {
			return nil, err
		}
	}

	value := g.value
	if maxLike {
		// Gossip-max answers with the largest root's disseminated value;
		// when mid-run crashes leave it NaN, a surviving root's estimate
		// stands in.
		value = perNode[f.LargestRoot()]
		if !finite(value) {
			if k := fallbackRoot(eng, f, g.est); k >= 0 {
				value = g.est[k]
			}
		}
	}
	res := &Result{
		Value:     value,
		Variance:  g.variance,
		PerNode:   perNode,
		Consensus: consensus(eng, f, value, perNode, g.variance, perVar),
		Forest:    f,
	}
	if kind == Min {
		res.Value = -res.Value
		for i := range res.PerNode {
			res.PerNode[i] = -res.PerNode[i]
		}
	}
	return res, nil
}

// phase3 is a combiner's outcome: the per-root values the trees
// disseminate, indexed by root slot, and the answer they carry.
type phase3 struct {
	est    []float64 // per-root value to disseminate
	varEst []float64 // per-root variance (Moments only)
	// value and variance are the answer (push-sum combiners only; the
	// max combiner's answer is read after dissemination).
	value, variance float64
}

// pushSum is the push-sum combiner: elect the largest-tree root z,
// push-sum towards it, and spread z's estimate (and, for Moments, its
// variance) to every root.
func pushSum(eng *sim.Engine, f *forest.Forest, tr gossip.Transport, kind Kind, cov []convergecast.MomentsVec) (*phase3, error) {
	// (a) Gossip-max on (tree size, root id) keys elects the largest-tree
	// root z; every root learns the winning key, hence z.
	keys := make([]float64, len(cov))
	for k, mv := range cov {
		keys[k] = largestKey(int(mv.Count), f.Roots()[k])
	}
	kres, err := gossip.Max(tr, keys)
	if err != nil {
		return nil, err
	}
	// In the protocol each root compares the winning key against its own
	// to decide whether it is z. The winner's own estimate is always >=
	// its own key, so the maximum estimate is exactly the true winning
	// key.
	maxKey := math.Inf(-1)
	for _, v := range kres.Estimates {
		if v > maxKey {
			maxKey = v
		}
	}
	zk, err := electRoot(eng, f, maxKey, keys)
	if err != nil {
		return nil, err
	}
	z := f.Roots()[zk]

	// (b) Push-sum; the guarantee (Theorem 7) holds at z. Sum and Count
	// ship reliable (acknowledged) shares: their distinguished-root
	// denominator is a single unit of mass whose loss cannot be averaged
	// away, unlike the Ave ratio where losses cancel.
	ares, err := gossip.Ave(tr, pushInit(kind, cov, zk), gossip.AveOptions{
		TrackRoot:      -1,
		ReliableShares: kind == Sum || kind == Count,
	})
	if err != nil {
		return nil, err
	}

	// (c) Data-spread of z's estimate to all roots. Under mid-run crashes
	// z's estimate can be NaN (or z freshly dead); the spread then
	// carries the best surviving estimate instead.
	src := zk
	if !finite(ares.Estimates[zk]) {
		if k := fallbackRoot(eng, f, ares.Estimates); k >= 0 {
			src = k
		}
	}
	g := &phase3{value: ares.Estimates[src]}
	sres, err := gossip.Spread(tr, z, g.value)
	if err != nil {
		return nil, err
	}
	g.est = sres.Estimates
	if kind == Moments {
		m := ares.Mass[src]
		g.variance = m.Sum2/m.Count - g.value*g.value
		vres, err := gossip.Spread(tr, z, g.variance)
		if err != nil {
			return nil, err
		}
		g.varEst = vres.Estimates
	}
	return g, nil
}

// electRoot resolves the slot of the distinguished root from the won
// election key. In a healthy run the decoded winner is a live root and
// is returned as-is. When mid-run crashes killed it (its tree's mass
// would be unreachable), the election falls back to the live root with
// the largest own key — deterministically, in slot order — so the
// push-sum denominator is placed where it can still circulate.
func electRoot(eng *sim.Engine, f *forest.Forest, maxKey float64, keys []float64) (int, error) {
	z := decodeKeyRoot(maxKey)
	if f.IsRoot(z) && eng.Alive(z) {
		return f.Slot(z), nil
	}
	best, bestKey := -1, math.Inf(-1)
	for k, r := range f.Roots() {
		if eng.Alive(r) && keys[k] > bestKey {
			best, bestKey = k, keys[k]
		}
	}
	if best >= 0 {
		return best, nil
	}
	if f.IsRoot(z) {
		return f.Slot(z), nil // every root is dead; keep the elected one
	}
	return -1, fmt.Errorf("drrgossip: elected node %d is not a root", z)
}

// pushInit builds the push-sum start vectors from the per-tree
// convergecast results, given the slot zk of the elected largest root z.
func pushInit(kind Kind, cov []convergecast.MomentsVec, zk int) []convergecast.MomentsVec {
	if kind == Ave || kind == Moments {
		// (tree sums, tree size): ratios converge to Σsums/Σsizes.
		return cov
	}
	init := make([]convergecast.MomentsVec, len(cov))
	for k, mv := range cov {
		g := 0.0
		if k == zk {
			g = 1
		}
		if kind == Count {
			// (tree size, [r==z]): ratios converge to Σsizes/1 = n_alive.
			init[k] = convergecast.MomentsVec{Sum: mv.Count, Count: g}
		} else {
			// (tree sum, [r==z]): ratios converge to Σsums/1.
			init[k] = convergecast.MomentsVec{Sum: mv.Sum, Count: g}
		}
	}
	return init
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// fallbackRoot picks the slot of the root whose estimate stands in when
// the preferred answer is not finite (mid-run crashes): the first live
// root with a finite estimate, else any dead root's frozen finite
// estimate as a last resort, in slot order; -1 when no root has one.
// Faulty runs thus report a degraded answer instead of NaN.
func fallbackRoot(eng *sim.Engine, f *forest.Forest, est []float64) int {
	for _, pass := range [2]bool{true, false} { // live roots first
		for k, r := range f.Roots() {
			if eng.Alive(r) == pass && finite(est[k]) {
				return k
			}
		}
	}
	return -1
}

// consensus reports whether every node still alive at the end of the run
// holds value (and variance, when perVar is set): a node that crashed
// mid-protocol no longer holds (or needs) the answer. In the static model
// every member is alive, so this is the all-members check.
func consensus(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, variance float64, perVar []float64) bool {
	for i, v := range perNode {
		if !f.Member(i) || !eng.Alive(i) {
			continue
		}
		if v != value || math.IsNaN(v) || (perVar != nil && perVar[i] != variance) {
			return false
		}
	}
	return true
}
