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
// hands z's estimate to every root. Sum, Count and Rank use the
// distinguished-root form: weight g0 = 1 at z and 0 elsewhere, so every
// ratio converges to Σ s0 / 1 — the global sum (s0 = tree sums), the
// live node count (s0 = tree sizes) or the rank (s0 = tree sums of the
// indicator [v <= q]). Moments is Ave with a Σv² lane.
//
// A run folds one or more lanes, each an aggregate with its own values,
// all of one shape: Max and Min; Sum, Count and Rank; Ave; Moments. No
// message, loss draw or election depends on the values, so the lanes of
// a shape share one pass and its bill, and each lane's Result is
// bit-identical to the one its run alone returns (convergecast and
// gossip carry the lanes). Min is a negated lane of the Max pipeline;
// Rank writes its indicator into the Workspace, not a fresh vector.
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

// Kind selects the aggregate a lane computes, and with it the Phase III
// combiner.
type Kind int

const (
	// Max is DRR-gossip-max (Algorithm 7).
	Max Kind = iota
	// Min is Max on negated values.
	Min
	// Ave is DRR-gossip-ave (Algorithm 8).
	Ave
	// Sum is the distinguished-root push-sum over tree sums.
	Sum
	// Count is the distinguished-root push-sum over tree sizes: the
	// number of live nodes.
	Count
	// Moments is Ave with a Σv² push-sum lane: mean and population
	// variance in one run.
	Moments
	// Rank(q) is Sum over the indicator [v <= q] of the values.
	Rank
)

// Shape returns the pipeline kind k runs as. Kinds of one shape send the
// same messages whatever their values (Min is Max on negated values;
// Count and Rank are Sum over other values), so their lanes can share a
// pass and their runs last equally long: a fault plan's horizon is the
// shape's. Ave ships unacknowledged push-sum shares where Sum ships
// reliable ones, and Moments carries a second push-sum lane, so each is
// a shape of its own.
func Shape(k Kind) Kind {
	switch k {
	case Min:
		return Max
	case Count, Rank:
		return Sum
	}
	return k
}

// Lane is one aggregate of a run: its kind, one value per node and, for
// Rank, the threshold q.
type Lane struct {
	Kind   Kind
	Values []float64
	Arg    float64
}

// Result is the outcome of a DRR-gossip run.
type Result struct {
	// Value is the aggregate at the distinguished root (the consensus
	// value whp); the mean for Moments.
	Value float64
	// Variance is the population variance E[v²] − E[v]² (Moments only).
	Variance float64
	// PerNode is every node's final value (NaN for crashed nodes). When
	// the run used a Workspace's storage, it is valid until that
	// workspace's next run.
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
// Phase I's scratch with the forest it rebuilds, Phase II's and Phase
// III's scratch, the convergecast inputs a run derives from its lanes'
// values (negated, indicator or squared values, or several lanes side by
// side), the Results' per-node vectors and the per-node variances a
// Moments run checks for consensus. A caller that runs the pipeline repeatedly keeps one (the facade: one
// per query, shared by all of the query's runs, and one per RunAll
// worker), and every run rebuilds them in place instead of allocating
// them. The zero value is ready to use; a Workspace serves one run at a
// time.
type Workspace struct {
	drr     drr.Scratch
	cc      convergecast.Scratch
	gs      gossip.Scratch
	in      []float64
	perNode []float64 // the Results' PerNode vectors
	perVar  []float64 // a Moments run's per-node variances
}

// Run computes kind over values on eng: on the complete graph when ov is
// nil, over the overlay's links and routes otherwise (a Rank counts the
// values at most 0; pass a Lane to Workspace.Run for another threshold).
// It runs on a fresh Workspace, so the Result is entirely the caller's.
func Run(eng *sim.Engine, ov overlay.Overlay, kind Kind, values []float64) (*Result, error) {
	res, err := new(Workspace).Run(eng, ov, Lane{Kind: kind, Values: values})
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// Run computes every lane in one pass on w's storage, on the complete
// graph when ov is nil and over the overlay otherwise; the lanes must
// share a shape (Max and Min; Sum, Count and Rank; Ave; Moments).
// Result j answers lanes[j] exactly as a run of that lane alone would;
// the lanes' PerNode vectors share one allocation, each capped at its
// own n entries. The Results' PerNode vectors and Forest are w's and
// valid until w's next run.
func (w *Workspace) Run(eng *sim.Engine, ov overlay.Overlay, lanes ...Lane) ([]Result, error) {
	opts := drr.Options{Scratch: &w.drr}
	build := func(eng *sim.Engine) (*forest.Forest, []int, error) {
		if ov != nil {
			return phaseOne(drr.RunLocal(eng, ov.Graph(), opts))
		}
		return phaseOne(drr.Run(eng, opts))
	}
	return w.run(eng, ov, build, lanes)
}

// RunForest computes kind over values on the complete graph with build as
// Phase I: any forest builder (DRR, or a baseline's clustering) feeds the
// same Phases II–III, and its cost is billed to PhaseDRR. A builder
// that learns each node's root address while building returns it as
// rootTo and Phase II skips the root-address broadcast; a nil rootTo
// makes Phase II broadcast the addresses after the convergecast. values
// is read only after build returns, so a builder may fill it.
func RunForest(eng *sim.Engine, build func(*sim.Engine) (f *forest.Forest, rootTo []int, err error), kind Kind, values []float64) (*Result, error) {
	res, err := new(Workspace).run(eng, nil, build, []Lane{{Kind: kind, Values: values}})
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// phaseOne adapts a DRR or Local-DRR outcome to a forest builder's
// results; neither learns the root addresses.
func phaseOne(res *drr.Result, err error) (*forest.Forest, []int, error) {
	if err != nil {
		return nil, nil, err
	}
	return res.Forest, nil, nil
}

// check rejects lanes a run cannot fold: none at all, values of the
// wrong length, unknown kinds and kinds of different shapes.
func check(n int, lanes []Lane) error {
	if len(lanes) == 0 {
		return errors.New("drrgossip: no lanes to run")
	}
	for _, ln := range lanes {
		if len(ln.Values) != n {
			return fmt.Errorf("drrgossip: %d values for %d nodes", len(ln.Values), n)
		}
		if ln.Kind < Max || ln.Kind > Rank {
			return fmt.Errorf("drrgossip: unknown aggregate kind %d", int(ln.Kind))
		}
		if Shape(ln.Kind) != Shape(lanes[0].Kind) {
			return fmt.Errorf("drrgossip: kinds %d and %d do not share a pass", int(lanes[0].Kind), int(ln.Kind))
		}
	}
	return nil
}

// inputs returns the convergecast input lanes of a run, lane-major: each
// lane's values as its kind enters the fold — negated for Min, the
// indicator [v <= q] for Rank, v and then v² for Moments — read only now
// because a builder may fill the values during Phase I. A lone lane that
// folds its values as they are passes them through; every other input is
// written into w's storage.
func (w *Workspace) inputs(lanes []Lane, n, width int) []float64 {
	if k := lanes[0].Kind; len(lanes) == 1 && k != Min && k != Rank && k != Moments {
		return lanes[0].Values
	}
	if cap(w.in) < len(lanes)*width*n {
		w.in = make([]float64, len(lanes)*width*n)
	}
	in := w.in[:len(lanes)*width*n]
	for j, ln := range lanes {
		dst := in[j*width*n:]
		switch ln.Kind {
		case Min:
			for i, v := range ln.Values {
				dst[i] = -v
			}
		case Rank:
			for i, v := range ln.Values {
				dst[i] = 0
				if v <= ln.Arg {
					dst[i] = 1
				}
			}
		case Moments:
			for i, v := range ln.Values {
				dst[i], dst[n+i] = v, v*v
			}
		default:
			copy(dst, ln.Values)
		}
	}
	return in
}

// run is the three-phase skeleton on w's storage: Phase I is build, and
// the transport between roots is the overlay's routes when ov is set, the
// tree relay otherwise.
func (w *Workspace) run(eng *sim.Engine, ov overlay.Overlay, build func(*sim.Engine) (*forest.Forest, []int, error), lanes []Lane) ([]Result, error) {
	n := eng.N()
	if err := check(n, lanes); err != nil {
		return nil, err
	}
	if ov != nil {
		if eng.NumAlive() != n {
			return nil, ErrCrashedOverlay
		}
		if ov.Graph().N() != n {
			return nil, fmt.Errorf("drrgossip: overlay %s has %d nodes, engine %d", ov.Name(), ov.Graph().N(), n)
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
	sh := Shape(lanes[0].Kind)
	maxLike := sh == Max
	width := 1 // convergecast and push-sum lanes per lane
	if sh == Moments {
		width = 2
	}
	in := w.inputs(lanes, n, width)

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
	var covmax, sums, sizes []float64
	if maxLike {
		covmax, err = w.cc.Max(eng, f, in)
	} else {
		sums, sizes, err = w.cc.Sum(eng, f, in)
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

	// Phase III: root gossip with the shape's combiner.
	eng.SetPhase(PhaseGossip)
	var g phase3
	if maxLike {
		gres, err := w.gs.Max(tr, covmax)
		if err != nil {
			return nil, err
		}
		g.est = gres.Estimates
	} else if g, err = w.pushSum(eng, f, tr, lanes, sums, sizes, width); err != nil {
		return nil, err
	}

	// Final dissemination down the trees.
	eng.SetPhase(PhaseBroadcast)
	perNode, err := w.cc.BroadcastValue(eng, f, g.est, w.perNode)
	if err != nil {
		return nil, err
	}
	w.perNode = perNode
	var perVar []float64
	if g.varEst != nil {
		if perVar, err = w.cc.BroadcastValue(eng, f, g.varEst, w.perVar); err != nil {
			return nil, err
		}
		w.perVar = perVar
	}

	m := f.NumTrees()
	res := make([]Result, len(lanes))
	for j, ln := range lanes {
		r := &res[j]
		r.PerNode, r.Forest = perNode[j*n:(j+1)*n:(j+1)*n], f
		var pv []float64
		if maxLike {
			// Gossip-max answers with the largest root's disseminated
			// value; when mid-run crashes leave it NaN, a surviving
			// root's estimate stands in.
			r.Value = r.PerNode[f.LargestRoot()]
			if !finite(r.Value) {
				est := g.est[j*m : (j+1)*m]
				if k := fallbackRoot(eng, f, est); k >= 0 {
					r.Value = est[k]
				}
			}
		} else {
			r.Value = g.value[j]
		}
		if perVar != nil {
			r.Variance, pv = g.variance[j], perVar[j*n:(j+1)*n:(j+1)*n]
		}
		r.Consensus = consensus(eng, f, r.Value, r.PerNode, r.Variance, pv)
		if ln.Kind == Min {
			r.Value = -r.Value
			for i := range r.PerNode {
				r.PerNode[i] = -r.PerNode[i]
			}
		}
	}
	return res, nil
}

// phase3 is a combiner's outcome: the per-root values the trees
// disseminate, one lane per run lane, lane-major by root slot, and the
// answers they carry.
type phase3 struct {
	est    []float64 // per-root values to disseminate
	varEst []float64 // per-root variances (Moments only)
	// value and variance are each lane's answer (push-sum combiners
	// only; the max combiner's answer is read after dissemination).
	value, variance []float64
}

// pushSum is the push-sum combiner: elect the largest-tree root z,
// push-sum every lane towards it, and spread z's estimates (and, for
// Moments, its variances) to every root. sums holds the convergecast
// lanes, width per run lane, and sizes the tree sizes.
func (w *Workspace) pushSum(eng *sim.Engine, f *forest.Forest, tr gossip.Transport, lanes []Lane, sums, sizes []float64, width int) (phase3, error) {
	roots := f.Roots()
	m := len(roots)
	sh := Shape(lanes[0].Kind)
	// (a) Gossip-max on (tree size, root id) keys elects the largest-tree
	// root z; every root learns the winning key, hence z. The keys
	// depend only on the forest, so every lane shares the election.
	keys := make([]float64, m)
	for k, size := range sizes {
		keys[k] = largestKey(int(size), roots[k])
	}
	kres, err := w.gs.Max(tr, keys)
	if err != nil {
		return phase3{}, err
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
		return phase3{}, err
	}
	z := roots[zk]

	// (b) Push-sum; the guarantee (Theorem 7) holds at z. Ave and
	// Moments start from (tree sums, tree size): ratios converge to
	// Σsums/Σsizes. Sum, Count and Rank start from (s0, [r==z]), s0 the
	// tree sums or, for Count, the tree sizes, so ratios converge to
	// Σs0/1; they ship reliable (acknowledged) shares: their
	// distinguished-root denominator is a single unit of mass whose loss
	// cannot be averaged away, unlike the Ave ratio where losses cancel.
	g0 := sizes
	if sh == Sum {
		g0 = make([]float64, m)
		g0[zk] = 1
		for j, ln := range lanes {
			if ln.Kind == Count {
				copy(sums[j*m:(j+1)*m], sizes)
			}
		}
	}
	ares, err := w.gs.Ave(tr, sums, g0, gossip.AveOptions{
		TrackRoot:      -1,
		ReliableShares: sh == Sum,
	})
	if err != nil {
		return phase3{}, err
	}

	// (c) Data-spread of z's estimates to all roots. Under mid-run
	// crashes a lane's estimate at z can be NaN (or z freshly dead); the
	// spread then carries that lane's best surviving estimate instead.
	g := phase3{value: make([]float64, len(lanes))}
	if sh == Moments {
		g.variance = make([]float64, len(lanes))
	}
	for j := range lanes {
		o := j * width * m
		est := ares.Estimates[o : o+m]
		src := zk
		if !finite(est[zk]) {
			if k := fallbackRoot(eng, f, est); k >= 0 {
				src = k
			}
		}
		g.value[j] = est[src]
		if sh == Moments {
			g.variance[j] = ares.Sums[o+m+src]/ares.Weights[src] - g.value[j]*g.value[j]
		}
	}
	sres, err := w.gs.Spread(tr, z, g.value)
	if err != nil {
		return phase3{}, err
	}
	g.est = sres.Estimates
	if sh == Moments {
		vres, err := w.gs.Spread(tr, z, g.variance)
		if err != nil {
			return phase3{}, err
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
