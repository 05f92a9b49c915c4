// Package drrgossip composes the three phases of the paper into the
// complete DRR-gossip algorithms: DRR-gossip-max (Algorithm 7),
// DRR-gossip-ave (Algorithm 8) and the derived aggregates (Min, Sum,
// Count, Rank) obtained by the paper's "suitable modifications".
//
// Complexity (Theorems 2-7): O(log n) rounds and O(n log log n) messages,
// the message bill dominated by Phase I; Phases II and III cost O(n)
// messages each.
//
// Sum and Count use the distinguished-root form of push-sum: Gossip-max
// on (tree size, root id) keys elects the largest-tree root z (as in
// Algorithm 8), and Gossip-ave runs with weight g0 = 1 at z and 0
// elsewhere, so every ratio converges to Σ s0 / 1 — the global sum (with
// s0 = tree sums) or the live node count (with s0 = tree sizes).
package drrgossip

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/agg"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/sim"
)

// Options tune the composite pipelines; zero values reproduce the paper.
type Options struct {
	DRR          drr.Options
	Convergecast convergecast.Options
	Gossip       gossip.Options
	AveRounds    int // Gossip-ave iterations (0 = default)
}

// Phase labels the pipelines record on the engine (sim.SetPhase) as they
// progress, so per-round observers can attribute time to the paper's
// phases. Observability only — no protocol logic reads them.
const (
	PhaseDRR       = "drr"       // Phase I: (Local-)DRR forest building
	PhaseAggregate = "aggregate" // Phase II: convergecast + root-address broadcast
	PhaseGossip    = "gossip"    // Phase III: root-level gossip (max/ave/spread)
	PhaseBroadcast = "broadcast" // final dissemination down the trees
)

// PhaseStats breaks the run's cost into the paper's phases.
type PhaseStats struct {
	DRR       sim.Counters // Phase I
	Aggregate sim.Counters // Phase II: convergecast(s) + root-address broadcast
	Gossip    sim.Counters // Phase III: gossip-max (+ gossip-ave + data-spread)
	Broadcast sim.Counters // final dissemination down the trees
}

// Total sums the phase counters.
func (p PhaseStats) Total() sim.Counters {
	t := p.DRR
	for _, c := range []sim.Counters{p.Aggregate, p.Gossip, p.Broadcast} {
		t.Rounds += c.Rounds
		t.Messages += c.Messages
		t.Drops += c.Drops
		t.Calls += c.Calls
	}
	return t
}

// Result is the outcome of a DRR-gossip run.
type Result struct {
	// Value is the aggregate at the distinguished root (the consensus
	// value whp).
	Value float64
	// PerNode is every node's final value (NaN for crashed nodes).
	PerNode []float64
	// Consensus reports whether all alive nodes ended with the same value.
	Consensus bool
	Forest    *forest.Forest
	Phases    PhaseStats
	Stats     sim.Counters
}

// ErrNoNodes is returned when the engine has no alive nodes to aggregate.
var ErrNoNodes = errors.New("drrgossip: no alive nodes")

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

// Max runs DRR-gossip-max (Algorithm 7).
func Max(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	return maxPipeline(eng, values, opts, false)
}

// Min runs the Min variant of Algorithm 7 (Gossip-max on negated values).
func Min(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	return maxPipeline(eng, values, opts, true)
}

func maxPipeline(eng *sim.Engine, values []float64, opts Options, negate bool) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	work := values
	if negate {
		work = make([]float64, len(values))
		for i, v := range values {
			work[i] = -v
		}
	}
	var ph PhaseStats

	// Phase I: DRR.
	eng.SetPhase(PhaseDRR)
	dres, err := drr.Run(eng, opts.DRR)
	if err != nil {
		return nil, err
	}
	f := dres.Forest
	ph.DRR = dres.Stats
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}

	// Phase II: convergecast-max + root-address broadcast.
	eng.SetPhase(PhaseAggregate)
	covmax, c1, err := convergecast.Max(eng, f, work, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	rootTo, c2, err := convergecast.BroadcastRootAddr(eng, f, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Aggregate = addCounters(c1, c2)

	// Phase III: gossip-max among roots.
	eng.SetPhase(PhaseGossip)
	gres, err := gossip.Max(eng, f, rootTo, covmax, opts.Gossip)
	if err != nil {
		return nil, err
	}
	ph.Gossip = gres.Stats

	// Final dissemination down the trees.
	eng.SetPhase(PhaseBroadcast)
	perNode, c3, err := convergecast.BroadcastValue(eng, f, gres.Estimates, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Broadcast = c3

	value := bestEffortValue(eng, f, perNode[f.LargestRoot()], gres.Estimates)
	if negate {
		for i := range perNode {
			perNode[i] = -perNode[i]
		}
		value = -value
	}
	return finish(eng, f, value, perNode, ph), nil
}

// bestEffortValue picks the run's reported value. In a healthy run the
// preferred value (the largest root's disseminated result) is finite and
// wins; when mid-run crashes leave it NaN, the first finite estimate of
// a live root stands in (any dead root's frozen estimate as a last
// resort), so faulty runs report a degraded answer instead of NaN.
func bestEffortValue(eng *sim.Engine, f *forest.Forest, preferred float64, est map[int]float64) float64 {
	if !math.IsNaN(preferred) && !math.IsInf(preferred, 0) {
		return preferred
	}
	for _, pass := range [2]bool{true, false} { // live roots first; sorted order
		for _, r := range f.Roots() {
			if eng.Alive(r) != pass {
				continue
			}
			if v, ok := est[r]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	return preferred
}

// Ave runs DRR-gossip-ave (Algorithm 8).
func Ave(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	return avePipeline(eng, values, opts, pushAve)
}

// Sum computes the global sum with the distinguished-root push-sum.
func Sum(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	return avePipeline(eng, values, opts, pushSum)
}

// Count computes the number of alive nodes (the Count aggregate).
func Count(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	return avePipeline(eng, values, opts, pushCount)
}

// Rank computes Rank(q) = |{i alive : v_i <= q}| by summing indicator
// values (the paper's Rank reduction).
func Rank(eng *sim.Engine, values []float64, q float64, opts Options) (*Result, error) {
	return Sum(eng, agg.Indicator(values, q), opts)
}

// pushMode selects how the Gossip-ave initial vectors are built from the
// per-tree convergecast results, given the elected largest root z.
type pushMode int

const (
	pushAve pushMode = iota
	pushSum
	pushCount
)

// electRoot resolves the distinguished root from the won election key.
// In a healthy run the decoded winner is a live root and is returned
// as-is. When mid-run crashes killed it (its tree's mass would be
// unreachable), the election falls back to the live root with the
// largest own key — deterministically, since Roots() is sorted — so the
// push-sum denominator is placed where it can still circulate.
func electRoot(eng *sim.Engine, f *forest.Forest, maxKey float64, keys map[int]float64) (int, error) {
	z := decodeKeyRoot(maxKey)
	if f.IsRoot(z) && eng.Alive(z) {
		return z, nil
	}
	best, bestKey := -1, math.Inf(-1)
	for _, r := range f.Roots() {
		if eng.Alive(r) && keys[r] > bestKey {
			best, bestKey = r, keys[r]
		}
	}
	if best >= 0 {
		return best, nil
	}
	if f.IsRoot(z) {
		return z, nil // every root is dead; keep the elected one
	}
	return -1, fmt.Errorf("drrgossip: elected node %d is not a root", z)
}

func buildInit(mode pushMode, covsum map[int]convergecast.SumCount, z int) map[int]convergecast.SumCount {
	init := make(map[int]convergecast.SumCount, len(covsum))
	for r, sc := range covsum {
		switch mode {
		case pushAve:
			// (tree sum, tree size): ratios converge to Σsums/Σsizes.
			init[r] = sc
		case pushSum:
			// (tree sum, [r==z]): ratios converge to Σsums/1.
			g := 0.0
			if r == z {
				g = 1
			}
			init[r] = convergecast.SumCount{Sum: sc.Sum, Count: g}
		case pushCount:
			// (tree size, [r==z]): ratios converge to Σsizes/1 = n_alive.
			g := 0.0
			if r == z {
				g = 1
			}
			init[r] = convergecast.SumCount{Sum: sc.Count, Count: g}
		}
	}
	return init
}

func avePipeline(eng *sim.Engine, values []float64, opts Options, mode pushMode) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	var ph PhaseStats

	// Phase I: DRR.
	eng.SetPhase(PhaseDRR)
	dres, err := drr.Run(eng, opts.DRR)
	if err != nil {
		return nil, err
	}
	f := dres.Forest
	ph.DRR = dres.Stats
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}

	// Phase II: convergecast-sum + root-address broadcast.
	eng.SetPhase(PhaseAggregate)
	covsum, c1, err := convergecast.Sum(eng, f, values, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	rootTo, c2, err := convergecast.BroadcastRootAddr(eng, f, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Aggregate = addCounters(c1, c2)

	// Phase III(a): Gossip-max on (tree size, root id) keys elects the
	// largest-tree root z; every root learns the winning key, hence z.
	eng.SetPhase(PhaseGossip)
	keys := make(map[int]float64, f.NumTrees())
	for r, sc := range covsum {
		keys[r] = largestKey(int(sc.Count), r)
	}
	kres, err := gossip.Max(eng, f, rootTo, keys, opts.Gossip)
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
	z, err := electRoot(eng, f, maxKey, keys)
	if err != nil {
		return nil, err
	}

	// Phase III(b): Gossip-ave; the guarantee (Theorem 7) holds at z.
	// Sum and Count run with reliable (acknowledged) shares: their
	// distinguished-root denominator is a single unit of mass whose loss
	// cannot be averaged away, unlike the Ave ratio where losses cancel.
	ares, err := gossip.Ave(eng, f, rootTo, buildInit(mode, covsum, z),
		gossip.AveOptions{
			Rounds:         opts.AveRounds,
			TrackRoot:      -1,
			ReliableShares: mode != pushAve,
		})
	if err != nil {
		return nil, err
	}

	// Phase III(c): Data-spread of z's estimate to all roots. Under
	// mid-run crashes z's estimate can be NaN (or z freshly dead); the
	// spread then carries the best surviving estimate instead.
	value := bestEffortValue(eng, f, ares.Estimates[z], ares.Estimates)
	sres, err := gossip.Spread(eng, f, rootTo, z, value, opts.Gossip)
	if err != nil {
		return nil, err
	}
	ph.Gossip = addCounters(addCounters(kres.Stats, ares.Stats), sres.Stats)

	// Final dissemination down the trees.
	eng.SetPhase(PhaseBroadcast)
	perNode, c3, err := convergecast.BroadcastValue(eng, f, sres.Estimates, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Broadcast = c3
	return finish(eng, f, value, perNode, ph), nil
}

func finish(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, ph PhaseStats) *Result {
	// Consensus ranges over the nodes still alive at the end of the run:
	// a node that crashed mid-protocol no longer holds (or needs) the
	// answer. In the static model every member is alive, so this is the
	// original all-members check.
	consensus := true
	for i, v := range perNode {
		if !f.Member(i) || !eng.Alive(i) {
			continue
		}
		if v != value || math.IsNaN(v) {
			consensus = false
			break
		}
	}
	return &Result{
		Value:     value,
		PerNode:   perNode,
		Consensus: consensus,
		Forest:    f,
		Phases:    ph,
		Stats:     ph.Total(),
	}
}

func addCounters(a, b sim.Counters) sim.Counters {
	return sim.Counters{
		Rounds:   a.Rounds + b.Rounds,
		Messages: a.Messages + b.Messages,
		Drops:    a.Drops + b.Drops,
		Calls:    a.Calls + b.Calls,
	}
}
