// Sparse-network DRR-gossip (Section 4 / Theorems 13-14): Local-DRR
// builds the forest over the overlay's links, convergecast and broadcast
// run on tree edges (which are graph edges), and Phase III gossips
// between roots via the overlay's routing protocol. The pipeline is
// generic over overlay.Overlay — Chord keeps its finger router and
// rejection sampler (T = O(log n) rounds, M = O(log n) messages per
// random-node sample, giving O(log^2 n) time and O(n log n) messages
// overall, Theorem 14), while arbitrary connected graphs route through
// the landmark tree of internal/overlay with per-sample cost bounded by
// twice the tree depth. Theorem 13 bounds the expected root count by the
// harmonic degree sum Σ 1/(d_i+1) on any graph.
package drrgossip

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/agg"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/localdrr"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// SparseOptions tune the sparse pipelines; zero values pick defaults.
type SparseOptions struct {
	LocalDRR     localdrr.Options
	Convergecast convergecast.Options
	GossipIters  int // gossip-procedure iterations (0 = 2 log n + 12)
	SampleIters  int // sampling-procedure iterations (0 = log n + 8)
	AveIters     int // push-sum iterations (0 = 4 log n + 24)
}

// ErrCrashedOverlay is returned when the engine has crashed nodes:
// overlay routing repair (e.g. Chord successor-list maintenance under
// churn) is outside this reproduction's scope, matching the paper, which
// analyses sparse topologies without the crash model.
var ErrCrashedOverlay = errors.New("drrgossip: sparse pipelines require all nodes alive")

const (
	kindSparseVal   uint8 = 0x41
	kindSparseInq   uint8 = 0x42
	kindSparseReply uint8 = 0x43
	kindSparseShare uint8 = 0x44
)

// appendClimb appends the tree path from node j up to its root
// (excluding j itself) and returns the extended buffer; nothing is
// appended when j is a root.
func appendClimb(dst []int, f *forest.Forest, j int) []int {
	for cur := j; !f.IsRoot(cur); {
		cur = f.Parent(cur)
		dst = append(dst, cur)
	}
	return dst
}

// sampleRootPath draws a near-uniform random node as seen from root r
// and builds in buf the hop path to that node's root: overlay-route to
// the sampled node, then climb its ranking tree. It returns buf (reset
// and refilled) so each gossip procedure reuses one path buffer. The
// routing cost of rejected sampling attempts is charged to the engine.
// An empty path means the sample landed on r itself — or, under dynamic
// membership, on a node that has crashed out of the forest: the route is
// still paid for, but there is no tree to climb and callers keep their
// mass.
func sampleRootPath(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, r int, buf []int) []int {
	j, path, totalHops := ov.AppendSample(buf[:0], eng.RNG(r), r)
	if extra := totalHops - len(path); extra > 0 {
		eng.Charge(int64(extra)) // rejected routing attempts are traffic too
	}
	if !f.Member(j) {
		eng.Charge(int64(len(path))) // the route to the dead end is traffic too
		return path[:0]
	}
	return appendClimb(path, f, j)
}

// shipToRandomRoot routes a payload from root r to the root of a
// near-uniform random node (nothing is sent when the sample lands on r
// itself), building the route in buf, which it returns for reuse.
func shipToRandomRoot(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, r int, buf []int, pay sim.Payload) []int {
	buf = sampleRootPath(eng, ov, f, r, buf)
	eng.SendRouted(r, buf, pay)
	return buf
}

// drainTicks advances the engine `ticks` rounds, invoking scan on every
// root's inbox after each round (routed messages arrive at staggered
// times).
func drainTicks(eng *sim.Engine, roots []int, ticks int, scan func(r int, m sim.Message)) {
	for k := 0; k < ticks; k++ {
		eng.Tick()
		for _, r := range roots {
			for _, m := range eng.Inbox(r) {
				scan(r, m)
			}
		}
	}
}

// ticksPerIteration bounds the rounds a routed gossip exchange needs:
// an overlay route (<= RouteBound hops) plus a tree climb (<= max
// height).
func ticksPerIteration(ov overlay.Overlay, f *forest.Forest) int {
	return ov.RouteBound() + f.MaxHeight() + 2
}

func (o SparseOptions) gossipIters(n int) int {
	if o.GossipIters != 0 {
		return o.GossipIters
	}
	return 2*int(math.Ceil(math.Log2(float64(n)))) + 12
}

func (o SparseOptions) sampleIters(n int) int {
	if o.SampleIters != 0 {
		return o.SampleIters
	}
	return int(math.Ceil(math.Log2(float64(n)))) + 8
}

func (o SparseOptions) aveIters(n int) int {
	if o.AveIters != 0 {
		return o.AveIters
	}
	return 4*int(math.Ceil(math.Log2(float64(n)))) + 24
}

// sparsePhase12 runs Local-DRR and Phase II over the overlay.
func sparsePhase12(eng *sim.Engine, ov overlay.Overlay, opts SparseOptions) (*forest.Forest, []int, *PhaseStats, error) {
	if eng.NumAlive() != eng.N() {
		return nil, nil, nil, ErrCrashedOverlay
	}
	if ov.Graph().N() != eng.N() {
		return nil, nil, nil, fmt.Errorf("drrgossip: overlay %s has %d nodes, engine %d", ov.Name(), ov.Graph().N(), eng.N())
	}
	var ph PhaseStats
	eng.SetPhase(PhaseDRR)
	ldres, err := localdrr.Run(eng, ov.Graph(), opts.LocalDRR)
	if err != nil {
		return nil, nil, nil, err
	}
	ph.DRR = ldres.Stats
	eng.SetPhase(PhaseAggregate)
	rootTo, c, err := convergecast.BroadcastRootAddr(eng, ldres.Forest, opts.Convergecast)
	if err != nil {
		return nil, nil, nil, err
	}
	ph.Aggregate = c
	return ldres.Forest, rootTo, &ph, nil
}

// sparseGossipMax runs the Gossip-max gossip+sampling procedures over
// routed overlay transport and returns per-root estimates.
func sparseGossipMax(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, init map[int]float64, opts SparseOptions) (map[int]float64, error) {
	roots := f.Roots()
	val := make(map[int]float64, len(roots))
	for _, r := range roots {
		v, ok := init[r]
		if !ok {
			return nil, fmt.Errorf("drrgossip: missing init for root %d", r)
		}
		val[r] = v
	}
	ticks := ticksPerIteration(ov, f)
	n := eng.N()
	var path []int // one route buffer for every sample and reply below
	var inquiries []sim.Message

	for t := 0; t < opts.gossipIters(n); t++ {
		for _, r := range roots {
			if !eng.Alive(r) {
				continue // crashed roots place no calls
			}
			path = shipToRandomRoot(eng, ov, f, r, path, sim.Payload{Kind: kindSparseVal, A: val[r]})
		}
		drainTicks(eng, roots, ticks, func(r int, m sim.Message) {
			if m.Pay.Kind == kindSparseVal && m.Pay.A > val[r] {
				val[r] = m.Pay.A
			}
		})
	}
	for t := 0; t < opts.sampleIters(n); t++ {
		inquiries = inquiries[:0]
		for _, r := range roots {
			if !eng.Alive(r) {
				continue
			}
			path = shipToRandomRoot(eng, ov, f, r, path, sim.Payload{Kind: kindSparseInq, X: int64(r)})
		}
		drainTicks(eng, roots, ticks, func(r int, m sim.Message) {
			if m.Pay.Kind == kindSparseInq {
				inquiries = append(inquiries, sim.Message{From: int(m.Pay.X), To: r})
			}
		})
		for _, inq := range inquiries {
			responder, inquirer := inq.To, inq.From
			path = ov.AppendRoute(path[:0], responder, inquirer)
			eng.SendRouted(responder, path, sim.Payload{Kind: kindSparseReply, A: val[responder]})
		}
		drainTicks(eng, roots, ticks, func(r int, m sim.Message) {
			if m.Pay.Kind == kindSparseReply && m.Pay.A > val[r] {
				val[r] = m.Pay.A
			}
		})
	}
	return val, nil
}

// sparseGossipAve runs push-sum over roots with routed transport. With
// reliable set, shares travel with link-layer retransmission and are
// restored to the sender when undeliverable, so no push-sum mass is ever
// destroyed — required by the distinguished-root Sum/Count variants,
// whose denominator is a single unit of mass (see gossip.AveOptions).
func sparseGossipAve(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, init map[int]convergecast.SumCount, opts SparseOptions, reliable bool) (map[int]float64, error) {
	roots := f.Roots()
	s := make(map[int]float64, len(roots))
	g := make(map[int]float64, len(roots))
	for _, r := range roots {
		sc, ok := init[r]
		if !ok {
			return nil, fmt.Errorf("drrgossip: missing init for root %d", r)
		}
		s[r], g[r] = sc.Sum, sc.Count
	}
	ticks := ticksPerIteration(ov, f)
	// In reliable mode, shares are tracked until their delivery round:
	// if the destination root crashes while they are in flight, the
	// engine discards them and the sender's ack times out — the share is
	// restored, so mid-run crashes cannot bleed push-sum mass (a no-op
	// in the static model).
	type inflight struct {
		r, dst, due int
		s, g        float64
	}
	var pendingShares []inflight
	var path []int // one route buffer for every share
	for t := 0; t < opts.aveIters(eng.N()); t++ {
		for _, r := range roots {
			if !eng.Alive(r) {
				continue // a crashed root's (s, g) mass freezes in place
			}
			path = sampleRootPath(eng, ov, f, r, path)
			if len(path) == 0 {
				continue // sampled own root (or a dead end); mass stays
			}
			halfS, halfG := s[r]/2, g[r]/2
			pay := sim.Payload{Kind: kindSparseShare, A: halfS, B: halfG}
			s[r], g[r] = halfS, halfG
			if reliable {
				if !eng.SendRoutedReliable(r, path, pay, 0) {
					s[r], g[r] = s[r]*2, g[r]*2 // undeliverable: restore
				} else {
					pendingShares = append(pendingShares, inflight{
						r: r, dst: path[len(path)-1],
						due: eng.Round() + len(path), s: halfS, g: halfG,
					})
				}
			} else {
				eng.SendRouted(r, path, pay)
			}
		}
		for k := 0; k < ticks; k++ {
			eng.Tick()
			if len(pendingShares) > 0 {
				kept := pendingShares[:0]
				for _, sh := range pendingShares {
					switch {
					case sh.due > eng.Round():
						kept = append(kept, sh) // still in flight
					case !eng.Alive(sh.dst):
						s[sh.r] += sh.s // ack timeout: restore
						g[sh.r] += sh.g
					}
				}
				pendingShares = kept
			}
			for _, r := range roots {
				for _, m := range eng.Inbox(r) {
					if m.Pay.Kind == kindSparseShare {
						s[r] += m.Pay.A
						g[r] += m.Pay.B
					}
				}
			}
			if eng.WantResidual() {
				eng.ReportResidual(gossip.EstimateSpread(roots, s, g))
			}
		}
	}
	est := make(map[int]float64, len(roots))
	for _, r := range roots {
		if g[r] != 0 {
			est[r] = s[r] / g[r]
		} else {
			est[r] = math.NaN()
		}
	}
	return est, nil
}

// MaxSparse runs DRR-gossip-max over any overlay (Theorem 14 pipeline).
func MaxSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	f, _, ph, err := sparsePhase12(eng, ov, opts)
	if err != nil {
		return nil, err
	}
	covmax, c, err := convergecast.Max(eng, f, values, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Aggregate = addCounters(ph.Aggregate, c)

	before := eng.Stats()
	eng.SetPhase(PhaseGossip)
	est, err := sparseGossipMax(eng, ov, f, covmax, opts)
	if err != nil {
		return nil, err
	}
	ph.Gossip = eng.Stats().Sub(before)

	eng.SetPhase(PhaseBroadcast)
	perNode, c3, err := convergecast.BroadcastValue(eng, f, est, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Broadcast = c3
	value := bestEffortValue(eng, f, perNode[f.LargestRoot()], est)
	return finish(eng, f, value, perNode, *ph), nil
}

// MinSparse runs the Min variant (Gossip-max on negated values).
func MinSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions) (*Result, error) {
	neg := make([]float64, len(values))
	for i, v := range values {
		neg[i] = -v
	}
	res, err := MaxSparse(eng, ov, neg, opts)
	if err != nil {
		return nil, err
	}
	res.Value = -res.Value
	for i := range res.PerNode {
		res.PerNode[i] = -res.PerNode[i]
	}
	return res, nil
}

// AveSparse runs DRR-gossip-ave over any overlay: Gossip-max on tree
// sizes elects the largest root, push-sum converges there, Data-spread
// distributes the answer, and the trees broadcast it to every node.
func AveSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions) (*Result, error) {
	return avePipelineSparse(eng, ov, values, opts, pushAve)
}

// SumSparse computes the global sum over any overlay with the
// distinguished-root push-sum (reliable routed shares).
func SumSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions) (*Result, error) {
	return avePipelineSparse(eng, ov, values, opts, pushSum)
}

// CountSparse computes the number of nodes over any overlay.
func CountSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions) (*Result, error) {
	return avePipelineSparse(eng, ov, values, opts, pushCount)
}

// RankSparse computes Rank(q) = |{i : v_i <= q}| over any overlay by
// summing indicator values.
func RankSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, q float64, opts SparseOptions) (*Result, error) {
	return SumSparse(eng, ov, agg.Indicator(values, q), opts)
}

func avePipelineSparse(eng *sim.Engine, ov overlay.Overlay, values []float64, opts SparseOptions, mode pushMode) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	f, _, ph, err := sparsePhase12(eng, ov, opts)
	if err != nil {
		return nil, err
	}
	covsum, c, err := convergecast.Sum(eng, f, values, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Aggregate = addCounters(ph.Aggregate, c)

	before := eng.Stats()
	eng.SetPhase(PhaseGossip)
	keys := make(map[int]float64, f.NumTrees())
	for r, sc := range covsum {
		keys[r] = largestKey(int(sc.Count), r)
	}
	kest, err := sparseGossipMax(eng, ov, f, keys, opts)
	if err != nil {
		return nil, err
	}
	maxKey := math.Inf(-1)
	for _, v := range kest {
		if v > maxKey {
			maxKey = v
		}
	}
	z, err := electRoot(eng, f, maxKey, keys)
	if err != nil {
		return nil, err
	}

	// Sum and Count ship their shares reliably: their distinguished-root
	// denominator is a single unit of mass whose loss cannot be averaged
	// away, unlike the Ave ratio where losses cancel.
	est, err := sparseGossipAve(eng, ov, f, buildInit(mode, covsum, z), opts, mode != pushAve)
	if err != nil {
		return nil, err
	}

	// Data-spread of z's estimate; under mid-run crashes fall back to the
	// best surviving estimate (see bestEffortValue).
	value := bestEffortValue(eng, f, est[z], est)
	spreadInit := make(map[int]float64, f.NumTrees())
	for _, r := range f.Roots() {
		spreadInit[r] = math.Inf(-1)
	}
	spreadInit[z] = value
	sest, err := sparseGossipMax(eng, ov, f, spreadInit, opts)
	if err != nil {
		return nil, err
	}
	ph.Gossip = eng.Stats().Sub(before)

	eng.SetPhase(PhaseBroadcast)
	perNode, c3, err := convergecast.BroadcastValue(eng, f, sest, opts.Convergecast)
	if err != nil {
		return nil, err
	}
	ph.Broadcast = c3
	return finish(eng, f, value, perNode, *ph), nil
}
