// Package hms implements the sampling core of the Haeupler–Mohapatra–Su
// quantile protocol ("Optimal Gossip Algorithms for Exact and Approximate
// Quantile Computations", arXiv:1711.09258), adapted to the DRR-gossip
// session facade.
//
// The protocol replaces the facade's Rank-bisection loop (O(log(range/tol))
// sequential aggregate runs) with two much cheaper ingredients:
//
//  1. A sampling session (Sample): every node gossip-samples one uniformly
//     random peer's value per batch — one engine round on the complete
//     graph, O(RouteBound) rounds on a sparse overlay. Nodes hold a shared
//     candidate interval (Lo, Hi] that is pruned between batch epochs: the
//     accumulated in-interval sample multiset localizes the target rank to
//     a shrinking neighborhood (with a 4σ safety margin in sample-index
//     space), so later batches discard out-of-interval values on arrival
//     and the retained multiset stays small. After O(log n) batches every
//     population value near the target has been observed many times over.
//  2. A certification walk (Walk): a handful of exact Rank probes —
//     ordinary aggregate runs through the existing Count/Rank machinery —
//     anchor the sample-based rank estimates and then certify the exact
//     φ-quantile. Because the anchored estimate of a rank distance d has
//     standard deviation ≈ sqrt(d/b) after b batches, each probe shrinks
//     the remaining uncertainty quadratically and the walk terminates in
//     ~3 probes independent of n.
//
// The driver is centralized bookkeeping over honest engine traffic: every
// sample ride a real call (billed messages, real loss, real crashed
// callees), and the per-node choice logic is trivially local (each node
// draws from its own RNG stream under a fresh derive-domain, so the
// bisection path's randomness is untouched).
package hms

import (
	"fmt"
	"math"
	"sort"

	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// DeriveDomain is the xrand derive-domain of the per-node sampling
// streams. It is disjoint from the engine's internal domains (loss 0x10,
// crash 0x20, node RNG 0x30) and from every protocol driver, so adding
// HMS runs to a session cannot perturb any other run's randomness.
const DeriveDomain = 0x60

// PhaseName labels the sampling session's cost in Answer.PhaseCosts and
// in telemetry phase events.
const PhaseName = "sample"

// Payload kinds of the sparse-overlay sampling batches (dense batches
// resolve synchronously and need no inbox traffic of their own).
const (
	kindSampleReq   uint8 = 0x91
	kindSampleReply uint8 = 0x92
)

// Options tune a sampling session.
type Options struct {
	// Target is the 1-based rank t = ceil(φ·Count) the session localizes.
	Target int
	// Count is the alive population m, as measured by a Count run.
	Count int
}

// Summary is the outcome of a sampling session: the retained in-interval
// sample multiset plus the bookkeeping a Walk needs to turn exact Rank
// probes into a certified quantile.
type Summary struct {
	// In holds the retained samples inside (Lo, Hi], sorted ascending.
	In []float64
	// Below counts received samples that fell at or below Lo (their
	// values are discarded; only the count matters for rank arithmetic).
	Below int
	// Above counts received samples above Hi.
	Above int
	// Total counts all received samples (Below + len(In) + Above plus
	// the in-interval samples pruned away by later interval shrinks,
	// which are re-accounted into Below/Above as they drop).
	Total int
	// Lo and Hi bound the final candidate interval (Lo, Hi].
	Lo, Hi float64
	// Target and Count echo the session parameters (post-clamping).
	Target, Count int
	// Batches is the number of sampling batches executed.
	Batches int
}

// epochSizes returns the batch counts between interval shrinks: two quick
// bootstrap epochs localize the interval while the retained multiset is
// still the whole population sample, then steady chunks densify it.
func epochSizes(batches int) []int {
	sizes := []int{2, 4, 8}
	used := 14
	for used < batches {
		c := 10
		if used+c > batches {
			c = batches - used
		}
		sizes = append(sizes, c)
		used += c
	}
	if batches < 14 {
		sizes = nil
		for used = 0; used < batches; {
			c := 2
			if used+c > batches {
				c = batches - used
			}
			sizes = append(sizes, c)
			used += c
		}
	}
	return sizes
}

// Sample runs one sampling session on the engine: 2·⌈log2 m⌉ + 24
// gossip-sampling batches (the O(log n) schedule of the paper, m =
// opts.Count) with interval pruning between epochs. ov selects the
// transport: nil uses the complete graph's synchronous calls (one round
// per batch), non-nil routes request/reply pairs over the overlay
// (2·RouteBound rounds per batch). values[i] is node i's input.
func Sample(eng *sim.Engine, ov overlay.Overlay, values []float64, opts Options) (*Summary, error) {
	n := eng.N()
	if len(values) != n {
		return nil, fmt.Errorf("hms: %d values for %d nodes", len(values), n)
	}
	m := opts.Count
	if m <= 0 {
		m = eng.NumAlive()
	}
	if m <= 0 {
		return nil, fmt.Errorf("hms: empty population")
	}
	t := opts.Target
	if t < 1 {
		t = 1
	}
	if t > m {
		t = m
	}
	// The O(log n) sampling schedule: enough batches that every
	// population value near the target is expected to appear ~b times in
	// the multiset (miss probability e^-b per value).
	batches := 2*sim.CeilLog2(m) + 24
	eng.SetPhase(PhaseName)

	s := &Summary{
		Lo:     math.Inf(-1),
		Hi:     math.Inf(1),
		Target: t,
		Count:  m,
	}
	// Per-node sampling streams under the fresh derive-domain; persistent
	// across batches so consecutive batches draw fresh peers.
	streams := make([]xrand.Stream, n)
	for i := 0; i < n; i++ {
		streams[i] = xrand.DeriveStream(eng.Seed(), DeriveDomain, uint64(i))
	}
	// epoch holds the current epoch's in-interval arrivals; merged into
	// s.In (kept sorted) at every shrink point.
	var epoch []float64
	collect := func(v float64) {
		s.Total++
		switch {
		case v <= s.Lo:
			s.Below++
		case v > s.Hi:
			s.Above++
		default:
			epoch = append(epoch, v)
		}
	}
	runBatch := func() {
		if ov == nil {
			denseBatch(eng, values, streams, collect)
		} else {
			sparseBatch(eng, ov, values, streams, collect)
		}
	}
	for _, size := range epochSizes(batches) {
		for b := 0; b < size; b++ {
			runBatch()
			s.Batches++
		}
		sort.Float64s(epoch)
		s.In = merge(s.In, epoch)
		epoch = epoch[:0]
		s.shrink()
	}
	return s, nil
}

// denseBatch performs one complete-graph sampling batch: every alive node
// calls one uniformly random node (crashed callees silently eat the
// request, exactly like any other call) and the callee's value rides the
// synchronous reply. One engine round.
func denseBatch(eng *sim.Engine, values []float64, streams []xrand.Stream, collect func(float64)) {
	n := eng.N()
	calls := eng.CallSlots()
	for i := 0; i < n; i++ {
		if !eng.Alive(i) {
			continue
		}
		calls = append(calls, sim.Call{From: i, To: streams[i].Intn(n)})
	}
	eng.ResolveCalls(calls,
		func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
			return sim.Payload{Kind: kindSampleReply, A: values[callee]}, true
		},
		func(caller int, resp sim.Payload) {
			collect(resp.A)
		})
	eng.Tick()
}

// sparseBatch performs one overlay sampling batch: every alive node draws
// a near-uniform peer via the overlay's AppendSample walk (rejected hops
// are charged like every sparse driver does), routes it a request, and
// the callee routes the value back. 2·RouteBound rounds drain both legs.
func sparseBatch(eng *sim.Engine, ov overlay.Overlay, values []float64, streams []xrand.Stream, collect func(float64)) {
	n := eng.N()
	var path []int // one route buffer for every request and reply
	for i := 0; i < n; i++ {
		if !eng.Alive(i) {
			continue
		}
		var peer, totalHops int
		peer, path, totalHops = ov.AppendSample(path[:0], &streams[i], i)
		eng.Charge(int64(totalHops - len(path)))
		if peer == i || len(path) == 0 {
			// Self-sample: the value is local, no traffic needed.
			collect(values[i])
			continue
		}
		eng.SendRouted(i, path, sim.Payload{Kind: kindSampleReq, X: int64(i)})
	}
	drain := 2 * ov.RouteBound()
	if drain < 2 {
		drain = 2
	}
	for tick := 0; tick < drain; tick++ {
		eng.Tick()
		for node := 0; node < n; node++ {
			for _, msg := range eng.Inbox(node) {
				switch msg.Pay.Kind {
				case kindSampleReq:
					caller := int(msg.Pay.X)
					path = ov.AppendRoute(path[:0], node, caller)
					eng.SendRouted(node, path, sim.Payload{Kind: kindSampleReply, A: values[node]})
				case kindSampleReply:
					collect(msg.Pay.A)
				}
			}
		}
	}
}

// merge merges two sorted slices into the first.
func merge(dst, src []float64) []float64 {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 {
		return append(dst, src...)
	}
	out := make([]float64, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		if dst[i] <= src[j] {
			out = append(out, dst[i])
			i++
		} else {
			out = append(out, src[j])
			j++
		}
	}
	out = append(out, dst[i:]...)
	out = append(out, src[j:]...)
	return out
}

// shrink prunes the candidate interval to the estimated target
// neighborhood with a 4σ margin in sample-index space: the number of
// samples at or below the target value is concentrated around
// Total·(t/m) with standard deviation sqrt(Total·p·(1−p)), so keeping
// [k*−w, k*+w] retains the target with overwhelming probability while
// discarding the bulk of the retained multiset.
func (s *Summary) shrink() {
	if len(s.In) == 0 || s.Total == 0 {
		return
	}
	p := float64(s.Target) / float64(s.Count)
	kStar := float64(s.Total)*p - float64(s.Below)
	w := 4*math.Sqrt(float64(s.Total)*p*(1-p)) + 2
	loIdx := int(math.Floor(kStar-w)) - 1 // 0-based: samples [0..loIdx] drop below
	hiIdx := int(math.Ceil(kStar+w)) - 1  // 0-based: keep through hiIdx
	if loIdx >= len(s.In) {
		loIdx = len(s.In) - 1
	}
	if loIdx >= 0 {
		newLo := s.In[loIdx]
		// Drop every sample <= newLo (duplicates of the boundary value
		// must drop with it: the interval is open at Lo).
		cut := sort.Search(len(s.In), func(i int) bool { return s.In[i] > newLo })
		if cut > loIdx+1 {
			// The boundary value's duplicate pile extends past the margin
			// index — for extreme targets (t near 1 or m) the pile IS the
			// estimated target, and cutting it would prune the quantile
			// out of the interval. Step down to the previous distinct
			// value, or skip the cut entirely.
			first := sort.Search(len(s.In), func(i int) bool { return s.In[i] >= newLo })
			if first == 0 {
				cut = 0
			} else {
				newLo = s.In[first-1]
				cut = first
			}
		}
		if cut > 0 {
			s.Below += cut
			s.In = s.In[cut:]
			hiIdx -= cut
			s.Lo = newLo
		}
	}
	if hiIdx >= 0 && hiIdx < len(s.In)-1 {
		newHi := s.In[hiIdx]
		// Keep every duplicate of the boundary value: closed at Hi.
		cut := sort.Search(len(s.In), func(i int) bool { return s.In[i] > newHi })
		s.Above += len(s.In) - cut
		s.In = s.In[:cut]
		s.Hi = newHi
	}
}
