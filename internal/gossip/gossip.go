// Package gossip implements Phase III of DRR-gossip: the root-level
// gossip algorithms of the paper — Gossip-max (Algorithm 4), Data-spread
// (Algorithm 5) and Gossip-ave (Algorithm 6, a push-sum variant).
//
// All three run on the virtual clique G̃ = clique(V̂) of tree roots and
// are written once, against a Transport that says how a root reaches the
// root of a random node. On the complete graph (Section 3) the Relay
// transport sends to a uniformly random node, which forwards to its own
// root within the same round (the non-address-oblivious step, 2 hops = 2
// messages via sim.SendVia); a root is therefore selected with
// probability proportional to its tree size — exactly the non-uniformity
// Theorems 5-7 analyse. On a sparse overlay (Section 4) the Route
// transport samples a near-uniform node through the overlay, routes to
// it and climbs its tree, one hop per round (Theorems 13-14).
//
// Per-message loss needs no special handling in Gossip-max: it tolerates
// loss statistically (Theorem 5 carries the (1-ρ) factor) and is finished
// off by the sampling procedure (Theorem 6). In Gossip-ave a lost share
// removes proportional (s, g) mass, which perturbs but does not bias the
// converging ratio (Lemma 8 keeps the (1-δ) selection factor); callers
// that cannot afford to lose mass ask for reliable shares, which each
// transport implements with its own retransmission rule.
//
// The results carry estimates only. A run's bill is read from the engine
// the transport drives: sim.Core.Stats, and Ledger or Billed for a phase
// the caller labelled with SetPhase.
package gossip

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/sim"
)

const (
	kindGossipVal uint8 = 0x31
	kindInquiry   uint8 = 0x32
	kindInqReply  uint8 = 0x33
	kindAveShare  uint8 = 0x34
)

// LossInflate scales a round budget by the paper's 1/(1-ρ) factor, where
// ρ = 2δ is the per-relay link-failure probability, further divided by the
// alive fraction (shares aimed at initially-crashed relays are wasted
// rounds).
func LossInflate(base int, eng *sim.Engine) int {
	rho := 2 * eng.Loss()
	if rho >= 0.9 {
		rho = 0.9
	}
	alive := float64(eng.NumAlive()) / float64(eng.N())
	return int(math.Ceil(float64(base)/((1-rho)*alive))) + 1
}

// MaxResult is the outcome of Gossip-max. Per-root values are indexed by
// root slot.
type MaxResult struct {
	// Estimates holds each root's final Max estimate (after sampling).
	Estimates []float64
	// AfterGossip holds the estimates after the gossip procedure only —
	// the quantity Theorem 5 bounds (a constant fraction of roots already
	// hold the true Max).
	AfterGossip []float64
}

// Max runs Algorithm 4 on the roots of the transport's forest. init holds
// every root's initial value by root slot (e.g. the convergecast-max of
// its tree). The gossip procedure (Push) runs O(log n) iterations, the
// sampling procedure O(log n) more, each scaled by the transport
// (loss-inflated on the relay) and each taking the transport's exchange
// time.
func Max(tr Transport, init []float64) (*MaxResult, error) {
	eng, f := tr.env()
	roots := f.Roots()
	val := append([]float64(nil), init...)
	gossipRounds := tr.iterations(2*sim.CeilLog2(eng.N()) + 12)
	sampleRounds := tr.iterations(sim.CeilLog2(eng.N()) + 8)
	if err := Push(tr, val, gossipRounds); err != nil {
		return nil, err
	}
	after := append([]float64(nil), val...)

	// Sampling procedure: inquire a random node's root, which replies
	// with its value; adopt it if larger.
	type inquiry struct{ from, to int } // inquirer root, responder slot
	var inquiries []inquiry
	gather := func(k int) {
		for _, m := range eng.Inbox(roots[k]) {
			if m.Pay.Kind == kindInquiry {
				inquiries = append(inquiries, inquiry{from: int(m.Pay.X), to: k})
			}
		}
	}
	ticks, walk := tr.ticks(), walksDeliveries(tr)
	for t := 0; t < sampleRounds; t++ {
		for _, r := range roots {
			if eng.Alive(r) {
				tr.push(r, sim.Payload{Kind: kindInquiry, X: int64(r)})
			}
		}
		inquiries = inquiries[:0]
		for tick := 0; tick < ticks; tick++ {
			eng.Tick()
			start := len(inquiries)
			eachLanded(tr, gather)
			if walk {
				// Replies go out in responder-slot order, as after a scan.
				slices.SortStableFunc(inquiries[start:], func(a, b inquiry) int { return cmp.Compare(a.to, b.to) })
			}
		}
		for _, q := range inquiries {
			tr.reply(roots[q.to], q.from, sim.Payload{Kind: kindInqReply, A: val[q.to]})
		}
		land(tr, val, kindInqReply)
	}
	return &MaxResult{
		Estimates:   val,
		AfterGossip: after,
	}, nil
}

// Push runs the gossip procedure of Gossip-max for the given number of
// iterations: every live root pushes its estimate to a random node's
// root, and every root adopts each larger value that lands. val holds
// the estimates by root slot and is updated in place. Roots that crash
// mid-run place no further calls (their estimate freezes; the rest of
// the clique keeps gossiping). Max runs it before its sampling
// procedure; on the singleton forest it is the uniform push gossip of
// Kempe et al.
func Push(tr Transport, val []float64, iterations int) error {
	eng, f := tr.env()
	roots := f.Roots()
	if len(val) != len(roots) {
		return fmt.Errorf("gossip: %d init values for %d roots", len(val), len(roots))
	}
	for t := 0; t < iterations; t++ {
		for k, r := range roots {
			if eng.Alive(r) {
				tr.push(r, sim.Payload{Kind: kindGossipVal, A: val[k]})
			}
		}
		land(tr, val, kindGossipVal)
	}
	return nil
}

// land lets one exchange arrive, adopting every larger value of kind.
func land(tr Transport, val []float64, kind uint8) {
	eng, f := tr.env()
	roots := f.Roots()
	adopt := func(k int) {
		for _, m := range eng.Inbox(roots[k]) {
			if m.Pay.Kind == kind && m.Pay.A > val[k] {
				val[k] = m.Pay.A
			}
		}
	}
	for tick := tr.ticks(); tick > 0; tick-- {
		eng.Tick()
		eachLanded(tr, adopt)
	}
}

// Spread runs Data-spread (Algorithm 5): the source root's value is
// spread to all roots by running Gossip-max with every other root
// initialised to -Inf.
func Spread(tr Transport, source int, value float64) (*MaxResult, error) {
	_, f := tr.env()
	if !f.IsRoot(source) {
		return nil, fmt.Errorf("gossip: spread source %d is not a root", source)
	}
	init := make([]float64, f.NumTrees())
	for k := range init {
		init[k] = math.Inf(-1)
	}
	init[f.Slot(source)] = value
	return Max(tr, init)
}

// AveOptions tune Gossip-ave.
type AveOptions struct {
	// TrackRoot records the per-round estimate trajectory of this root
	// (-1 to disable): the convergence curve of Theorem 7.
	TrackRoot int
	// TrackPotential additionally maintains the contribution vectors
	// y_{t,i} of the analysis and records the potential Φ_t of Lemma 8
	// every round. Costs O(m^2) memory; enable only in experiments.
	TrackPotential bool
	// ReliableShares retransmits each share under the transport's
	// reliability rule and restores it to the sender if it never
	// arrives, so no push-sum mass is ever destroyed — the paper's
	// "repeated calls" remedy for lossy links. The Ave aggregate does
	// not need this (losses cancel in its ratio), but the
	// distinguished-root Sum and Count variants do: their denominator
	// starts as a single unit of mass whose early loss would permanently
	// skew the result.
	ReliableShares bool
}

// AveResult is the outcome of Gossip-ave. Per-root values are indexed by
// root slot.
type AveResult struct {
	// Estimates holds each root's final ratio estimate s/g (NaN where
	// the weight never arrived).
	Estimates []float64
	// Mass holds each root's final push-sum state: Sum = s, Sum2 = the
	// second-moment component, Count = the weight g.
	Mass []convergecast.MomentsVec
	// Trajectory is the estimate of TrackRoot after each round.
	Trajectory []float64
	// Potential is Φ_t after each round when TrackPotential is set.
	Potential []float64
}

// Ave runs Algorithm 6, push-sum over the roots of the transport's
// forest: every root starts with its init vector, indexed by root slot —
// (s, g) = (local sum, tree size) from Convergecast-sum for the average,
// optionally with a Σv² component that rides along for the second moment
// — and each round it keeps half and pushes half to a random node's root.
// The ratio s/g at the largest-tree root converges to the global average
// at the rate of Theorem 7.
func Ave(tr Transport, init []convergecast.MomentsVec, opts AveOptions) (*AveResult, error) {
	eng, f := tr.env()
	roots := f.Roots()
	if len(init) != len(roots) {
		return nil, fmt.Errorf("gossip: %d init vectors for %d roots", len(init), len(roots))
	}
	track := -1
	if opts.TrackRoot >= 0 {
		if !f.IsRoot(opts.TrackRoot) {
			return nil, fmt.Errorf("gossip: tracked node %d is not a root", opts.TrackRoot)
		}
		track = f.Slot(opts.TrackRoot)
	}
	mass := append([]convergecast.MomentsVec(nil), init...)
	rounds := tr.iterations(4*sim.CeilLog2(eng.N()) + 24)
	ticks := tr.ticks()

	// Optional contribution tracking for the Lemma 8 potential, indexed
	// by root slot.
	var (
		y [][]float64 // y[i][j]: root i's contribution from root j
		w []float64   // dummy weights, w0 = 1
	)
	if opts.TrackPotential {
		m := len(roots)
		y = make([][]float64, m)
		for k := range y {
			y[k] = make([]float64, m)
			y[k][k] = 1
		}
		w = make([]float64, m)
		for k := range w {
			w[k] = 1
		}
	}
	potential := func() float64 {
		m := float64(len(roots))
		phi := 0.0
		for k := range y {
			for j := range y[k] {
				d := y[k][j] - w[k]/m
				phi += d * d
			}
		}
		return phi
	}
	type shipment struct {
		dst int       // destination slot
		vec []float64 // snapshot of the shipped contribution share
		w   float64
	}
	var shipped []shipment

	// In reliable mode, shares are tracked until their due round: if the
	// destination root crashes while they are in flight, the engine
	// discards them and the sender's ack times out — the share is
	// restored, so mid-run crashes cannot bleed push-sum mass (a no-op
	// in the static model).
	type inflight struct {
		k, dst, due int // sender slot, destination node, ack deadline
		share       convergecast.MomentsVec
	}
	var pending []inflight
	credit := func(k int) {
		for _, msg := range eng.Inbox(roots[k]) {
			if msg.Pay.Kind == kindAveShare {
				m := &mass[k]
				m.Sum += msg.Pay.A
				m.Sum2 += msg.Pay.C
				m.Count += msg.Pay.B
			}
		}
	}

	var trajectory, potentials []float64
	for t := 0; t < rounds; t++ {
		shipped = shipped[:0]
		for k, r := range roots {
			if !eng.Alive(r) || !tr.draw(r, opts.ReliableShares) {
				// A crashed root pushes nothing (its mass freezes in place
				// instead of being silently halved away), and a share with
				// no established call stays home.
				continue
			}
			// Halve and push. The half leaves the sender regardless of
			// delivery unless shares are reliable (loss destroys mass, as
			// in the analysis).
			m := &mass[k]
			m.Sum /= 2
			m.Sum2 /= 2
			m.Count /= 2
			pay := sim.Payload{Kind: kindAveShare, A: m.Sum, B: m.Count, C: m.Sum2, X: int64(r)}
			delivered, dst, due := tr.ship(r, pay, opts.ReliableShares)
			if opts.ReliableShares {
				if !delivered {
					// Every retry failed: restore the share; no mass
					// leaves the system.
					m.Sum *= 2
					m.Sum2 *= 2
					m.Count *= 2
				} else {
					pending = append(pending, inflight{k: k, dst: dst, due: due, share: *m})
				}
			}
			if opts.TrackPotential && !(opts.ReliableShares && !delivered) {
				// Mirror the halving in the contribution vectors and
				// snapshot the shipped share before any delivery this
				// round can mutate it. A reliably-restored share leaves
				// the vectors untouched.
				for j := range y[k] {
					y[k][j] /= 2
				}
				w[k] /= 2
				if delivered && f.IsRoot(dst) {
					shipped = append(shipped, shipment{
						dst: f.Slot(dst),
						vec: append([]float64(nil), y[k]...),
						w:   w[k],
					})
				}
			}
		}
		for tick := 0; tick < ticks; tick++ {
			eng.Tick()
			if len(pending) > 0 {
				kept := pending[:0]
				for _, sh := range pending {
					switch {
					case sh.due > eng.Round():
						kept = append(kept, sh) // still in flight
					case !eng.Alive(sh.dst):
						// Ack timeout: the destination died before
						// delivery and the engine discarded the share.
						m := &mass[sh.k]
						m.Sum += sh.share.Sum
						m.Sum2 += sh.share.Sum2
						m.Count += sh.share.Count
					}
				}
				pending = kept
			}
			eachLanded(tr, credit)
			if eng.WantResidual() {
				eng.ReportResidual(estimateSpread(mass))
			}
		}
		if opts.TrackPotential {
			for _, sh := range shipped {
				for j := range y[sh.dst] {
					y[sh.dst][j] += sh.vec[j]
				}
				w[sh.dst] += sh.w
			}
			potentials = append(potentials, potential())
		}
		if track >= 0 {
			trajectory = append(trajectory, ratio(mass[track]))
		}
	}

	est := make([]float64, len(mass))
	for k, m := range mass {
		est[k] = ratio(m)
	}
	return &AveResult{
		Estimates:  est,
		Mass:       mass,
		Trajectory: trajectory,
		Potential:  potentials,
	}, nil
}

// walksDeliveries reports whether the drivers read only the inboxes of
// the nodes the last Tick delivered to (sim.Engine.Delivered) instead of
// scanning every root. A routed exchange spreads its landings over its
// ticks() rounds, so a tick reaches a small share of the roots (under a
// quarter on all but a handful of the bench workloads' routed ticks); a
// relay exchange lands in one tick and reaches a quarter or more of them,
// where the scan is cheaper. A root's own inbox is read in arrival order
// either way, so per-root accumulations are unchanged; output whose order
// spans roots is sorted by slot after a walk.
func walksDeliveries(tr Transport) bool { return tr.ticks() > 1 }

// eachLanded calls read with the slot of every root whose inbox the last
// Tick may have filled: the roots among eng.Delivered(), in order of
// first delivery, when the transport walks deliveries, and every root in
// slot order otherwise.
func eachLanded(tr Transport, read func(k int)) {
	eng, f := tr.env()
	if walksDeliveries(tr) {
		for _, i := range eng.Delivered() {
			if f.IsRoot(i) {
				read(f.Slot(i))
			}
		}
		return
	}
	for k := 0; k < f.NumTrees(); k++ {
		read(k)
	}
}

// ratio is a root's push-sum estimate s/g, NaN while it has no weight.
func ratio(m convergecast.MomentsVec) float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return m.Sum / m.Count
}

// estimateSpread is the convergence residual Ave reports when a round
// observer is attached: the spread (max − min) of the running ratio
// estimate s/g across roots with nonzero weight, which push-sum drives to
// zero as shares mix. NaN when no root has weight yet. It only reads
// driver state, so reporting it cannot perturb a run; a max/min
// reduction does not depend on the roots' order, keeping the value
// deterministic.
func estimateSpread(mass []convergecast.MomentsVec) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range mass {
		if m.Count != 0 {
			est := m.Sum / m.Count
			if est < lo {
				lo = est
			}
			if est > hi {
				hi = est
			}
		}
	}
	if hi < lo {
		return math.NaN()
	}
	return hi - lo
}
