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
// Every driver folds one or more value lanes: L per-root value vectors,
// lane-major by root slot (lane l of slot k at [l*m+k] for m roots), that
// share the driver's messages, loss draws and bill, because no send
// depends on a value. A root's state is one column of that lane-major
// set (push-sum's weight g is the last column of Gossip-ave's state: the
// lanes are extra s components sharing it). A message carries no value,
// only its kind and the sender's root slot: every column is copied into a
// snapshot when the exchange is sent (the sender's push value, push-sum
// share or inquiry reply), and a landing combines the sender's snapshot
// column into the receiver's, so it never sees what an earlier landing
// of the same tick changed.
//
// The working lists a driver grows while it runs live in a Scratch that
// callers running Phase III once per protocol run keep and reuse.
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

	"drrgossip/internal/sim"
)

const (
	kindGossipVal uint8 = 0x31
	kindInquiry   uint8 = 0x32
	kindInqReply  uint8 = 0x33
	kindAveShare  uint8 = 0x34
	kindNoCall    uint8 = 0x35 // a push-sum call that could not be established
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

// MaxResult is the outcome of Gossip-max. Per-root values hold the
// driver's lanes, lane-major by root slot.
type MaxResult struct {
	// Estimates holds each root's final Max estimate (after sampling).
	Estimates []float64
	// AfterGossip holds the estimates after the gossip procedure only —
	// the quantity Theorem 5 bounds (a constant fraction of roots already
	// hold the true Max).
	AfterGossip []float64
}

// Scratch holds the lists Gossip-max and Gossip-ave grow while they run:
// the sampling procedure's inquiries and the reliable shares in flight.
// Every driver empties the list it uses first, so one Scratch serves any
// number of runs, allocating only while a list grows. The zero value is
// ready to use. A Scratch serves one driver at a time and is not safe
// for concurrent use.
type Scratch struct {
	inquiries []inquiry
	pending   []inflight
}

// inquiry is one sampling inquiry that landed: the inquirer root and the
// responder's slot.
type inquiry struct{ from, to int }

// inflight is one reliable share awaiting its ack: the sender's slot,
// the destination node and the ack deadline.
type inflight struct{ k, dst, due int }

// checkLanes rejects vals unless it holds lanes of per-root values: a
// positive whole number of m-long vectors.
func checkLanes(vals []float64, m int, what string) error {
	if m == 0 || len(vals) == 0 || len(vals)%m != 0 {
		return fmt.Errorf("gossip: %d %s for %d roots", len(vals), what, m)
	}
	return nil
}

// Max is Scratch.Max on a fresh Scratch.
func Max(tr Transport, init []float64) (*MaxResult, error) { return new(Scratch).Max(tr, init) }

// Max runs Algorithm 4 on the roots of the transport's forest. init holds
// one or more lanes of every root's initial value, lane-major by root
// slot (e.g. the convergecast-max of its tree). The gossip procedure
// (Push) runs O(log n) iterations, the sampling procedure O(log n) more,
// each scaled by the transport (loss-inflated on the relay) and each
// taking the transport's exchange time.
func (s *Scratch) Max(tr Transport, init []float64) (*MaxResult, error) {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	if err := checkLanes(init, m, "init values"); err != nil {
		return nil, err
	}
	// One allocation holds the estimates, their copy after the gossip
	// procedure and the snapshot every exchange lands from.
	size := len(init)
	buf := make([]float64, 3*size)
	val, after, sent := buf[:size:size], buf[size:2*size:2*size], buf[2*size:]
	copy(val, init)
	gossipRounds := tr.iterations(2*sim.CeilLog2(eng.N()) + 12)
	sampleRounds := tr.iterations(sim.CeilLog2(eng.N()) + 8)
	push(tr, val, sent, gossipRounds)
	copy(after, val)

	// Sampling procedure: inquire a random node's root, which replies
	// with its value; adopt it if larger.
	inquiries := s.inquiries[:0]
	defer func() { s.inquiries = inquiries[:0] }()
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
		copy(sent, val) // every responder's value at reply time
		for _, q := range inquiries {
			tr.reply(roots[q.to], q.from, sim.Payload{Kind: kindInqReply, X: int64(q.to)})
		}
		land(tr, val, sent, kindInqReply)
	}
	return &MaxResult{
		Estimates:   val,
		AfterGossip: after,
	}, nil
}

// Push runs the gossip procedure of Gossip-max for the given number of
// iterations: every live root pushes its estimate to a random node's
// root, and every root adopts each larger value that lands. val holds
// one or more lanes of estimates, lane-major by root slot, and is updated
// in place. Roots that crash mid-run place no further calls (their
// estimate freezes; the rest of the clique keeps gossiping). Max runs it
// before its sampling procedure; on the singleton forest it is the
// uniform push gossip of Kempe et al.
func Push(tr Transport, val []float64, iterations int) error {
	_, f := tr.env()
	if err := checkLanes(val, f.NumTrees(), "init values"); err != nil {
		return err
	}
	push(tr, val, make([]float64, len(val)), iterations)
	return nil
}

// push is Push on checked estimates, with sent, as long as val, to hold
// every root's estimates at push time.
func push(tr Transport, val, sent []float64, iterations int) {
	eng, f := tr.env()
	for t := 0; t < iterations; t++ {
		copy(sent, val)
		for k, r := range f.Roots() {
			if eng.Alive(r) {
				tr.push(r, sim.Payload{Kind: kindGossipVal, X: int64(k)})
			}
		}
		land(tr, val, sent, kindGossipVal)
	}
}

// land lets one exchange arrive, adopting every larger value of kind
// from sent, the estimates as they were when the exchange was sent, at
// the sender's slot the message carries.
func land(tr Transport, val, sent []float64, kind uint8) {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	adopt := func(k int) {
		for _, msg := range eng.Inbox(roots[k]) {
			if msg.Pay.Kind != kind {
				continue
			}
			j := int(msg.Pay.X)
			for o := 0; o < len(sent); o += m {
				if v := sent[o+j]; v > val[o+k] {
					val[o+k] = v
				}
			}
		}
	}
	for tick := tr.ticks(); tick > 0; tick-- {
		eng.Tick()
		eachLanded(tr, adopt)
	}
}

// Spread runs Data-spread (Algorithm 5): the source root's values, one
// per lane, are spread to all roots by running Gossip-max with every
// other root initialised to -Inf.
func (s *Scratch) Spread(tr Transport, source int, values []float64) (*MaxResult, error) {
	_, f := tr.env()
	if !f.IsRoot(source) {
		return nil, fmt.Errorf("gossip: spread source %d is not a root", source)
	}
	m := f.NumTrees()
	init := make([]float64, len(values)*m)
	for k := range init {
		init[k] = math.Inf(-1)
	}
	for l, v := range values {
		init[l*m+f.Slot(source)] = v
	}
	return s.Max(tr, init)
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
// root slot, lane-major where they hold the driver's lanes.
type AveResult struct {
	// Estimates holds each root's final ratio estimate s/g per lane (NaN
	// where the weight never arrived).
	Estimates []float64
	// Sums holds each root's final push-sum s components, one per lane.
	Sums []float64
	// Weights holds each root's final push-sum weight g.
	Weights []float64
	// Trajectory is lane 0's estimate at TrackRoot after each round.
	Trajectory []float64
	// Potential is Φ_t after each round when TrackPotential is set.
	Potential []float64
}

// Ave is Scratch.Ave on a fresh Scratch.
func Ave(tr Transport, s0, g0 []float64, opts AveOptions) (*AveResult, error) {
	return new(Scratch).Ave(tr, s0, g0, opts)
}

// Ave runs Algorithm 6, push-sum over the roots of the transport's
// forest: every root starts with its s components s0, one or more lanes
// lane-major by root slot, and its weight g0 — (local sum, tree size)
// from Convergecast-sum for the average — and each round it keeps half
// and pushes half to a random node's root. The lanes share the weight
// (the state's last column), and each lane's ratio s/g at the
// largest-tree root converges to that lane's global average at the rate
// of Theorem 7.
func (s *Scratch) Ave(tr Transport, s0, g0 []float64, opts AveOptions) (*AveResult, error) {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	if len(g0) != m {
		return nil, fmt.Errorf("gossip: %d init weights for %d roots", len(g0), m)
	}
	if err := checkLanes(s0, m, "init sums"); err != nil {
		return nil, err
	}
	L := len(s0) / m
	track := -1
	if opts.TrackRoot >= 0 {
		if !f.IsRoot(opts.TrackRoot) {
			return nil, fmt.Errorf("gossip: tracked node %d is not a root", opts.TrackRoot)
		}
		track = f.Slot(opts.TrackRoot)
	}
	// One allocation holds the state, the s lanes and then the weight,
	// and behind it every root's last share, the snapshot its landings
	// read.
	cols := (L + 1) * m
	buf := make([]float64, 2*cols)
	state, share := buf[:cols:cols], buf[cols:]
	copy(state, s0)
	copy(state[L*m:], g0)
	sum, w := state[:L*m:L*m], state[L*m:]
	rounds := tr.iterations(4*sim.CeilLog2(eng.N()) + 24)
	ticks := tr.ticks()

	// Optional contribution tracking for the Lemma 8 potential, indexed
	// by root slot.
	var (
		y  [][]float64 // y[i][j]: root i's contribution from root j
		yw []float64   // dummy weights, w0 = 1
	)
	if opts.TrackPotential {
		y = make([][]float64, m)
		for k := range y {
			y[k] = make([]float64, m)
			y[k][k] = 1
		}
		yw = make([]float64, m)
		for k := range yw {
			yw[k] = 1
		}
	}
	potential := func() float64 {
		fm := float64(m)
		phi := 0.0
		for k := range y {
			for j := range y[k] {
				d := y[k][j] - yw[k]/fm
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
	// in the static model). Every share is due within its round's
	// exchange, so it is still in share when it lands or times out.
	pending := s.pending[:0]
	defer func() { s.pending = pending[:0] }()
	credit := func(k int) {
		for _, msg := range eng.Inbox(roots[k]) {
			if msg.Pay.Kind != kindAveShare {
				continue
			}
			j := int(msg.Pay.X)
			for o := 0; o < cols; o += m {
				state[o+k] += share[o+j]
			}
		}
	}
	// scale multiplies every column of root k's state by x.
	scale := func(k int, x float64) {
		for o := k; o < cols; o += m {
			state[o] *= x
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
			scale(k, 0.5)
			for o := k; o < cols; o += m {
				share[o] = state[o]
			}
			delivered, dst, due := tr.ship(r, sim.Payload{Kind: kindAveShare, X: int64(k)}, opts.ReliableShares)
			if opts.ReliableShares {
				if !delivered {
					// Every retry failed: restore the share; no mass
					// leaves the system.
					scale(k, 2)
				} else {
					pending = append(pending, inflight{k: k, dst: dst, due: due})
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
				yw[k] /= 2
				if delivered && f.IsRoot(dst) {
					shipped = append(shipped, shipment{
						dst: f.Slot(dst),
						vec: append([]float64(nil), y[k]...),
						w:   yw[k],
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
						for o := sh.k; o < cols; o += m {
							state[o] += share[o]
						}
					}
				}
				pending = kept
			}
			eachLanded(tr, credit)
			if eng.WantResidual() {
				eng.ReportResidual(estimateSpread(sum[:m], w))
			}
		}
		if opts.TrackPotential {
			for _, sh := range shipped {
				for j := range y[sh.dst] {
					y[sh.dst][j] += sh.vec[j]
				}
				yw[sh.dst] += sh.w
			}
			potentials = append(potentials, potential())
		}
		if track >= 0 {
			trajectory = append(trajectory, ratio(sum[track], w[track]))
		}
	}

	est := make([]float64, L*m)
	for o := range est {
		est[o] = ratio(sum[o], w[o%m])
	}
	return &AveResult{
		Estimates:  est,
		Sums:       sum,
		Weights:    w,
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
func ratio(s, g float64) float64 {
	if g == 0 {
		return math.NaN()
	}
	return s / g
}

// estimateSpread is the convergence residual Ave reports when a round
// observer is attached: the spread (max − min) of lane 0's running ratio
// estimate s/g across roots with nonzero weight, which push-sum drives to
// zero as shares mix. NaN when no root has weight yet. It only reads
// driver state, so reporting it cannot perturb a run; a max/min
// reduction does not depend on the roots' order, keeping the value
// deterministic.
func estimateSpread(sum, w []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for k, g := range w {
		if g != 0 {
			est := sum[k] / g
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
