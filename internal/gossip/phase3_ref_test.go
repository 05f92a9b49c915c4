package gossip

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/faults"
	"drrgossip/internal/forest"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// The references below are Phase III's drivers as they were when lane 0
// of every message rode the payload (A, and B for the push-sum weight)
// and only lanes 1..L-1 were read at landing from a send-time copy,
// kept verbatim except for their names: refScratch, with its Max and
// Ave, and refInflight are the former Scratch and inflight, refPush and
// refLand the former Push and land.

// refScratch is the former Scratch.
type refScratch struct {
	inquiries []inquiry
	pending   []refInflight
}

// refInflight is the former inflight.
//
// inflight is one reliable share awaiting its ack: the sender's slot,
// the destination node, the ack deadline, and the share's lane 0 and
// weight.
type refInflight struct {
	k, dst, due int
	s, g        float64
}

// Max on refScratch is the former Scratch.Max.
//
// Max runs Algorithm 4 on the roots of the transport's forest. init holds
// one or more lanes of every root's initial value, lane-major by root
// slot (e.g. the convergecast-max of its tree). The gossip procedure
// (Push) runs O(log n) iterations, the sampling procedure O(log n) more,
// each scaled by the transport (loss-inflated on the relay) and each
// taking the transport's exchange time.
func (s *refScratch) Max(tr Transport, init []float64) (*MaxResult, error) {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	if err := checkLanes(init, m, "init values"); err != nil {
		return nil, err
	}
	val := append([]float64(nil), init...)
	gossipRounds := tr.iterations(2*sim.CeilLog2(eng.N()) + 12)
	sampleRounds := tr.iterations(sim.CeilLog2(eng.N()) + 8)
	if err := refPush(tr, val, gossipRounds); err != nil {
		return nil, err
	}
	after := append([]float64(nil), val...)

	// Sampling procedure: inquire a random node's root, which replies
	// with its value; adopt it if larger.
	inquiries := s.inquiries[:0]
	defer func() { s.inquiries = inquiries[:0] }()
	var sent []float64 // lanes 1..L-1 of every responder at reply time
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
		sent = append(sent[:0], val[m:]...)
		for _, q := range inquiries {
			tr.reply(roots[q.to], q.from, sim.Payload{Kind: kindInqReply, A: val[q.to]})
		}
		refLand(tr, val, sent, kindInqReply)
	}
	return &MaxResult{
		Estimates:   val,
		AfterGossip: after,
	}, nil
}

// refPush is the former Push.
//
// Push runs the gossip procedure of Gossip-max for the given number of
// iterations: every live root pushes its estimate to a random node's
// root, and every root adopts each larger value that lands. val holds
// one or more lanes of estimates, lane-major by root slot, and is updated
// in place. Roots that crash mid-run place no further calls (their
// estimate freezes; the rest of the clique keeps gossiping). Max runs it
// before its sampling procedure; on the singleton forest it is the
// uniform push gossip of Kempe et al.
func refPush(tr Transport, val []float64, iterations int) error {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	if err := checkLanes(val, m, "init values"); err != nil {
		return err
	}
	var sent []float64 // lanes 1..L-1 of every root at push time
	for t := 0; t < iterations; t++ {
		sent = append(sent[:0], val[m:]...)
		for k, r := range roots {
			if eng.Alive(r) {
				tr.push(r, sim.Payload{Kind: kindGossipVal, A: val[k]})
			}
		}
		refLand(tr, val, sent, kindGossipVal)
	}
	return nil
}

// refLand is the former land.
//
// land lets one exchange arrive, adopting every larger value of kind:
// lane 0 from the payload, the other lanes from sent, the senders'
// lanes 1..L-1 as they were when the exchange was sent.
func refLand(tr Transport, val, sent []float64, kind uint8) {
	eng, f := tr.env()
	roots := f.Roots()
	m := len(roots)
	adopt := func(k int) {
		for _, msg := range eng.Inbox(roots[k]) {
			if msg.Pay.Kind != kind {
				continue
			}
			if msg.Pay.A > val[k] {
				val[k] = msg.Pay.A
			}
			if len(sent) > 0 {
				j := f.Slot(msg.From)
				for o := 0; o < len(sent); o += m {
					if v := sent[o+j]; v > val[m+o+k] {
						val[m+o+k] = v
					}
				}
			}
		}
	}
	for tick := tr.ticks(); tick > 0; tick-- {
		eng.Tick()
		eachLanded(tr, adopt)
	}
}

// Ave on refScratch is the former Scratch.Ave.
//
// Ave runs Algorithm 6, push-sum over the roots of the transport's
// forest: every root starts with its s components s0, one or more lanes
// lane-major by root slot, and its weight g0 — (local sum, tree size)
// from Convergecast-sum for the average — and each round it keeps half
// and pushes half to a random node's root. The lanes share the weight,
// and each lane's ratio s/g at the largest-tree root converges to that
// lane's global average at the rate of Theorem 7.
func (s *refScratch) Ave(tr Transport, s0, g0 []float64, opts AveOptions) (*AveResult, error) {
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
	state := append(append(make([]float64, 0, (L+1)*m), s0...), g0...)
	sum, w := state[:L*m:L*m], state[L*m:]
	var share []float64 // lanes 1..L-1 of every root's last share
	if L > 1 {
		share = make([]float64, (L-1)*m)
	}
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
	// exchange, so its lanes are still in share when it times out.
	pending := s.pending[:0]
	defer func() { s.pending = pending[:0] }()
	credit := func(k int) {
		for _, msg := range eng.Inbox(roots[k]) {
			if msg.Pay.Kind != kindAveShare {
				continue
			}
			sum[k] += msg.Pay.A
			w[k] += msg.Pay.B
			if share != nil {
				j := f.Slot(msg.From)
				for o := 0; o < len(share); o += m {
					sum[m+o+k] += share[o+j]
				}
			}
		}
	}
	// scale multiplies every lane of root k's s by x.
	scale := func(k int, x float64) {
		for o := k; o < L*m; o += m {
			sum[o] *= x
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
			w[k] /= 2
			for o := 0; o < len(share); o += m {
				share[o+k] = sum[m+o+k]
			}
			pay := sim.Payload{Kind: kindAveShare, A: sum[k], B: w[k], X: int64(r)}
			delivered, dst, due := tr.ship(r, pay, opts.ReliableShares)
			if opts.ReliableShares {
				if !delivered {
					// Every retry failed: restore the share; no mass
					// leaves the system.
					scale(k, 2)
					w[k] *= 2
				} else {
					pending = append(pending, refInflight{k: k, dst: dst, due: due, s: sum[k], g: w[k]})
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
						sum[sh.k] += sh.s
						w[sh.k] += sh.g
						for o := 0; o < len(share); o += m {
							sum[m+o+sh.k] += share[o+sh.k]
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

// phaseThreeCase is one configuration the Phase III comparison runs:
// the tree relay on the complete graph, or the overlay route on Chord,
// over L value lanes, with reliable shares or not, the Lemma 8
// potential tracked or not, and a fault plan attached once Phases I and
// II are done.
type phaseThreeCase struct {
	n, lanes  int
	route     bool
	reliable  bool
	potential bool
	opts      sim.Options
	spec      string
}

func (c phaseThreeCase) String() string {
	tr := "relay"
	if c.route {
		tr = "route"
	}
	return fmt.Sprintf("%s/n=%d/L=%d/reliable=%t/potential=%t/seed=%d/loss=%g/crash=%g/plan=%q",
		tr, c.n, c.lanes, c.reliable, c.potential, c.opts.Seed, c.opts.Loss, c.opts.CrashFrac, c.spec)
}

// phaseThreeInputs runs Phases I and II of c on eng and returns the
// Phase III transport and inputs: L lanes of per-root maxima and sums,
// the tree sizes and the largest root.
func phaseThreeInputs(eng *sim.Engine, c phaseThreeCase) (tr Transport, covmax, sums, sizes []float64, track int, err error) {
	var f *forest.Forest
	var ov overlay.Overlay
	if c.route {
		ring, err := chord.New(c.n, chord.Options{Bits: 30})
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		ov = overlay.NewChord(ring)
		res, err := drr.RunLocal(eng, ov.Graph(), drr.Options{})
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		f = res.Forest
	} else {
		res, err := drr.Run(eng, drr.Options{})
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		f = res.Forest
	}
	values := agg.GenSigned(c.lanes*c.n, 100, c.opts.Seed+1)
	var cc convergecast.Scratch
	if covmax, err = cc.Max(eng, f, values); err != nil {
		return nil, nil, nil, nil, 0, err
	}
	if sums, sizes, err = cc.Sum(eng, f, values); err != nil {
		return nil, nil, nil, nil, 0, err
	}
	if c.route {
		tr = Route(eng, ov, f)
	} else {
		rootTo, err := cc.BroadcastRootAddr(eng, f)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if tr, err = Relay(eng, f, rootTo); err != nil {
			return nil, nil, nil, nil, 0, err
		}
	}
	return tr, covmax, sums, sizes, f.LargestRoot(), nil
}

// phaseThreeLog records, at every Tick of an engine, its counters and
// the residual last reported (Ave reports lane 0's estimate spread).
type phaseThreeLog struct {
	stats    []sim.Counters
	residual []uint64
}

func (l *phaseThreeLog) watch(eng *sim.Engine) {
	eng.SetRoundObserver(func(int) {
		l.stats = append(l.stats, eng.Stats())
		l.residual = append(l.residual, math.Float64bits(eng.Residual()))
	})
}

// diffPhaseThree runs Phases I and II of c on twin engines, attaches
// c's fault plan to both (its horizon puts "@0.5" halfway through Ave),
// then runs Gossip-ave and Gossip-max on one engine and refScratch's
// copies on the other. Both must give the same error and every result
// field bit for bit, see the same counters and residual after every
// round, bill the same ledger and end on the same membership and loss
// sequence. It reports false without comparing when the case cannot be
// run: a plan that does not parse or bind, or a network Phases I and II
// cannot be built on.
func diffPhaseThree(t testing.TB, c phaseThreeCase) bool {
	t.Helper()
	plan, err := faults.Parse(c.spec)
	if err != nil {
		return false
	}
	engs := [2]*sim.Engine{sim.NewEngine(c.n, c.opts), sim.NewEngine(c.n, c.opts)}
	var trs [2]Transport
	var covmax, sums, sizes [2][]float64
	track := -1
	for k, eng := range engs {
		if trs[k], covmax[k], sums[k], sizes[k], track, err = phaseThreeInputs(eng, c); err != nil {
			return false
		}
	}
	aveRounds := trs[0].ticks() * trs[0].iterations(4*sim.CeilLog2(c.n)+24)
	b, err := plan.Bind(c.n, c.opts.Seed, 2*engs[0].Round()+aveRounds)
	if err != nil {
		return false
	}
	var logs [2]phaseThreeLog
	for k, eng := range engs {
		b.Attach(eng)
		logs[k].watch(eng)
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%v: %d %s, reference %d", c, len(a), what, len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%v: %s[%d] = %v, reference %v", c, what, i, a[i], b[i])
			}
		}
	}
	sameErr := func(what string, err, ref error) bool {
		t.Helper()
		if fmt.Sprint(err) != fmt.Sprint(ref) {
			t.Fatalf("%v: %s error %v, reference %v", c, what, err, ref)
		}
		return err == nil
	}

	opts := AveOptions{TrackRoot: track, TrackPotential: c.potential, ReliableShares: c.reliable}
	var s Scratch
	var ref refScratch
	engs[0].SetPhase("ave")
	ave, err := s.Ave(trs[0], sums[0], sizes[0], opts)
	engs[1].SetPhase("ave")
	refAve, refErr := ref.Ave(trs[1], sums[1], sizes[1], opts)
	if sameErr("Ave", err, refErr) {
		same("Estimates", ave.Estimates, refAve.Estimates)
		same("Sums", ave.Sums, refAve.Sums)
		same("Weights", ave.Weights, refAve.Weights)
		same("Trajectory", ave.Trajectory, refAve.Trajectory)
		same("Potential", ave.Potential, refAve.Potential)
	}
	engs[0].SetPhase("max")
	mx, err := s.Max(trs[0], covmax[0])
	engs[1].SetPhase("max")
	refMx, refErr := ref.Max(trs[1], covmax[1])
	if sameErr("Max", err, refErr) {
		same("Estimates", mx.Estimates, refMx.Estimates)
		same("AfterGossip", mx.AfterGossip, refMx.AfterGossip)
	}

	if len(logs[0].stats) != len(logs[1].stats) {
		t.Fatalf("%v: %d rounds, reference %d", c, len(logs[0].stats), len(logs[1].stats))
	}
	for r := range logs[0].stats {
		if logs[0].stats[r] != logs[1].stats[r] || logs[0].residual[r] != logs[1].residual[r] {
			t.Fatalf("%v: round %d counters %+v residual %#x, reference %+v %#x", c, r+1,
				logs[0].stats[r], logs[0].residual[r], logs[1].stats[r], logs[1].residual[r])
		}
	}
	if a, b := engs[0].Ledger(), engs[1].Ledger(); !slices.Equal(a, b) {
		t.Fatalf("%v: ledger %+v, reference %+v", c, a, b)
	}
	if a, b := engs[0].NumAlive(), engs[1].NumAlive(); a != b {
		t.Fatalf("%v: alive %d, reference %d", c, a, b)
	}
	// The loss sequence ends in the same place: one more lossy send per
	// node must share its fate on both.
	for i := 0; i < c.n; i++ {
		for _, eng := range engs {
			eng.Send(i, (i+1)%c.n, sim.Payload{})
		}
	}
	if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
		t.Fatalf("%v: counters after a trailing send %+v, reference %+v", c, a, b)
	}
	return true
}

// phaseThreeFaults crashes a tenth of the nodes halfway through Ave.
const phaseThreeFaults = "crash:0.1@0.5"

// TestPhaseThreeMatchesReference compares Gossip-ave and Gossip-max with
// refScratch's copies of the drivers they replaced, over one to three
// lanes, the relay and the route transport, lossless and lossy, with
// reliable shares and without, with and without a mid-run crash, and on
// the relay also with initial crashes.
func TestPhaseThreeMatchesReference(t *testing.T) {
	var cases []phaseThreeCase
	for _, route := range []bool{false, true} {
		for L := 1; L <= 3; L++ {
			for _, loss := range []float64{0, 0.05} {
				for _, reliable := range []bool{false, true} {
					for _, spec := range []string{"", phaseThreeFaults} {
						c := phaseThreeCase{n: 300, lanes: L, route: route, reliable: reliable, potential: L == 2, spec: spec,
							opts: sim.Options{Seed: uint64(10*L + len(cases)), Loss: loss}}
						if route {
							c.n = 256
						}
						cases = append(cases, c)
						if !route && spec == "" {
							c.opts.CrashFrac = 0.1
							cases = append(cases, c)
						}
					}
				}
			}
		}
	}
	for _, c := range cases {
		if !diffPhaseThree(t, c) {
			t.Fatalf("%v: case not run", c)
		}
	}
}

// FuzzPhaseThreeMatchesReference runs the same comparison on fuzzed
// sizes, seeds, lane counts, loss rates, initial crashes, options and
// fault plans.
func FuzzPhaseThreeMatchesReference(f *testing.F) {
	specs := []string{"", phaseThreeFaults, "churn:0.3:10", "crash:0.2@0.3;rejoin:0.5@0.6", "part:2@0.2..0.7", "loss:0.3@0.1..0.6"}
	for i, spec := range specs {
		for _, route := range []bool{false, true} {
			f.Add(route, uint16(30+37*i), uint64(i), uint8(i), uint8(i%3*13), uint8(i%5), uint8(i), spec)
		}
	}
	f.Fuzz(func(t *testing.T, route bool, size uint16, seed uint64, lanes, loss, crash, flags uint8, spec string) {
		c := phaseThreeCase{n: 2 + int(size)%300, lanes: 1 + int(lanes)%3, route: route,
			reliable: flags&1 != 0, potential: flags&2 != 0, spec: spec,
			opts: sim.Options{Seed: seed, Loss: float64(loss%32) / 256, CrashFrac: float64(crash%5) / 20}}
		if route {
			c.opts.CrashFrac = 0 // Local-DRR on Chord runs with every node alive
		}
		diffPhaseThree(t, c)
	})
}
