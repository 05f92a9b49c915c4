package sim

import (
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/xrand"
)

// Core is the state both engines share: membership, per-node protocol
// streams, the transmission attempt with its loss hashing and billing,
// the per-phase ledger of that bill, and the fault, observer and
// watchdog hook slots. sim.Engine and async.Engine embed it by value and
// add only their scheduler — the delivery ring and Tick here, the event
// heap and clocks in internal/async — so a fault binding, a telemetry
// tap or a watchdog sees one surface whichever engine runs.
//
// "Progress" is the engine's unit of time: a round of Tick in sim, a
// dispatched clock event in async. Stats().Rounds counts it, round hooks
// and observers receive it, and the abort check's stride is read in it.
// Each engine invokes the hooks at its own points (see Advance,
// RoundHook, ObserveRound and CheckAbort).
type Core struct {
	n     int
	opts  Options
	c     Counters
	alive *bitset.Set // current membership (bit i = node i alive)
	nAliv int
	// epoch counts membership transitions (see MemberEpoch).
	epoch uint64

	// aliveIDs caches the sorted alive-node list; Crash and Revive mark
	// it dirty instead of callers rebuilding it every round.
	aliveIDs   []int
	aliveDirty bool

	seq        uint64    // transmission sequence for loss hashing
	lossDomain uint64    // hash domain of the per-transmission loss decisions
	lossKey    xrand.Key // hash key of (Seed, lossDomain), fixed per reset
	rngDomain  uint64    // derivation domain of the per-node streams

	// rngs holds the per-node streams by value, derived lazily in place;
	// rngSet marks the ones derived since the last reset.
	rngs   []xrand.Stream
	rngSet []bool

	linkFault LinkFault       // nil = all links healthy
	roundHook func(round int) // the fault scheduler's hook
	observer  func(round int) // read-only per-progress tap

	// phase is the protocol-reported phase label. ledger holds the bill
	// of every phase closed so far, in order, and mark the counters at
	// the open phase's start (see SetPhase and Ledger).
	phase  string
	ledger []PhaseBill
	mark   Counters

	// Observability taps (read-only, like observer): phaseObs fires on
	// SetPhase label changes, memberObs on Crash/Revive transitions, and
	// residual holds the driver-reported convergence residual (NaN when
	// the running protocol reports none). residualStride is how often the
	// residual is actually read (every k-th round); drivers gate the
	// O(roots) spread computation on WantResidual so coarse consumers do
	// not pay per-tick scans.
	phaseObs       func(phase string)
	memberObs      func(node int, alive bool)
	residual       float64
	residualStride int

	// abortCheck is the run watchdog (SetAbortCheck), consulted by
	// CheckAbort every abortEvery units of progress.
	abortCheck func(round int) error
	abortEvery int
}

// NewCore returns the core of an n-node engine reset to opts. Its loss
// decisions hash under lossDomain and its per-node streams derive under
// rngDomain, so engines sharing a seed keep their randomness disjoint.
func NewCore(n int, opts Options, lossDomain, rngDomain uint64) Core {
	c := Core{
		n:          n,
		alive:      bitset.New(n),
		aliveIDs:   make([]int, 0, n),
		lossDomain: lossDomain,
		rngDomain:  rngDomain,
		rngs:       make([]xrand.Stream, n),
		rngSet:     make([]bool, n),
	}
	c.reset(opts)
	return c
}

// reset reinitializes the core to the state NewCore(n, opts, …) builds:
// counters zeroed, the alive set rebuilt from opts' static crash model,
// the transmission sequence and node streams reseeded, every hook
// removed.
func (c *Core) reset(opts Options) {
	if !(opts.Loss >= 0 && opts.Loss < 1) { // negated so NaN is rejected too
		panic("sim: Loss must be in [0,1)")
	}
	c.opts = opts
	c.c = Counters{}
	c.seq = 0
	c.lossKey = xrand.KeyOf(opts.Seed, c.lossDomain)
	c.alive.Fill()
	c.nAliv = c.n
	// InitialCrashSet is the single source of truth for the static crash
	// model (including the keep-one-alive rule), so a round-0 crash plan
	// over the same set is equivalent by construction.
	for _, i := range InitialCrashSet(c.n, opts) {
		c.alive.Clear(i)
		c.nAliv--
	}
	c.aliveDirty = true
	c.epoch++
	clear(c.rngSet)
	c.linkFault = nil
	c.roundHook = nil
	c.observer = nil
	c.phase = ""
	c.ledger = c.ledger[:0]
	c.mark = Counters{}
	c.phaseObs = nil
	c.memberObs = nil
	c.residual = math.NaN()
	c.residualStride = 1
	c.abortCheck = nil
	c.abortEvery = 0
}

// InitialCrashSet returns the node ids an engine built from (n, opts)
// crashes before it starts — NewCore itself builds its alive set from
// this, so fault plans reproduce the static crash model exactly with
// round-0 crash events over the same set, and sync and async runs with
// equal options describe one surviving population.
func InitialCrashSet(n int, opts Options) []int {
	if opts.CrashFrac <= 0 {
		return nil
	}
	var ids []int
	key := xrand.KeyOf(opts.Seed, hashDomainCrash)
	for i := 0; i < n; i++ {
		if key.Float(uint64(i)) < opts.CrashFrac {
			ids = append(ids, i)
		}
	}
	if len(ids) == n {
		ids = ids[1:] // keep node 0 alive when all would crash
	}
	return ids
}

// N returns the number of nodes (alive or crashed).
func (c *Core) N() int { return c.n }

// NumAlive returns the number of non-crashed nodes.
func (c *Core) NumAlive() int { return c.nAliv }

// Alive reports whether node i is currently alive. In the static model
// this is fixed at construction (initial crashes); with dynamic
// membership it changes over the run via Crash and Revive, so per-round
// protocol logic must not cache it without watching MemberEpoch. While
// every node is alive it answers without testing the set.
func (c *Core) Alive(i int) bool { return c.nAliv == c.n || c.alive.Test(i) }

// MemberEpoch returns a counter that every membership transition (a
// Crash of a live node, a Revive of a dead one) advances. A protocol
// that keeps per-node state derived from liveness revalidates it only
// when the epoch has moved since it last looked. Reset, which rebuilds
// the membership, advances it too, so it never repeats within an
// engine's life.
func (c *Core) MemberEpoch() uint64 { return c.epoch }

// AliveIDs returns the ids of currently alive nodes in increasing order.
// The returned slice is owned by the engine and valid until the next
// Crash or Revive; callers must not modify it. (Protocols consult it
// every round under fault plans, so it is cached rather than rebuilt.)
func (c *Core) AliveIDs() []int {
	if c.aliveDirty {
		c.aliveIDs = c.aliveIDs[:0]
		c.alive.ForEach(func(i int) {
			c.aliveIDs = append(c.aliveIDs, i)
		})
		c.aliveDirty = false
	}
	return c.aliveIDs
}

// RNG returns node i's private random stream, derived from (Seed, node)
// on first use. Streams are independent across nodes, so parallel
// per-node stepping is deterministic.
func (c *Core) RNG(i int) *xrand.Stream {
	if !c.rngSet[i] {
		c.rngs[i] = xrand.DeriveStream(c.opts.Seed, c.rngDomain, uint64(i))
		c.rngSet[i] = true
	}
	return &c.rngs[i]
}

// Crash removes node i from the network mid-run: it stops acting and
// every transmission to it fails (the sync engine also discards messages
// already in flight to it). Crashing a dead node is a no-op.
func (c *Core) Crash(i int) {
	if c.alive.Test(i) {
		c.alive.Clear(i)
		c.nAliv--
		c.epoch++
		c.aliveDirty = true
		if c.memberObs != nil {
			c.memberObs(i, false)
		}
	}
}

// Revive rejoins node i after a crash. Any protocol state it re-enters
// with is the protocol's concern. Reviving a live node is a no-op.
func (c *Core) Revive(i int) {
	if !c.alive.Test(i) {
		c.alive.Set(i)
		c.nAliv++
		c.epoch++
		c.aliveDirty = true
		if c.memberObs != nil {
			c.memberObs(i, true)
		}
	}
}

// Seed returns the engine's master seed.
func (c *Core) Seed() uint64 { return c.opts.Seed }

// Loss returns the configured per-message drop probability δ.
func (c *Core) Loss() float64 { return c.opts.Loss }

// Stats returns a snapshot of the accounting counters.
func (c *Core) Stats() Counters { return c.c }

// Round returns the progress count: rounds ticked in sim, events
// dispatched in async (0 before the first).
func (c *Core) Round() int { return c.c.Rounds }

// Advance counts one unit of progress and returns the new count. The
// engine's scheduler calls it once per round or dispatched event.
func (c *Core) Advance() int {
	c.c.Rounds++
	return c.c.Rounds
}

// Attempt accounts one transmission from -> to and reports whether it
// survived: the loss decision hashes the transmission sequence number
// under the key of (Seed, loss domain) computed at reset, compounded
// with any installed link fault, and only then is the receiver's
// liveness checked. A transmission to a crashed node is billed (it was
// sent) but never survives, and bills no Drop. Runs without an
// installed link fault are bit-for-bit identical to the static model;
// a fault binding installs one only while a link-level fault is active,
// so between its windows no predicate is called.
func (c *Core) Attempt(from, to int) bool {
	// The sequence number advances even when no hash is drawn (Loss 0,
	// no fault), so installing a fault mid-run cannot shift later loss
	// decisions.
	c.seq++
	c.c.Messages++
	eff := c.opts.Loss
	if c.linkFault != nil {
		if x := c.linkFault(from, to); x > 0 {
			if x >= 1 {
				c.c.Drops++
				c.c.Blocked++
				return false
			}
			eff = 1 - (1-eff)*(1-x) // independent fault and link loss
		}
	}
	if eff > 0 && c.lossKey.Float(c.seq) < eff {
		c.c.Drops++
		return false
	}
	return c.alive.Test(to)
}

// Call places one call from -> to: it counts the call and reports
// whether its request leg survived (see Attempt).
func (c *Core) Call(from, to int) bool {
	c.c.Calls++
	return c.Attempt(from, to)
}

// SetLinkFault installs (or, with nil, removes) the per-link fault
// predicate, consulted on every transmission attempt. With none
// installed the engine behaves exactly like the static model. A fault
// binding swaps it at round boundaries: nil while no link-level fault
// is active, so only windows with one pay a call per attempt.
func (c *Core) SetLinkFault(f LinkFault) { c.linkFault = f }

// SetRoundHook installs (or, with nil, removes) the fault scheduler's
// hook. sim invokes it at the top of every Tick with the new round,
// before that round's deliveries (a node crashed by the hook at round r
// never sees its round-r deliveries); async invokes it once per fault
// tick crossed, before the event that crossed it.
func (c *Core) SetRoundHook(h func(round int)) { c.roundHook = h }

// RoundHook returns the installed round hook, or nil.
func (c *Core) RoundHook() func(round int) { return c.roundHook }

// SetRoundObserver installs (or, with nil, removes) a read-only tap
// invoked through ObserveRound: at the end of every Tick in sim (after
// the round hook's fault actions and the round's deliveries), after
// every dispatched event in async. Observers exist for progress
// streaming and metrics: they are deliberately separate from
// SetRoundHook so that installing one does not flip Faulty() (which
// would change protocol degradation behaviour) and cannot perturb the
// run.
func (c *Core) SetRoundObserver(f func(round int)) { c.observer = f }

// ObserveRound invokes the round observer, if any, with the progress
// count.
func (c *Core) ObserveRound() {
	if c.observer != nil {
		c.observer(c.c.Rounds)
	}
}

// PhaseBill is one phase's share of a run's counters: what the engine
// billed between the SetPhase call that opened the phase and the one
// that closed it.
type PhaseBill struct {
	Phase string
	Counters
}

// SetPhase records the protocol phase label ("drr", "gossip", …) the
// run is currently in. Protocols update it as they move through their
// pipeline; observers report where the time goes by it, and the engine
// bills by it: a label change closes the outgoing phase, appending its
// counters to the ledger (see Ledger). Setting the label it already
// carries is a no-op (the phase observer fires on changes only). The
// label never changes what a run does.
func (c *Core) SetPhase(p string) {
	if p == c.phase {
		return
	}
	if b, ok := c.openPhase(); ok {
		c.ledger = append(c.ledger, b)
	}
	c.mark = c.c
	c.phase = p
	if c.phaseObs != nil {
		c.phaseObs(p)
	}
}

// openPhase returns the open phase's bill up to now, and whether it
// belongs in the ledger: every labelled phase does, and the unlabelled
// stretch before the first SetPhase only when it billed anything.
func (c *Core) openPhase() (PhaseBill, bool) {
	b := PhaseBill{Phase: c.phase, Counters: c.c.Sub(c.mark)}
	return b, c.phase != "" || b.Counters != (Counters{})
}

// Phase returns the open phase's label: the one last recorded with
// SetPhase ("" before the first phase), under which the ledger bills the
// engine's work until the next label change.
func (c *Core) Phase() string { return c.phase }

// Ledger returns the run's per-phase bill in execution order: every
// closed phase, then the open one up to now. The entries sum exactly to
// Stats(), aborted runs included. The slice is owned by the engine and
// valid until its next method call; once the engine has held its
// longest ledger, neither Ledger nor a Reset allocates.
func (c *Core) Ledger() []PhaseBill {
	b, ok := c.openPhase()
	if !ok {
		return c.ledger
	}
	l := append(c.ledger, b)
	c.ledger = l[:len(l)-1] // keep any grown capacity for the next run
	return l
}

// Billed returns the counters the ledger bills to phase label p, summed
// over every phase carrying it.
func (c *Core) Billed(p string) Counters {
	var sum Counters
	for _, b := range c.Ledger() {
		if b.Phase == p {
			sum = sum.Add(b.Counters)
		}
	}
	return sum
}

// SetPhaseObserver installs (or, with nil, removes) a read-only tap
// fired from SetPhase whenever the phase label changes, with the label
// being entered. Like SetRoundObserver it cannot perturb the run and
// does not flip Faulty().
func (c *Core) SetPhaseObserver(f func(phase string)) { c.phaseObs = f }

// SetMembershipObserver installs (or, with nil, removes) a read-only tap
// fired from Crash and Revive on actual membership transitions (crashing
// a dead node or reviving a live one stays silent), with the node id and
// its new liveness. Like SetRoundObserver it cannot perturb the run and
// does not flip Faulty().
func (c *Core) SetMembershipObserver(f func(node int, alive bool)) { c.memberObs = f }

// ReportResidual records the driver's current convergence residual (the
// gossip drivers: the spread of the running ratio estimate across roots;
// the pairwise drivers: the spread of the alive estimates). Pure
// observability: sync drivers report it only when it is due (see
// WantResidual), so the static hot path never computes it.
func (c *Core) ReportResidual(r float64) { c.residual = r }

// Residual returns the last driver-reported convergence residual, or NaN
// when the running protocol has not reported one.
func (c *Core) Residual() float64 { return c.residual }

// SetResidualStride declares how often the reported residual is actually
// read: every k-th round (the facade derives k from its telemetry
// round-event stride). WantResidual is then due only on rounds a reader
// will surface, so coarse monitoring does not pay a per-tick O(roots)
// spread scan in the gossip drivers. k < 1 means every round. A reset
// restores the default of 1.
func (c *Core) SetResidualStride(k int) {
	if k < 1 {
		k = 1
	}
	c.residualStride = k
}

// WantResidual reports whether a driver should compute and report its
// convergence residual before the upcoming round: a round observer must
// be installed and the upcoming round must land on the residual stride,
// so the freshly reported value is exactly what that round's readers
// see.
func (c *Core) WantResidual() bool {
	return c.observer != nil && (c.c.Rounds+1)%c.residualStride == 0
}

// Faulty reports whether a fault regime is installed (a round hook or a
// link fault). Protocols use it to degrade gracefully — returning
// partial results where the static model would fail fast. An attached
// fault binding keeps its round hook for the whole run, so the engine
// stays faulty between link-fault windows, while the predicate itself
// is removed. Observers alone do not make the engine faulty.
func (c *Core) Faulty() bool { return c.roundHook != nil || c.linkFault != nil }

// SetAbortCheck installs (or, with nil, removes) a run watchdog: f is
// consulted through CheckAbort on every `every`-th unit of progress
// (every < 1 means every one) with the progress count. sim aborts a run
// the check rejects by panicking with *AbortError at the top of Tick,
// before the round's fault hook and deliveries; async stops its event
// loop. The check is deliberately separate from the fault hooks so
// installing one does not flip Faulty(), and it is control-plane only: a
// run the check never aborts is bit-identical to one without a check
// installed.
func (c *Core) SetAbortCheck(f func(round int) error, every int) {
	if every < 1 {
		every = 1
	}
	c.abortCheck = f
	c.abortEvery = every
}

// CheckAbort returns the abort check's verdict when one is installed and
// the progress count lands on its stride, and nil otherwise.
func (c *Core) CheckAbort() error {
	if c.abortCheck == nil || c.c.Rounds%c.abortEvery != 0 {
		return nil
	}
	return c.abortCheck(c.c.Rounds)
}
