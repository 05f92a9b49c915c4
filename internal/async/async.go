// Package async is the deterministic event-driven counterpart of
// internal/sim: instead of synchronous rounds, every node owns a Poisson
// clock (i.i.d. exponential gaps) and acts alone when its clock ticks —
// the standard asynchronous time model of the pairwise-gossip literature
// (Boyd et al.; Dimakis et al., "Gossip Algorithms for Distributed
// Signal Processing"). The engine is a scheduler plus an accountant: it
// owns the event heap, the clocks, membership, link faults and the cost
// counters, while the protocol (e.g. internal/pairwise) is a node state
// machine the driver steps on each dispatched tick. Nothing in the
// engine knows what a protocol message means, so swapping the simulated
// transport for a real one (the cmd/gossipd direction in ROADMAP) is a
// driver swap, not an engine change.
//
// # Determinism contract
//
// Every run is a pure function of (n, sim.Options) — the engine takes
// the synchronous engine's options, so a session configures both
// engines from one value:
//
//   - Per-node clocks are xrand streams derived from (Seed, clock
//     domain, node); the exponential gaps of node i never depend on what
//     other nodes do.
//   - The event heap's order is total — (time, node id, seq) — so
//     simultaneous timestamps dispatch in node-id order, never in map or
//     insertion order.
//   - Per-transmission loss is a stateless hash of (Seed, loss domain,
//     attempt sequence number), assigned on the single-threaded dispatch
//     path.
//   - The engine runs strictly sequentially: one event at a time, no
//     internal goroutines. Bit-identical results across GOMAXPROCS and
//     repeated runs are structural, not a property to re-verify per
//     protocol (still pinned by determinism_test.go at the facade).
//
// Crashed nodes keep ticking: a dead node's clock events still pop and
// reschedule (the dispatcher reports them as not-alive so drivers skip
// the protocol action). This keeps every node's tick sequence — and
// therefore every clock draw — independent of the fault schedule, so
// attaching a fault plan perturbs only what it should.
//
// # Fault plans and wall-clock binding
//
// internal/faults plans are round-indexed; asynchronous time has no
// rounds. The bridge is the fault tick: simulated time is quantized at
// TicksPerUnit ticks per unit of simulated time, and the engine fires
// the registered round hook once for every tick boundary crossed before
// dispatching the event that crossed it. Binding a plan against the
// horizon measured in fault ticks (see the facade) therefore resolves
// fractional timings ("crash 50% through the run") against wall-clock
// time, and the same faults.Bound machinery drives both engines.
//
// # Cost accounting
//
// Counters are sim.Counters with the async reading: Rounds counts
// dispatched clock ticks (events), Calls counts pairwise exchange
// attempts, and every transmission attempt — two legs per exchange, the
// paper's accounting unit — bills one message. One successful pairwise
// exchange therefore costs exactly 2 messages, which is what the AS1
// experiment compares against the synchronous pipelines' message bill.
package async

import (
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// TicksPerUnit is the fault-tick quantization: how many round-hook ticks
// one unit of simulated time spans. A power of two keeps tick boundaries
// exact in float arithmetic. At the clock rate of 1 tick per node per
// unit time, one fault tick is ~n/1024 node activations, fine enough
// that fractional fault timings land within a fraction of a percent of
// their wall-clock target.
const TicksPerUnit = 1024

// Hash/derivation domains. Deliberately disjoint from internal/sim's
// (0x10..0x30): an async run with the same seed as a sync run shares its
// initial crash set (sim.InitialCrashSet) but none of its protocol or
// loss randomness.
const (
	hashDomainLoss = 0x50 // per-transmission loss decisions
	rngDomainClock = 0x51 // per-node exponential clock streams
	rngDomainNode  = 0x52 // per-node protocol streams
)

// Engine is the asynchronous event-driven scheduler. It is not safe for
// concurrent use; drivers dispatch events strictly sequentially.
type Engine struct {
	n     int
	opts  sim.Options
	now   float64
	c     sim.Counters
	alive *bitset.Set
	nAliv int

	heap   eventHeap
	clocks []xrand.Stream
	rngs   []xrand.Stream
	seq    uint64 // scheduling sequence number (heap tie-break)
	xmit   uint64 // transmission attempt sequence (loss hashing)

	linkFault sim.LinkFault
	tickHook  func(tick int)
	tick      int

	observer  func(events int)
	memberObs func(node int, alive bool)
	phaseObs  func(phase string)
	phase     string
	residual  float64

	// abortCheck is the run watchdog (SetAbortCheck): consulted every
	// abortEvery dispatched events in Run; a non-nil error stops the
	// loop.
	abortCheck func(events int) error
	abortEvery int
}

// NewEngine builds an engine for n nodes: derives the per-node clock and
// protocol streams, applies the initial crash set — the same nodes a
// sim.Engine with equal options crashes (sim.InitialCrashSet), so sync
// and async answers are comparable over one surviving population — and
// schedules every node's first tick from time 0.
func NewEngine(n int, opts sim.Options) *Engine {
	e := &Engine{
		n:        n,
		opts:     opts,
		alive:    bitset.New(n),
		nAliv:    n,
		clocks:   make([]xrand.Stream, n),
		rngs:     make([]xrand.Stream, n),
		residual: math.NaN(),
	}
	e.alive.Fill()
	for i := 0; i < n; i++ {
		e.clocks[i] = xrand.DeriveStream(opts.Seed, rngDomainClock, uint64(i))
		e.rngs[i] = xrand.DeriveStream(opts.Seed, rngDomainNode, uint64(i))
	}
	for _, i := range sim.InitialCrashSet(n, opts) {
		e.alive.Clear(i)
		e.nAliv--
	}
	e.heap.ev = make([]event, 0, n)
	for i := 0; i < n; i++ {
		e.schedule(i)
	}
	return e
}

// schedule pushes node i's next clock tick, an exponential gap of mean
// 1 (every node ticks at rate 1 per unit of simulated time) after e.now,
// drawn from i's own clock stream.
func (e *Engine) schedule(i int) {
	// 1-Float64() is in (0,1], so the log is finite and the gap > 0:
	// time strictly advances and a node can never tick twice at once.
	gap := -math.Log(1 - e.clocks[i].Float64())
	e.seq++
	e.heap.push(event{at: e.now + gap, node: int32(i), seq: e.seq})
}

// N returns the node count.
func (e *Engine) N() int { return e.n }

// Now returns the current simulated time (the timestamp of the last
// dispatched event).
func (e *Engine) Now() float64 { return e.now }

// NumAlive returns the number of currently alive nodes.
func (e *Engine) NumAlive() int { return e.nAliv }

// Alive reports whether node i is currently alive.
func (e *Engine) Alive(i int) bool { return e.alive.Test(i) }

// Crash removes node i mid-run: its protocol actions are skipped (the
// dispatcher reports its ticks as not-alive) and exchanges with it fail,
// but its clock keeps ticking so the event stream's shape is fault-
// independent. Crashing a dead node is a no-op.
func (e *Engine) Crash(i int) {
	if e.alive.Test(i) {
		e.alive.Clear(i)
		e.nAliv--
		if e.memberObs != nil {
			e.memberObs(i, false)
		}
	}
}

// Revive rejoins node i after a crash; it resumes acting on its next
// clock tick with whatever protocol state it crashed with (the
// protocol's concern, as in sim). Reviving a live node is a no-op.
func (e *Engine) Revive(i int) {
	if !e.alive.Test(i) {
		e.alive.Set(i)
		e.nAliv++
		if e.memberObs != nil {
			e.memberObs(i, true)
		}
	}
}

// RNG returns node i's protocol stream (peer-selection randomness).
// Like the clocks, it is derived from (Seed, node) only.
func (e *Engine) RNG(i int) *xrand.Stream { return &e.rngs[i] }

// Seed returns the engine's master seed.
func (e *Engine) Seed() uint64 { return e.opts.Seed }

// Stats returns the accumulated counters; see the package comment for
// their async reading (Rounds = dispatched events).
func (e *Engine) Stats() sim.Counters { return e.c }

// Round returns the number of events dispatched so far — the async
// stand-in for the synchronous round index, used by the telemetry layer
// to map round-event strides onto event counts.
func (e *Engine) Round() int { return e.c.Rounds }

// SetLinkFault installs (or, with nil, removes) the fault-plan link
// predicate, consulted on every transmission attempt exactly as in sim.
func (e *Engine) SetLinkFault(f sim.LinkFault) { e.linkFault = f }

// SetRoundHook installs the fault scheduler, invoked once per fault tick
// (TicksPerUnit ticks per unit of simulated time) on the sequential
// dispatch path, before the event that crossed the tick boundary.
// faults.Bound.Attach installs its schedule here, with rounds read as
// fault ticks.
func (e *Engine) SetRoundHook(h func(tick int)) { e.tickHook = h }

// SetRoundObserver installs a read-only tap invoked after every
// dispatched event (alive or not), with the running event count — the
// async reading of sim.Engine.SetRoundObserver, whose name it shares so
// the facade wires both engines through one interface.
func (e *Engine) SetRoundObserver(f func(events int)) { e.observer = f }

// SetAbortCheck installs (or, with nil, removes) a run watchdog: the
// Run loop consults f every `every` dispatched events (every < 1 means
// every event) with the running event count, and a non-nil error stops
// the loop gracefully: Run returns, so drivers close their books on the
// partial state instead of unwinding. The engine keeps no record of the
// error; the check's owner does. Like the synchronous counterpart
// (sim.Engine.SetAbortCheck) it is control-plane only: a run the check
// never aborts is bit-identical to one without a check installed.
func (e *Engine) SetAbortCheck(f func(events int) error, every int) {
	if every < 1 {
		every = 1
	}
	e.abortCheck = f
	e.abortEvery = every
}

// SetMembershipObserver installs a read-only tap on Crash/Revive
// transitions (the telemetry fault events).
func (e *Engine) SetMembershipObserver(f func(node int, alive bool)) { e.memberObs = f }

// SetPhase records the driver's current phase label and notifies the
// phase observer; Phase returns it. The pairwise drivers run a single
// "pairwise" phase.
func (e *Engine) SetPhase(p string) {
	e.phase = p
	if e.phaseObs != nil {
		e.phaseObs(p)
	}
}

// Phase returns the current phase label.
func (e *Engine) Phase() string { return e.phase }

// SetPhaseObserver installs a read-only tap on phase transitions.
func (e *Engine) SetPhaseObserver(f func(phase string)) { e.phaseObs = f }

// ReportResidual records the driver's current convergence residual (the
// pairwise drivers report the spread of the estimates across alive
// nodes); Residual returns the last report, NaN before the first.
func (e *Engine) ReportResidual(r float64) { e.residual = r }

// Residual returns the last driver-reported convergence residual.
func (e *Engine) Residual() float64 { return e.residual }

// Step dispatches the next event: pops the earliest (time, node, seq)
// tick, advances simulated time, fires every fault tick the new time
// crossed, bills the event, and schedules the node's next tick. It
// returns the ticking node and whether it is alive (drivers skip the
// protocol action of dead nodes); ok is false when no events are
// scheduled at all (an engine with no nodes).
func (e *Engine) Step() (node int, alive, ok bool) {
	if e.heap.len() == 0 {
		return -1, false, false
	}
	ev := e.heap.pop()
	e.now = ev.at
	if e.tickHook != nil {
		// Fire every tick boundary in (previous, now]: a hook keyed at
		// tick t acts before any event at time >= t/TicksPerUnit.
		for target := int(ev.at * TicksPerUnit); e.tick < target; {
			e.tick++
			e.tickHook(e.tick)
		}
	}
	e.c.Rounds++
	node = int(ev.node)
	e.schedule(node)
	return node, e.alive.Test(node), true
}

// Run drives the event loop: it dispatches up to maxEvents events,
// invoking handler for each tick of an alive node, then the event
// observer (after the handler, so observers see the post-action state),
// then stop. It returns the number of events dispatched in this call.
// The loop ends when stop reports true, maxEvents is reached, no events
// are scheduled, or the installed abort check rejects the run.
func (e *Engine) Run(handler func(node int), stop func() bool, maxEvents int) int {
	events := 0
	for events < maxEvents {
		node, alive, ok := e.Step()
		if !ok {
			break
		}
		events++
		if alive {
			handler(node)
		}
		if e.observer != nil {
			e.observer(e.c.Rounds)
		}
		if e.abortCheck != nil && e.c.Rounds%e.abortEvery == 0 {
			if e.abortCheck(e.c.Rounds) != nil {
				break
			}
		}
		if stop() {
			break
		}
	}
	return events
}

// Exchange performs the transport of one atomic pairwise exchange
// between u and v: a request leg u→v and a reply leg v→u, each billing
// one message and each subject to the installed link fault and the
// uniform loss. The exchange succeeds — and only then should the caller
// commit both nodes' state — when both legs survive and v is alive; a
// failed handshake leaves both nodes unchanged (the reliable-handshake
// assumption of the pairwise-averaging analyses, which keeps the mean
// invariant under loss). Calls counts attempts, successful or not.
func (e *Engine) Exchange(u, v int) bool {
	e.c.Calls++
	if !e.attempt(u, v) {
		return false
	}
	if !e.alive.Test(v) {
		return false
	}
	return e.attempt(v, u)
}

// attempt accounts one transmission and decides its survival: the loss
// decision hashes the attempt sequence number (assigned here, on the
// sequential dispatch path), compounded with any installed link fault
// exactly as in sim.Engine.attempt.
func (e *Engine) attempt(from, to int) bool {
	e.xmit++
	e.c.Messages++
	eff := e.opts.Loss
	if e.linkFault != nil {
		if x := e.linkFault(from, to); x > 0 {
			if x >= 1 {
				e.c.Drops++
				e.c.Blocked++
				return false
			}
			eff = 1 - (1-eff)*(1-x) // independent fault and link loss
		}
	}
	if eff > 0 && xrand.HashFloat(e.opts.Seed, hashDomainLoss, e.xmit) < eff {
		e.c.Drops++
		return false
	}
	return true
}
