// Package async is the deterministic event-driven counterpart of
// internal/sim: instead of synchronous rounds, every node owns a Poisson
// clock (i.i.d. exponential gaps) and acts alone when its clock ticks —
// the standard asynchronous time model of the pairwise-gossip literature
// (Boyd et al.; Dimakis et al., "Gossip Algorithms for Distributed
// Signal Processing"). The engine is sim.Core — membership, node
// streams, the transmission attempt and its billing, the fault,
// observer and watchdog hook slots, all shared with the synchronous
// engine — plus a scheduler of its own: the event heap and the clocks.
// The protocol (e.g. internal/pairwise) runs its node action on each
// dispatched tick; nothing in the engine knows what a protocol message
// means.
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

// Engine is the asynchronous event-driven scheduler over the shared
// sim.Core. It is not safe for concurrent use; drivers dispatch events
// strictly sequentially.
type Engine struct {
	sim.Core

	now    float64
	heap   eventHeap
	clocks []xrand.Stream
	seq    uint64 // scheduling sequence number (heap tie-break)
	tick   int    // last fault tick the round hook saw
}

// NewEngine builds an engine for n nodes: the core with the initial
// crash set of opts — the same nodes a sim.Engine with equal options
// crashes (sim.InitialCrashSet), so sync and async answers are
// comparable over one surviving population — plus every node's clock
// stream and first tick from time 0.
func NewEngine(n int, opts sim.Options) *Engine {
	e := &Engine{
		Core:   sim.NewCore(n, opts, hashDomainLoss, rngDomainNode),
		clocks: make([]xrand.Stream, n),
	}
	for i := range e.clocks {
		e.clocks[i] = xrand.DeriveStream(opts.Seed, rngDomainClock, uint64(i))
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

// Now returns the current simulated time (the timestamp of the last
// dispatched event).
func (e *Engine) Now() float64 { return e.now }

// Step dispatches the next event: pops the earliest (time, node, seq)
// tick, advances simulated time, fires the round hook once for every
// fault tick the new time crossed, counts the event, and schedules the
// node's next tick. It returns the ticking node and whether it is alive
// (drivers skip the protocol action of dead nodes); ok is false when no
// events are scheduled at all (an engine with no nodes).
func (e *Engine) Step() (node int, alive, ok bool) {
	if e.heap.len() == 0 {
		return -1, false, false
	}
	ev := e.heap.pop()
	e.now = ev.at
	if hook := e.RoundHook(); hook != nil {
		// Fire every tick boundary in (previous, now]: a hook keyed at
		// tick t acts before any event at time >= t/TicksPerUnit.
		for target := int(ev.at * TicksPerUnit); e.tick < target; {
			e.tick++
			hook(e.tick)
		}
	}
	e.Advance()
	node = int(ev.node)
	e.schedule(node)
	return node, e.Alive(node), true
}

// Run drives the event loop: it dispatches up to maxEvents events,
// invoking handler for each tick of an alive node, then the round
// observer (after the handler, so observers see the post-action state),
// then stop. It returns the number of events dispatched in this call.
// The loop ends when stop reports true, maxEvents is reached, no events
// are scheduled, or the installed abort check rejects the run; the
// engine keeps no record of the check's error, its owner does.
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
		e.ObserveRound()
		if e.CheckAbort() != nil || stop() {
			break
		}
	}
	return events
}

// Exchange performs the transport of one atomic pairwise exchange
// between u and v: a call whose request leg u→v and reply leg v→u each
// bill one message and are each subject to the installed link fault,
// the uniform loss and the receiver being alive. The exchange succeeds —
// and only then should the caller commit both nodes' state — when both
// legs survive; a failed handshake leaves both nodes unchanged (the
// reliable-handshake assumption of the pairwise-averaging analyses,
// which keeps the mean invariant under loss). Calls counts attempts,
// successful or not.
func (e *Engine) Exchange(u, v int) bool {
	return e.Call(u, v) && e.Attempt(v, u)
}
