// Package sim implements the synchronous network model of the paper
// (Section 2): n nodes with unique addresses communicate in discrete
// rounds under the random phone call model. In one round a node may place
// one call (an in-round, bidirectional exchange) or send bounded-size
// messages; links are lossy (each transmission independently fails with
// probability δ); a fraction of nodes may crash before the protocol starts
// but not during it.
//
// The engine does bookkeeping only — protocols (DRR, convergecast, gossip,
// and the baselines) live in their own packages and drive the engine round
// by round. Every transmission attempt, including relay hops, acks and
// retransmissions, is counted as one message, which is the quantity the
// paper's message-complexity results bound. That bookkeeping — membership,
// node streams, the transmission attempt and every hook slot — lives in
// Core, which the asynchronous engine (internal/async) embeds as well;
// Engine adds the round scheduler and its delivery machinery.
//
// # Dynamic membership and link faults
//
// The paper's failure model is static: Options.CrashFrac removes nodes
// before round 1 and the surviving population is fixed for the whole run.
// The engine generalises this to a dynamic model driven from outside
// (see internal/faults): Crash and Revive change membership between
// rounds, SetLinkFault installs a per-link extra drop probability
// (1 severs the link — partitions and blackouts; values in (0,1) model
// loss bursts and flaky regions), and SetRoundHook lets a fault scheduler
// run at the top of every Tick, before that round's deliveries. Messages
// in flight to a node that crashes are discarded at delivery time. The
// static model is the special case in which none of these hooks are used:
// with no hook and no link fault installed, the engine's behaviour —
// every counter, every loss decision — is bit-for-bit identical to the
// pre-dynamic engine, and an initial-crash set is exactly expressible as
// a round-0 batch of Crash calls on the ids of InitialCrashSet.
//
// # Determinism
//
// Runs are reproducible from Options.Seed alone. A run starts no
// goroutine: every protocol steps its nodes in ascending id on the
// caller's goroutine, and runs parallelize only against each other (see
// ForEachRun). Per-node random streams are derived from (seed, node),
// and per-message loss is a stateless hash of (seed, message sequence
// number), with sequence numbers assigned in deterministic node order;
// the constant (seed, domain) prefix is hashed once per reset
// (xrand.Key), so each draw mixes in only the sequence number. Fault
// hooks preserve this: they run at deterministic points (round
// boundaries) and the link-fault predicate is consulted only from the
// engine's sequential send path. A fault binding (internal/faults)
// installs that predicate only while a link-level fault is active and
// removes it between windows, keeping its round hook, so Faulty() stays
// true for the whole run.
//
// # Delivery
//
// Every in-flight message is queued, at send time, on the ring slot of
// its delivery round, and Tick files that slot's queue into the inboxes
// in send order on the engine's sequential path. Inboxes are cleared
// lazily (only those filled at the previous Tick), which keeps Tick
// O(messages delivered) instead of O(n) — the change that makes
// million-node runs affordable.
package sim

import "math"

// Payload is the fixed-size message body. The paper limits message length
// to O(log n + log s); using a fixed small struct enforces that protocols
// cannot smuggle unbounded state (the lower-bound harness in
// internal/oblivious deliberately models the unbounded regime and does not
// use this package's messages).
type Payload struct {
	Kind    uint8   // protocol-defined discriminator
	A, B, C float64 // numeric fields (a value, a weight, …)
	X, Y    int64   // integer fields (ids, counts, …)
}

// Message is a payload in flight or delivered.
type Message struct {
	From, To int
	Pay      Payload
}

// Call describes the single call a node may place in a round: From
// calls To with request Pay.
type Call struct {
	From, To int
	Pay      Payload
}

// Options configure an Engine.
type Options struct {
	Seed      uint64  // master seed; equal seeds give identical runs
	Loss      float64 // per-message drop probability δ ∈ [0,1)
	CrashFrac float64 // fraction of nodes crashed before the protocol starts
}

// Counters aggregates the engine's accounting.
type Counters struct {
	Rounds   int   // rounds elapsed (Tick calls)
	Messages int64 // transmission attempts (lossy or not)
	Drops    int64 // attempts lost to link failure (incl. blocked links)
	Blocked  int64 // subset of Drops killed by an installed link fault
	Calls    int64 // calls placed (each call costs >=1 message)
}

// Add returns c + other, folding per-phase counters back into a total.
func (c Counters) Add(other Counters) Counters {
	return Counters{
		Rounds:   c.Rounds + other.Rounds,
		Messages: c.Messages + other.Messages,
		Drops:    c.Drops + other.Drops,
		Blocked:  c.Blocked + other.Blocked,
		Calls:    c.Calls + other.Calls,
	}
}

// Sub returns c - prev, useful for per-phase accounting.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Rounds:   c.Rounds - prev.Rounds,
		Messages: c.Messages - prev.Messages,
		Drops:    c.Drops - prev.Drops,
		Blocked:  c.Blocked - prev.Blocked,
		Calls:    c.Calls - prev.Calls,
	}
}

// CeilLog2 is ⌈log2 n⌉, at least 1: the log n of the paper's round
// budgets.
func CeilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

const (
	hashDomainLoss  = 0x10 // per-message loss decisions
	hashDomainCrash = 0x20 // initial crash selection
	rngDomainNode   = 0x30 // per-node protocol streams
)

// LinkFault gives the extra, fault-induced drop probability of a
// transmission from -> to: 0 is a healthy link, 1 a severed one
// (partition or blackout), values in between model loss bursts. It is
// consulted on every transmission attempt while installed.
type LinkFault func(from, to int) float64

// Engine is the synchronous round simulator: the shared Core plus the
// delivery machinery. It is not safe for concurrent use: a run drives
// its Engine from one goroutine, performing its Engine calls in node
// order.
//
// The hot path is allocation-free: in-flight messages live in a ring
// buffer of per-round delivery queues whose backing arrays are
// recycled across rounds, per-node RNG streams are stored by value and
// reseeded in place, the alive set is a dense bitset with a cached
// sorted-ID view, and only the inboxes actually filled at the previous
// Tick are cleared. An Engine can be reused for a new run with Reset,
// which reproduces NewEngine's state bit-for-bit without reallocating.
type Engine struct {
	Core

	inbox [][]Message // per-node messages delivered at the last Tick

	// ring holds in-flight messages keyed by delivery round:
	// ring[r&ringMask] is the queue for absolute round r. A drained
	// queue's backing array is detached from its slot and recycled through
	// the pool below, so steady-state scheduling allocates nothing; the
	// ring grows (power of two) when a routed send's horizon exceeds it.
	ring     [][]Message
	ringMask int
	inflight int // messages scheduled and not yet delivered or discarded

	// pool recycles drained queue backing arrays across ring slots
	// (LIFO). Before pooling, every slot queue kept its own
	// high-water capacity forever, so routed sends spreading bursts over
	// 2·log n future slots retained the sum of per-slot peaks; the pool
	// bounds total retained queue capacity by poolBudget — arrays that
	// would exceed it are dropped for the GC instead of parked.
	pool       [][]Message
	poolCap    int // total capacity currently parked in pool
	poolBudget int // retention cap, in messages (64 B each)

	// touched lists the inboxes filled at the last Tick (the only ones
	// that need clearing at the next one).
	touched []int

	calls []Call // the call buffer CallSlots hands out, kept across Reset
}

// AbortError is the panic value Tick raises when the installed abort
// check rejects the run (see SetAbortCheck). Protocol drivers own their
// round loops, so a mid-run abort unwinds them by panic; the facade
// recovers it at the run boundary and turns the wrapped cause into a
// partial answer. Err is the abort cause (a context error or a facade
// budget sentinel).
type AbortError struct{ Err error }

// Error implements error.
func (e *AbortError) Error() string { return "sim: run aborted: " + e.Err.Error() }

// Unwrap returns the abort cause.
func (e *AbortError) Unwrap() error { return e.Err }

// initialRingSize is the delivery ring's starting slot count (power of
// two). Direct and relayed sends only ever look one round ahead; routed
// sends reach round+len(path), which grows the ring on demand.
const initialRingSize = 16

// NewEngine creates an engine for n nodes. n must be at least 1.
func NewEngine(n int, opts Options) *Engine {
	if n < 1 {
		panic("sim: need at least one node")
	}
	return &Engine{
		Core:     NewCore(n, opts, hashDomainLoss, rngDomainNode),
		inbox:    make([][]Message, n),
		ring:     make([][]Message, initialRingSize),
		ringMask: initialRingSize - 1,
		// Enough pooled capacity for several steady-state rounds of
		// O(n) traffic; a rarer larger round is freed rather than
		// retained.
		poolBudget: max(8192, 4*n),
	}
}

// Reset reinitializes the engine in place to the state NewEngine(e.N(),
// opts) would produce — counters zeroed, alive set rebuilt from opts'
// static crash model, message sequence and RNG streams reseeded, hooks
// and in-flight messages cleared — while keeping every buffer it has
// already grown. A Reset engine is bit-for-bit equivalent to a fresh one:
// equal (n, opts) produce identical counters, loss decisions and results
// whether the engine is new or reused, which is what lets a session run
// many protocol executions on one allocation.
func (e *Engine) Reset(opts Options) {
	e.reset(opts)
	for i := range e.inbox {
		e.inbox[i] = e.inbox[i][:0]
	}
	// Drained or abandoned queues go back to the pool (the pool itself
	// survives Reset — reusing an engine is exactly when recycled
	// capacity pays off).
	for slot, q := range e.ring {
		if q != nil {
			e.ring[slot] = nil
			e.recycle(q)
		}
	}
	e.touched = e.touched[:0]
	e.inflight = 0
}

// Charge accounts k extra message transmissions without delivering
// anything. Protocols use it for control traffic they simulate outside
// the payload plane (e.g. the rejected routing attempts of the Chord
// random-node sampler, whose cost Theorem 14's M budget must include).
func (e *Engine) Charge(k int64) {
	if k < 0 {
		panic("sim: negative Charge")
	}
	e.c.Messages += k
}

// Tick advances to the next round: the round hook (if any) runs first,
// then messages sent previously (and routed messages whose hop count has
// elapsed) become visible in the recipients' inboxes. Messages addressed
// to a node that has crashed since they were sent are discarded. Only
// the inboxes filled at the previous Tick are cleared.
func (e *Engine) Tick() {
	round := e.Advance()
	if err := e.CheckAbort(); err != nil {
		panic(&AbortError{Err: err})
	}
	if e.roundHook != nil {
		e.roundHook(round)
	}
	for _, i := range e.touched {
		e.inbox[i] = e.inbox[i][:0]
	}
	e.touched = e.touched[:0]
	slot := round & e.ringMask
	msgs := e.ring[slot]
	for _, m := range msgs {
		if e.alive.Test(m.To) {
			if len(e.inbox[m.To]) == 0 {
				e.touched = append(e.touched, m.To)
			}
			e.inbox[m.To] = append(e.inbox[m.To], m)
		}
	}
	e.inflight -= len(msgs)
	e.ring[slot] = nil
	e.recycle(msgs) // back to the pool (or the GC)
	e.ObserveRound()
}

// Inbox returns the messages delivered to node i at the last Tick. The
// returned slice is valid until the next Tick.
func (e *Engine) Inbox(i int) []Message { return e.inbox[i] }

// Delivered returns the nodes whose inboxes the last Tick filled, each
// once, in order of first delivery; every other inbox is empty. Drivers
// that read a few inboxes out of many walk it instead of scanning. The
// slice is owned by the engine and valid until the next Tick; callers
// must not modify it.
func (e *Engine) Delivered() []int { return e.touched }

// PendingEmpty reports whether any message is still in flight.
func (e *Engine) PendingEmpty() bool { return e.inflight == 0 }

// recycle parks a drained queue's backing array in the pool for reuse by
// any slot's queue, unless retaining it would push the pool past its
// capacity budget — arrays from a round that queued far more than O(n)
// messages are dropped for the GC instead of ballooning the resident
// set.
func (e *Engine) recycle(q []Message) {
	if c := cap(q); c > 0 && e.poolCap+c <= e.poolBudget {
		e.pool = append(e.pool, q[:0])
		e.poolCap += c
	}
}

// popQueue takes the most recently recycled backing array, or nil when
// the pool is empty (append will then allocate).
func (e *Engine) popQueue() []Message {
	if len(e.pool) == 0 {
		return nil
	}
	q := e.pool[len(e.pool)-1]
	e.pool = e.pool[:len(e.pool)-1]
	e.poolCap -= cap(q)
	return q
}

// scheduleAt enqueues a delivery for the given absolute round (which is
// always in the future: sends schedule at e.c.Rounds+k, k >= 1, so a
// slot holds messages for exactly one round at a time).
func (e *Engine) scheduleAt(round int, m Message) {
	if round-e.c.Rounds >= len(e.ring) {
		e.growRing(round - e.c.Rounds + 1)
	}
	slot := round & e.ringMask
	q := e.ring[slot]
	if q == nil {
		q = e.popQueue()
	}
	e.ring[slot] = append(q, m)
	e.inflight++
}

// growRing widens the delivery ring to at least `need` slots (next power
// of two), re-filing the occupied slots at their new positions. Queues
// move wholesale (drained slots are nil; their capacity lives in the
// pool), so nothing in flight or recycled is lost.
func (e *Engine) growRing(need int) {
	size := len(e.ring)
	for size < need {
		size <<= 1
	}
	ring := make([][]Message, size)
	mask := size - 1
	// Old slot s holds messages due at the unique round r in
	// (Rounds, Rounds+oldSize] with r ≡ s (mod oldSize).
	base := e.c.Rounds + 1
	for s, q := range e.ring {
		r := base + ((s - base) & e.ringMask)
		ring[r&mask] = q
	}
	e.ring = ring
	e.ringMask = mask
}

// Send transmits one message from -> to; if it survives, it is delivered
// at the next Tick. Cost: 1 message.
func (e *Engine) Send(from, to int, p Payload) {
	if !e.alive.Test(from) {
		return
	}
	if e.Attempt(from, to) {
		e.scheduleAt(e.c.Rounds+1, Message{From: from, To: to, Pay: p})
	}
}

// SendEach transmits one message from `from` to each of to[0], to[1], …
// in order — the sparse model's neighbourhood round — and hands every
// survivor straight to deliver instead of queuing a Message. Each
// element costs exactly what Send costs: one message billed, one
// sequence number, the same loss, link-fault and receiver-alive checks,
// so the counters and every later loss decision match len(to) Send
// calls. A dead sender is a no-op, as in Send.
//
// Nothing reaches the ring or the inboxes. The contract is the caller's:
// it treats each receipt as delivered at the next Tick and drops those
// whose receiver is not Alive after it, exactly as Tick discards
// messages to a node crashed in the meantime. deliver runs on the
// engine's sequential path, in send order.
func (e *Engine) SendEach(from int, to []int, deliver func(to int)) {
	if !e.alive.Test(from) {
		return
	}
	for _, t := range to {
		if e.Attempt(from, t) {
			deliver(t)
		}
	}
}

// SendVia transmits from -> relay -> dst within one round step, modeling
// Phase III's non-address-oblivious relay: a root sends to a random node,
// which forwards the message to dst (its own root) in the same round
// ("to traverse through an edge of G̃, a message needs at most two hops of
// G"). Cost: 2 messages (1 if the first hop is lost); delivery at the next
// Tick. When relay == dst the message needs a single hop.
func (e *Engine) SendVia(from, relay, dst int, p Payload) {
	if !e.alive.Test(from) {
		return
	}
	if relay == dst {
		e.Send(from, dst, p)
		return
	}
	if !e.Attempt(from, relay) {
		return
	}
	if e.Attempt(relay, dst) {
		e.scheduleAt(e.c.Rounds+1, Message{From: from, To: dst, Pay: p})
	}
}

// SendRouted transmits along an explicit hop path (excluding the sender):
// one hop per round, one message per hop, each hop independently lossy.
// The payload reaches the final path element after len(path) rounds. Used
// for sparse overlays (Chord) where a "gossip edge" is a routed path.
// path is read only during the call and never retained, so callers may
// reuse its backing array for the next route as soon as it returns.
func (e *Engine) SendRouted(from int, path []int, p Payload) {
	if !e.alive.Test(from) || len(path) == 0 {
		return
	}
	prev := from
	for _, hop := range path {
		if !e.Attempt(prev, hop) {
			return
		}
		prev = hop
	}
	e.scheduleAt(e.c.Rounds+len(path), Message{From: from, To: path[len(path)-1], Pay: p})
}

// SendRoutedReliable is SendRouted with link-layer retransmission: each
// hop is retried until an attempt survives loss, up to 8 attempts per
// hop. Every attempt is paid for, so the expected cost per hop is
// 1/(1-δ) messages — the paper's "repeated calls" remedy, which protocols whose push-sum mass must never be
// destroyed (the distinguished-root Sum and Count) use for their routed
// shares. It reports whether the payload was scheduled; on success it is
// delivered after len(path) rounds, exactly like SendRouted. A crashed
// relay exhausts its hop budget (retransmission cannot revive a node),
// so callers can restore unsent mass when it returns false. Like
// SendRouted, it reads path only during the call.
func (e *Engine) SendRoutedReliable(from int, path []int, p Payload) bool {
	if !e.alive.Test(from) || len(path) == 0 {
		return false
	}
	prev := from
	for _, hop := range path {
		ok := false
		for t := 0; t < 8 && !ok; t++ {
			ok = e.Attempt(prev, hop)
		}
		if !ok {
			return false
		}
		prev = hop
	}
	e.scheduleAt(e.c.Rounds+len(path), Message{From: from, To: path[len(path)-1], Pay: p})
	return true
}

// CallSlots returns the engine's call list, empty, with room for one
// call per node: a driver appends the round's calls in ascending caller
// order and passes the list to ResolveCalls. Its backing array is
// allocated on first use and survives Reset, so a pooled engine runs
// every call round of every run on one buffer. Each call returns the
// same backing array: a driver must not hold it across another driver's
// call round.
func (e *Engine) CallSlots() []Call {
	if e.calls == nil {
		e.calls = make([]Call, 0, e.n)
	}
	return e.calls[:0]
}

// ResolveCalls performs one synchronous call round over calls, the
// round's callers in strictly ascending From order (at most one call per
// node). For every call whose caller is alive and whose request
// survives, handle is invoked on the callee and may return a response,
// which (if it survives the return leg) is passed to onReply on the
// caller — all within the current round, matching the paper's "once a
// call is established, information can be exchanged in both directions".
//
// Callers are processed in list order, so handlers observing state
// mutated by earlier calls in the same round see a deterministic order,
// and the work is proportional to the calls placed, not to n. Cost: 1
// message per placed call, +1 per non-nil response.
func (e *Engine) ResolveCalls(
	calls []Call,
	handle func(callee, caller int, req Payload) (Payload, bool),
	onReply func(caller int, resp Payload),
) {
	prev := -1
	for _, c := range calls {
		from := c.From
		if from <= prev || from >= e.n {
			panic("sim: ResolveCalls needs callers in strictly ascending order")
		}
		prev = from
		if !e.alive.Test(from) {
			continue
		}
		if !e.Call(from, c.To) {
			continue // request lost, link faulted, or callee dead
		}
		resp, ok := handle(c.To, from, c.Pay)
		if !ok {
			continue
		}
		if e.Attempt(c.To, from) && onReply != nil {
			onReply(from, resp)
		}
	}
}
