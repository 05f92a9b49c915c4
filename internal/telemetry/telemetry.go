// Package telemetry is the structured observability layer of the
// simulator: a low-overhead event stream threaded through internal/sim
// and the session facade (run boundaries, phase transitions, fault
// events, convergence residuals, per-round counter deltas) with
// pluggable sinks — an in-memory ring, a JSONL trace writer, a live
// metrics aggregator with a Prometheus-format HTTP endpoint, and a
// Chrome trace-event exporter that renders a whole session as a
// flame-style timeline of runs × phases.
//
// The contract mirrors the engine's observer design: telemetry is a
// read-only tap. Emitting events cannot perturb a run — every result
// and counter stays bit-identical with any sink attached — and with
// telemetry disabled the hot path pays nothing (no observer is
// installed; pinned by the bench guard).
//
// # Event stream
//
// Events are emitted per run — one engine pass, which may fold several
// protocol runs as value lanes — in a fixed order: one RunStart, then
// Phase / Round / Fault events as the run progresses, then one RunEnd.
// Within a run, (Round, Seq) is strictly increasing, so the
// full stream sorts by (Run, Round, Seq) — the ordering key the
// determinism tests pin across GOMAXPROCS and worker counts. Each
// event carries the engine's cumulative Counters and the Delta since
// the run's previous event, so phase costs and per-round rates need no
// recomputation downstream.
package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"sync"

	"drrgossip/internal/sim"
)

// Kind discriminates the event types of the stream.
type Kind uint8

// Event kinds, in the order they appear within a run.
const (
	// KindRunStart opens a protocol run (Round 0, zero counters).
	KindRunStart Kind = iota + 1
	// KindPhase marks a phase transition: Phase is the phase being
	// entered, Round/Counters the position at the transition, and Delta
	// the cost accumulated since the previous event — i.e. the bill of
	// the segment just completed.
	KindPhase
	// KindRound is a per-round sample (emitted every Options.RoundEvery
	// rounds; never when RoundEvery == 0).
	KindRound
	// KindFault records a membership transition applied by a fault plan:
	// Node is the affected node and Crash is true for a crash, false for
	// a revive.
	KindFault
	// KindRunEnd closes a run; its Counters are the run's final totals
	// and its Delta closes the last segment, so the Deltas of a run's
	// events always sum exactly to the final Counters.
	KindRunEnd
)

var kindNames = [...]string{
	KindRunStart: "run_start",
	KindPhase:    "phase",
	KindRound:    "round",
	KindFault:    "fault",
	KindRunEnd:   "run_end",
}

// String renders the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one observation of a protocol run. Events are plain values;
// the emitter reuses one Event between Emit calls, so sinks that retain
// events must copy them (Ring and Buffer do).
type Event struct {
	// Run numbers the engine pass within the session (1-based, counting
	// composite sub-runs and horizon-measurement pre-runs). A pass that
	// folds several protocol runs as value lanes is one run here, and its
	// residual is its first lane's.
	Run int
	// Seq orders the run's events (1-based, strictly increasing).
	Seq uint64
	// Round is the engine round the event was observed at.
	Round int
	// Kind is the event type.
	Kind Kind
	// Op is the operation the run computes ("max", "rank", …).
	Op string
	// Phase is the engine's phase label at the event ("drr", "gossip",
	// …; for KindPhase, the phase being entered).
	Phase string
	// Alive is the live-node count at the event.
	Alive int
	// Node and Crash describe KindFault events (Node is -1 otherwise).
	Node  int
	Crash bool
	// Counters is the engine's cumulative accounting at the event.
	Counters sim.Counters
	// Delta is Counters minus the run's previous event's Counters: the
	// cost of the segment between the two. A run's Deltas sum exactly to
	// its final Counters.
	Delta sim.Counters
	// Residual is the driver-reported convergence residual (NaN when the
	// running protocol does not expose one; see sim.ReportResidual).
	Residual float64
}

// Sink consumes events. Emit is called from the engine's sequential
// round loop — implementations must be fast, must not call back into
// the session, and must copy the Event if they retain it (the emitter
// reuses the pointed-to Event). Sinks used together with a live HTTP
// reader (Metrics, Ring) must be internally synchronized.
type Sink interface {
	Emit(ev *Event)
}

// Options is the facade-level telemetry configuration (Config.Telemetry).
type Options struct {
	// Sink receives the event stream. Nil disables telemetry entirely —
	// the zero-alloc hot path is untouched.
	Sink Sink
	// RoundEvery emits a KindRound sample every RoundEvery rounds
	// (1 = every round). 0 emits no per-round samples: the stream then
	// carries only run/phase/fault events, whose Deltas still account
	// every counter — the right default at large n.
	RoundEvery int
}

// Ring is a fixed-capacity in-memory sink that overwrites its oldest
// events once full — bounded memory for arbitrarily long sessions. It
// is safe for concurrent Emit and Events calls (one emitter plus any
// number of readers).
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// NewRing returns a ring retaining the last capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit stores a copy of ev, overwriting the oldest retained event when
// the ring is full. Allocation-free.
func (r *Ring) Emit(ev *Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = *ev
	r.total++
	r.mu.Unlock()
}

// Total returns the number of events emitted over the ring's lifetime
// (including overwritten ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	capacity := uint64(len(r.buf))
	if n > capacity {
		out := make([]Event, capacity)
		start := n % capacity
		copy(out, r.buf[start:])
		copy(out[capacity-start:], r.buf[:start])
		return out
	}
	return append([]Event(nil), r.buf[:n]...)
}

// Buffer is an unbounded in-memory sink: it appends every event. The
// RunAll parallel path uses per-query Buffers to capture worker event
// streams for deterministic merging; tests use it to snapshot whole
// sessions. Not synchronized — single-writer, read after the run.
type Buffer struct {
	events []Event
}

// Emit appends a copy of ev.
func (b *Buffer) Emit(ev *Event) { b.events = append(b.events, *ev) }

// Events returns the captured events in emission order. The returned
// slice is the buffer's backing store; copy it before further Emits.
func (b *Buffer) Events() []Event { return b.events }

// multi fans events out to several sinks in order.
type multi struct{ sinks []Sink }

func (m *multi) Emit(ev *Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Multi combines sinks into one that forwards every event to each of
// them in order, skipping nils. With zero or one non-nil sink it
// returns that sink directly.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return &multi{sinks: live}
	}
}

// JSONL streams events as JSON Lines — one self-describing object per
// event, append-only, greppable, loadable from any tooling. Writes are
// buffered; call Flush (or Close) when the session is done.
type JSONL struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	scratch []byte
}

// NewJSONL returns a JSONL sink writing to w. If w is an io.Closer,
// Close will close it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Emit writes ev as one JSON line.
func (j *JSONL) Emit(ev *Event) {
	j.mu.Lock()
	j.scratch = appendEventJSON(j.scratch[:0], ev)
	j.w.Write(j.scratch)
	j.w.WriteByte('\n')
	j.mu.Unlock()
}

// Flush drains the write buffer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Flush()
}

// Close flushes and closes the underlying writer when it is closable.
func (j *JSONL) Close() error {
	if err := j.Flush(); err != nil {
		return err
	}
	if j.c != nil {
		return j.c.Close()
	}
	return nil
}

// appendEventJSON renders ev without encoding/json: the sink sits on
// the round loop, where reflection-based marshaling would allocate per
// event. NaN residuals (no driver-reported value) serialize as null.
func appendEventJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"run":`...)
	b = strconv.AppendInt(b, int64(ev.Run), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(ev.Round), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","op":"`...)
	b = append(b, ev.Op...)
	b = append(b, `","phase":"`...)
	b = append(b, ev.Phase...)
	b = append(b, `","alive":`...)
	b = strconv.AppendInt(b, int64(ev.Alive), 10)
	if ev.Kind == KindFault {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(ev.Node), 10)
		b = append(b, `,"crash":`...)
		b = strconv.AppendBool(b, ev.Crash)
	}
	b = append(b, `,"counters":`...)
	b = appendCountersJSON(b, ev.Counters)
	b = append(b, `,"delta":`...)
	b = appendCountersJSON(b, ev.Delta)
	b = append(b, `,"residual":`...)
	if math.IsNaN(ev.Residual) {
		b = append(b, "null"...)
	} else {
		b = strconv.AppendFloat(b, ev.Residual, 'g', -1, 64)
	}
	return append(b, '}')
}

func appendCountersJSON(b []byte, c sim.Counters) []byte {
	b = append(b, `{"rounds":`...)
	b = strconv.AppendInt(b, int64(c.Rounds), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, c.Messages, 10)
	b = append(b, `,"drops":`...)
	b = strconv.AppendInt(b, c.Drops, 10)
	b = append(b, `,"blocked":`...)
	b = strconv.AppendInt(b, c.Blocked, 10)
	b = append(b, `,"calls":`...)
	b = strconv.AppendInt(b, c.Calls, 10)
	return append(b, '}')
}
