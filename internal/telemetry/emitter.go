package telemetry

import "drrgossip/internal/sim"

// EngineView is the engine surface the emitter samples: counters, the
// progress index (synchronous rounds, or dispatched events on the async
// engine — both expose it as Round), the phase label, live membership
// and the driver-reported convergence residual. Both sim.Engine and
// async.Engine satisfy it through the sim.Core they embed, so one
// emitter serves both execution models and a sink cannot tell them
// apart beyond the op name.
type EngineView interface {
	Stats() sim.Counters
	Round() int
	Phase() string
	NumAlive() int
	Residual() float64
}

// Emitter drives the event stream for one session: the facade calls
// RunStart/RunEnd around every protocol run and wires Phase/Round/Fault
// into the engine's observer hooks. It keeps the per-run sequence
// number and the previous-event counter snapshot, so every event's
// Delta is exact and the whole stream needs no post-processing.
//
// An Emitter reuses one Event value across emissions (sinks copy what
// they keep), so steady-state emission allocates nothing. A nil
// *Emitter is a valid "telemetry off" emitter: every method is a no-op
// and Enabled/WantsRounds report false.
type Emitter struct {
	sink       Sink
	roundEvery int

	run  int
	seq  uint64
	op   string
	prev sim.Counters
	ev   Event
}

// NewEmitter builds an emitter for opts, or nil when opts has no sink
// (telemetry disabled).
func NewEmitter(opts Options) *Emitter {
	if opts.Sink == nil {
		return nil
	}
	re := opts.RoundEvery
	if re < 0 {
		re = 0
	}
	return &Emitter{sink: opts.Sink, roundEvery: re}
}

// Enabled reports whether the emitter forwards events.
func (em *Emitter) Enabled() bool { return em != nil }

// WantsRounds reports whether per-round samples were requested — the
// facade installs an engine round observer only then.
func (em *Emitter) WantsRounds() bool { return em != nil && em.roundEvery > 0 }

// RoundEvery returns the configured per-round sampling stride (0 = no
// round samples).
func (em *Emitter) RoundEvery() int {
	if em == nil {
		return 0
	}
	return em.roundEvery
}

// fill populates the reusable event from the engine's current state and
// advances the per-run delta baseline.
func (em *Emitter) fill(eng EngineView, kind Kind) *Event {
	cur := eng.Stats()
	em.seq++
	em.ev = Event{
		Run:      em.run,
		Seq:      em.seq,
		Round:    eng.Round(),
		Kind:     kind,
		Op:       em.op,
		Phase:    eng.Phase(),
		Alive:    eng.NumAlive(),
		Node:     -1,
		Counters: cur,
		Delta:    cur.Sub(em.prev),
		Residual: eng.Residual(),
	}
	em.prev = cur
	return &em.ev
}

// RunStart opens run number run (the session's protocol-run index) for
// operation op on eng and emits the KindRunStart event.
func (em *Emitter) RunStart(run int, op string, eng EngineView) {
	if em == nil {
		return
	}
	em.run = run
	em.seq = 0
	em.op = op
	em.prev = sim.Counters{}
	em.sink.Emit(em.fill(eng, KindRunStart))
}

// Phase emits a KindPhase event for the transition the engine just
// recorded (wired into sim.SetPhaseObserver). Its Delta bills the
// segment that just completed.
func (em *Emitter) Phase(eng EngineView) {
	if em == nil {
		return
	}
	em.sink.Emit(em.fill(eng, KindPhase))
}

// Round emits a KindRound sample when the engine's round lands on the
// configured stride (wired into the engine round observer).
func (em *Emitter) Round(eng EngineView) {
	if em == nil || em.roundEvery <= 0 || eng.Round()%em.roundEvery != 0 {
		return
	}
	em.sink.Emit(em.fill(eng, KindRound))
}

// Fault emits a KindFault event for a membership transition (wired into
// sim.SetMembershipObserver): alive=false is a crash, true a revive.
func (em *Emitter) Fault(eng EngineView, node int, alive bool) {
	if em == nil {
		return
	}
	ev := em.fill(eng, KindFault)
	ev.Node = node
	ev.Crash = !alive
	em.sink.Emit(ev)
}

// RunEnd closes the run: its Counters are the final totals and its
// Delta closes the last segment, making the run's Deltas sum exactly to
// the totals.
func (em *Emitter) RunEnd(eng EngineView) {
	if em == nil {
		return
	}
	em.sink.Emit(em.fill(eng, KindRunEnd))
}

// Forward re-emits an already-built event verbatim — the deterministic
// merge path of RunAll's parallel batches, which captures worker events
// in per-query Buffers, renumbers their runs in query order and then
// forwards them to the session sink.
func (em *Emitter) Forward(ev *Event) {
	if em == nil {
		return
	}
	em.sink.Emit(ev)
}
