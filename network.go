// The session facade: a Network is a reusable handle on one simulated
// network, mirroring the paper's economics — one preprocessing
// investment amortized across many aggregate computations. New(cfg)
// validates the Config, builds the overlay graph and (lazily) measures
// the fault-plan horizon once per pipeline shape; the typed queries of
// query.go then run against the standing session, so a Quantile (up to
// ~80 bisection Rank steps) or a Histogram (one Rank per edge) pays
// O(build + steps) instead of O(steps × build).

package drrgossip

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"drrgossip/internal/agg"
	"drrgossip/internal/async"
	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/faults"
	"drrgossip/internal/graph"
	"drrgossip/internal/hms"
	"drrgossip/internal/overlay"
	"drrgossip/internal/pairwise"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
	"drrgossip/internal/xrand"
)

// overlayBuilds counts overlay constructions process-wide. Test
// instrumentation only: the session tests assert that a Network builds
// its overlay exactly once no matter how many queries run against it.
var overlayBuilds atomic.Int64

// SessionStats is the session-level accounting a Network keeps on top of
// per-query Cost: the work New amortizes across queries.
type SessionStats struct {
	// Queries counts the top-level queries run against the session.
	Queries int
	// ProtocolRuns counts full protocol executions, including composite
	// sub-runs and horizon-measurement pre-runs.
	ProtocolRuns int
	// HorizonRuns counts horizon-measurement pre-runs (at most one per
	// pipeline shape for plans with fractional timings; 0 otherwise).
	HorizonRuns int
	// PlanBinds counts fault-plan bindings (at most one per pipeline
	// shape: Max and Min share one, Sum, Count and Rank share one, and
	// Average and Moments have one each; in Async mode, one per Op).
	PlanBinds int
	// OverlayBuilt reports whether the session built a sparse overlay
	// (always exactly once, at New).
	OverlayBuilt bool
}

// add folds another session's query and run counts into s.
func (s *SessionStats) add(o SessionStats) {
	s.Queries += o.Queries
	s.ProtocolRuns += o.ProtocolRuns
	s.HorizonRuns += o.HorizonRuns
	s.PlanBinds += o.PlanBinds
}

// Network is a reusable session on one simulated network: New validates
// the Config once, builds the sparse overlay once, and lazily measures
// the fault-plan horizon and binds the plan once per pipeline shape —
// after which every query reuses the standing state. Queries themselves
// stay independent: each protocol run starts from a fresh engine seeded
// by Config.Seed, so a Network's answers are bit-identical to those of a
// fresh single-use session and identical across repeated calls
// (determinism is per-run, not per-session).
//
// A Network is not safe for concurrent use; run queries sequentially.
type Network struct {
	cfg Config
	ov  overlay.Overlay // nil on the Complete topology

	// eng is the session's pooled engine: allocated on the first protocol
	// run and Reset (bit-identically to a fresh engine) before every
	// later one, so a Quantile's ~80 Rank runs share one set of buffers
	// instead of rebuilding inboxes, delivery ring and RNG streams ~80
	// times. RunAll workers pool their own engines the same way.
	eng *sim.Engine
	// ws is the pipeline storage the runs of one query share: the first
	// synchronous pipeline run allocates it, every later run rebuilds its
	// forest and Phase II scratch in place (core.Workspace), and runQuery
	// drops it when the query ends. A Quantile's ~24 runs thus share one
	// allocation, while an idle session holds only its engine: kept
	// across queries, each live session would pin ~100 B per node more.
	ws *core.Workspace

	// bounds caches the fault plan resolved per pipeline shape (keyed by
	// shapeOf): the horizon (total healthy rounds) differs between the
	// max-, sum- and ave-pipelines, so fractional event timings resolve
	// per shape — but only once per shape, not once per call.
	bounds map[Op]*faults.Bound

	// used lists the binding keys bind has served, in order of first use.
	// RunAll's workers reset it per query, so the batch can forward each
	// pre-resolved binding's pre-run just before the first query that
	// used it.
	used []Op

	// sample caches the Config.SampleNodes id set (computed once per
	// session; a pure function of Seed, N and SampleNodes, so worker
	// replicas recompute the identical set, and retry epochs, whose
	// Seed differs, share the session's).
	sample []int

	// em is the session's telemetry emitter (nil when Config.Telemetry is
	// unset — the "telemetry off" state every hot path checks for free).
	em *telemetry.Emitter

	// wd is the watchdog of the query currently in flight (nil between
	// queries and whenever the config sets no Deadline/RoundBudget and
	// the context is uncancellable). runQuery installs it; execOnce hands
	// it to the engine as its abort check.
	wd *watchdog

	// stats is the session's accounting (OverlayBuilt is filled in by
	// Stats).
	stats SessionStats
}

// New validates cfg and builds the session: the overlay graph is
// constructed here (and never again), fault plans are checked, and the
// returned Network is ready to answer queries.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw := &Network{cfg: cfg, bounds: make(map[Op]*faults.Bound)}
	if cfg.Telemetry != nil {
		nw.em = telemetry.NewEmitter(*cfg.Telemetry)
	}
	if !cfg.Topology.isComplete() {
		ov, err := overlay.Build(cfg.Topology.spec(), cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		nw.ov = ov
		overlayBuilds.Add(1)
	}
	return nw, nil
}

// Config returns the configuration the session was built with.
func (nw *Network) Config() Config { return nw.cfg }

// Stats returns the session's amortization accounting.
func (nw *Network) Stats() SessionStats {
	st := nw.stats
	st.OverlayBuilt = nw.ov != nil
	return st
}

// Exact returns the reference value the query should converge to over
// this session's surviving population (see ExactOf).
func (nw *Network) Exact(q Query) (float64, error) { return ExactOf(nw.cfg, q) }

// Run executes one query against the session.
func (nw *Network) Run(q Query) (*Answer, error) { return nw.RunContext(context.Background(), q) }

// RunContext is Run with cancellation and bounded degradation: the
// context is checked before every protocol run and — through the
// engine watchdog — every few rounds (events, in Async mode) inside a
// run, so even a single long faulted run stops promptly. A cancelled
// query returns its partial Answer (Quality.Partial true, Reason
// "cancelled") alongside the context error; Config.Deadline and
// Config.RoundBudget aborts return the partial Answer with a nil error
// (see docs/ROBUSTNESS.md, "The degradation contract"). When
// Config.Retry is set, non-converged answers are re-run on shadow
// epochs before being returned.
func (nw *Network) RunContext(ctx context.Context, q Query) (*Answer, error) {
	nw.stats.Queries++
	return nw.runWithRetry(ctx, q)
}

// runQuery executes one attempt of a query — no retry policy applied —
// holding the query-scoped watchdog and pipeline workspace for its
// duration.
func (nw *Network) runQuery(ctx context.Context, q Query) (*Answer, error) {
	nw.wd = nw.newWatchdog(ctx)
	defer func() { nw.wd, nw.ws = nil, nil }()
	if err := q.validate(); err != nil {
		return nil, err
	}
	if err := nw.supports(q.Op); err != nil {
		return nil, err
	}
	switch q.Op {
	case OpMax, OpMin, OpSum, OpCount, OpAverage, OpRank, OpMoments:
		return nw.aggregate(ctx, q)
	case OpQuantile:
		if nw.cfg.QuantileMethod == QuantileHMS {
			return nw.quantileHMS(ctx, q.Values, q.Arg, q.Tol)
		}
		return nw.quantile(ctx, q.Values, q.Arg, q.Tol)
	case OpHistogram:
		return nw.histogram(ctx, q.Values, q.Edges)
	default:
		return nil, fmt.Errorf("%w: unknown query op %s (use the XxxOf constructors)", ErrBadConfig, q.Op)
	}
}

// BatchOptions tune how RunAll executes a batch.
type BatchOptions struct {
	// Parallelism fans the batch's queries across up to this many worker
	// goroutines (0 or 1 runs sequentially; the count is clamped to the
	// batch size). Each worker owns its own pooled engine and shares the
	// session's fault bindings, which are immutable (every run replays
	// its binding afresh). Every protocol run is seeded from Config.Seed
	// exactly as in sequential execution, so the answers are
	// bit-identical for any parallelism (see README, "Determinism").
	// Config.Telemetry still sees one deterministic stream: each query's
	// events are buffered and forwarded in query order, each horizon
	// pre-run's just before those of the first query that used its
	// binding.
	Parallelism int
}

// RunAll executes a batch of queries against the session — one overlay,
// one crash-set, one fault binding per pipeline shape — and returns the
// per-query answers together with the batch's aggregate bill. An
// optional BatchOptions opts the batch into concurrent execution.
func (nw *Network) RunAll(queries []Query, opts ...BatchOptions) ([]*Answer, Cost, error) {
	return nw.RunAllContext(context.Background(), queries, opts...)
}

// RunAllContext is RunAll with cancellation (see RunContext). On error
// the answers completed so far are returned alongside it (under
// concurrency: the answers of every query preceding the failed one).
func (nw *Network) RunAllContext(ctx context.Context, queries []Query, opts ...BatchOptions) ([]*Answer, Cost, error) {
	// Reject structurally invalid queries before any execution — in
	// particular before runAllParallel resolves fault bindings for the
	// batch, which used to happen even for queries that could never run.
	for i, q := range queries {
		if err := q.validate(); err != nil {
			return nil, Cost{}, fmt.Errorf("query %d (%s): %w", i, q.Op, err)
		}
	}
	workers := 0
	if len(opts) > 0 {
		workers = opts[0].Parallelism
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers > 1 {
		return nw.runAllParallel(ctx, queries, workers)
	}
	answers := make([]*Answer, 0, len(queries))
	var total Cost
	for i, q := range queries {
		a, err := nw.RunContext(ctx, q)
		if err != nil {
			return answers, total, fmt.Errorf("query %d (%s): %w", i, q.Op, err)
		}
		answers = append(answers, a)
		total = total.Add(a.Cost)
	}
	return answers, total, nil
}

// runAllParallel fans the batch across workers and returns exactly what
// sequential execution would: the same answers, bill, error,
// SessionStats and telemetry stream. Every protocol run is seeded by
// Config.Seed and runs on a worker-private engine, so no mutable state
// is shared. Before the fan-out, the worker sessions resolve the fault
// bindings the batch lacks (see prebinds), each under a fresh watchdog,
// and every worker shares each (a binding is immutable; each run
// replays it afresh), so no worker re-measures a shape. A resolution
// that fails or aborts is dropped: the query that needs the shape then
// resolves it itself, as sequential execution would.
func (nw *Network) runAllParallel(ctx context.Context, queries []Query, workers int) ([]*Answer, Cost, error) {
	sessions := make([]*Network, workers)
	// free holds every worker session: at most `workers` units run at
	// once, so a unit never waits for a session.
	free := make(chan *Network, workers)
	for k := range sessions {
		sessions[k] = nw.workerSession()
		free <- sessions[k]
	}
	// onWorker runs fn on a free worker session from fresh accounting
	// (runs numbered from 1, no binding keys used), buffering its events
	// in u when the session has telemetry, and records the unit in u.
	onWorker := func(u *batchUnit, fn func(ws *Network)) {
		ws := <-free
		ws.stats, ws.used = SessionStats{}, nil
		if nw.em.Enabled() {
			ws.em = telemetry.NewEmitter(telemetry.Options{Sink: &u.events, RoundEvery: nw.em.RoundEvery()})
		}
		fn(ws)
		ws.em = nil
		u.stats, u.used = ws.stats, ws.used
		free <- ws
	}

	pre := nw.prebinds(queries)
	sim.ForEachRun(len(pre), workers, func(j int) {
		p := &pre[j]
		onWorker(&p.unit, func(ws *Network) {
			if ctx.Err() != nil {
				return // sequential execution would not start the pre-run
			}
			ws.wd = ws.newWatchdog(ctx)
			// A failed resolution leaves p.b nil: the query that needs
			// the shape resolves it itself and reports the failure.
			p.b, _ = ws.resolve(ctx, p.q.Op, ws.dispatch(p.q.Op, p.q.Values, p.q.Arg))
			ws.wd = nil
		})
	})
	for _, p := range pre {
		if p.b != nil {
			for _, ws := range sessions {
				ws.bounds[p.key] = p.b
			}
		}
	}

	units := make([]batchUnit, len(queries))
	answers := make([]*Answer, len(queries))
	errs := make([]error, len(queries))
	sim.ForEachRun(len(queries), workers, func(i int) {
		onWorker(&units[i], func(ws *Network) {
			answers[i], errs[i] = ws.RunContext(ctx, queries[i])
		})
	})
	// Deterministic reduction in query order: each pre-resolved binding
	// is adopted (its pre-run counted and its events forwarded) just
	// before the first query that used it, and the error of the
	// lowest-indexed failing query wins, with the preceding answers —
	// exactly what sequential execution would have returned.
	out := make([]*Answer, 0, len(queries))
	var total Cost
	for i := range queries {
		for _, key := range units[i].used {
			for j := range pre {
				if p := &pre[j]; p.key == key && p.b != nil {
					nw.fold(&p.unit)
					nw.bounds[key], p.b = p.b, nil
				}
			}
		}
		nw.fold(&units[i])
		if errs[i] != nil {
			return out, total, fmt.Errorf("query %d (%s): %w", i, queries[i].Op, errs[i])
		}
		out = append(out, answers[i])
		total = total.Add(answers[i].Cost)
	}
	return out, total, nil
}

// prebind is one fault binding a parallel batch resolves before fanning
// out: its key, the single-run query to measure it with, the binding
// (nil if resolution failed, and again once the session adopted it)
// and the worker unit that resolved it.
type prebind struct {
	key  Op
	q    Query
	b    *faults.Bound
	unit batchUnit
}

// prebinds lists the fault bindings a batch needs that the session
// lacks, one per pipeline shape, each with the first run that needs it:
// the first of the first query's runs (see Query.firstRuns), in query
// order, whose shape it is.
func (nw *Network) prebinds(queries []Query) []prebind {
	if nw.cfg.Faults.Empty() {
		return nil
	}
	var pre []prebind
	for _, q := range queries {
		if nw.supports(q.Op) != nil {
			continue // its worker reports the error, in query order
		}
		for _, r := range q.firstRuns() {
			key := nw.shapeOf(r.Op)
			_, bound := nw.bounds[key]
			if !bound && !slices.ContainsFunc(pre, func(p prebind) bool { return p.key == key }) {
				pre = append(pre, prebind{key: key, q: r})
			}
		}
	}
	return pre
}

// batchUnit is one piece of a parallel batch done on a worker session —
// a query, or the resolution of one fault binding — as the batch's
// in-order reduction needs it: what the piece added to the worker's
// accounting, the binding keys it used and, with telemetry on, its
// buffered events.
type batchUnit struct {
	stats  SessionStats
	used   []Op
	events telemetry.Buffer
}

// fold adds a worker unit to the session's accounting and forwards its
// buffered events, their run numbers rebased onto the session's.
func (nw *Network) fold(u *batchUnit) {
	for _, ev := range u.events.Events() {
		ev.Run += nw.stats.ProtocolRuns
		nw.em.Forward(&ev)
	}
	nw.stats.add(u.stats)
}

// workerSession replicates the session for one RunAll worker: the same
// config, the same overlay and the same fault bindings (all immutable
// and safely shared; the worker's own copy of the binding cache lets it
// add the shapes it resolves) and a per-worker pooled engine. Worker
// sessions never rebuild the overlay; the parent folds their accounting
// into its own in query order.
func (nw *Network) workerSession() *Network {
	return &Network{cfg: nw.cfg, ov: nw.ov, bounds: maps.Clone(nw.bounds)}
}

// ---- execution machinery ----

// runEngine is what the run executor needs of an engine: the host a
// fault binding attaches to, the read-only view telemetry samples, and
// the observer and watchdog setters, all of them sim.Core methods. The
// synchronous *sim.Engine and the event-driven *async.Engine both embed
// that core, so one execOnce drives either (an async "round" is a
// dispatched event); protocols assert their concrete engine back.
type runEngine interface {
	faults.Host
	telemetry.EngineView
	SetPhaseObserver(f func(phase string))
	SetMembershipObserver(f func(node int, alive bool))
	SetRoundObserver(f func(round int))
	SetAbortCheck(f func(progress int) error, every int)
	Ledger() []sim.PhaseBill
}

// protoFunc executes one full protocol run on a fresh engine — a
// *sim.Engine in Sync mode, an *async.Engine in Async mode (engine and
// dispatch both follow Config.Mode) — and returns the one-run Answer it
// becomes: Cost.Runs 1, the full per-node vector in PerNode and the
// closing residual in Quality.Residual. The executor stamps the
// membership and fault fields; single-run queries finish the Answer in
// place, composite queries fold it into theirs.
type protoFunc func(eng runEngine, ov overlay.Overlay) (*Answer, error)

// pipelineKinds maps each single-run operation to the core pipeline
// aggregate that answers it; Rank is Sum over indicator values.
var pipelineKinds = map[Op]core.Kind{
	OpMax: core.Max, OpMin: core.Min, OpSum: core.Sum, OpCount: core.Count,
	OpAverage: core.Ave, OpRank: core.Sum, OpMoments: core.Moments,
}

// supports rejects the operations the session's execution model has no
// protocol for. The pairwise family computes averages, so Async mode
// routes only OpAverage; everything else reports a loud error rather
// than silently running the wrong protocol.
func (nw *Network) supports(op Op) error {
	if nw.cfg.Mode == Async && op != OpAverage {
		return fmt.Errorf("%w: Mode Async currently computes AverageOf only (pairwise averaging); %s needs Mode Sync", ErrBadConfig, op)
	}
	return nil
}

// dispatch returns the protocol run answering op: pairwise averaging in
// Async mode (supports admits only OpAverage there), otherwise the one
// core pipeline, dense when the session has no overlay and routed over
// it otherwise. It is kept small enough for the compiler to inline (the
// pipeline-kind lookup sits inside the returned closure for that
// reason), so the closure stays on the caller's stack instead of costing
// every protocol run a heap allocation.
func (nw *Network) dispatch(op Op, values []float64, arg float64) protoFunc {
	if nw.cfg.Mode == Async {
		return nw.pairwiseAverage(values)
	}
	if op == OpRank {
		values = agg.Indicator(values, arg)
	}
	return func(eng runEngine, ov overlay.Overlay) (*Answer, error) {
		kind, ok := pipelineKinds[op]
		if !ok {
			return nil, fmt.Errorf("%w: %s has no single-run protocol", ErrBadConfig, op)
		}
		if nw.ws == nil {
			nw.ws = new(core.Workspace)
		}
		res, err := nw.ws.Run(eng.(*sim.Engine), ov, kind, values)
		if err != nil {
			return nil, err
		}
		return pipelineAnswer(eng, op, res), nil
	}
}

// pipelineAnswer renders a completed synchronous pipeline run of op as
// its one-run Answer. The pipelines are exact, so the run converged.
func pipelineAnswer(eng runEngine, op Op, res *core.Result) *Answer {
	a := billed(eng)
	a.Value, a.PerNode, a.Consensus = res.Value, res.PerNode, res.Consensus
	a.Trees = res.Forest.NumTrees()
	a.Converged = true
	if op == OpMoments {
		a.Mean, a.Variance, a.Std = res.Value, res.Variance, math.Sqrt(math.Max(res.Variance, 0))
	}
	return a
}

// billed returns the one-run Answer of a synchronous run that has only
// its bill so far: Value NaN, the engine's counters and its phase ledger
// as PhaseCosts. A completed pipeline fills in the rest; an aborted run
// and HMS's sampling session keep it as it is.
func billed(eng runEngine) *Answer {
	st := eng.Stats()
	a := newAnswer(0)
	a.Cost = Cost{Runs: 1, Rounds: st.Rounds, Messages: st.Messages, Drops: st.Drops}
	ledger := eng.Ledger()
	a.PhaseCosts = make([]PhaseCost, len(ledger))
	for i, b := range ledger {
		a.PhaseCosts[i] = PhaseCost{Phase: b.Phase, Rounds: b.Rounds, Messages: b.Messages, Drops: b.Drops, Calls: b.Calls}
	}
	return a
}

// newAnswer returns an op Answer that no run has filled yet: Value NaN
// and no residual.
func newAnswer(op Op) *Answer {
	return &Answer{Op: op, Value: math.NaN(), Quality: Quality{Residual: noResidual}}
}

// pairwiseAverage is Async mode's protocol run: the classical
// randomized pairwise averaging of values (internal/pairwise) with the
// session's peer-selection policy, over the overlay's links (any pair on
// Complete). A watchdog abort stops the event loop gracefully and the
// driver closes its books on the surviving estimates, so an aborted run
// still reports its genuine partial state.
func (nw *Network) pairwiseAverage(values []float64) protoFunc {
	return func(eng runEngine, ov overlay.Overlay) (*Answer, error) {
		sel, err := pairwise.NewSelector(nw.cfg.AsyncPeer)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		var g *graph.Graph
		if ov != nil {
			g = ov.Graph()
		}
		res, err := pairwise.Ave(eng.(*async.Engine), g, values, sel, pairwise.Options{Eps: nw.cfg.AsyncEps})
		if err != nil {
			return nil, err
		}
		st := eng.Stats() // the run's engine is fresh: its counters are the run's bill
		return &Answer{
			Value:     res.Value,
			PerNode:   res.PerNode,
			Consensus: res.Spread == 0,
			Cost:      Cost{Runs: 1, Rounds: st.Rounds, Messages: st.Messages, Drops: st.Drops, Clock: res.Clock},
			Exchanges: res.Exchanges,
			Converged: res.Converged,
			Quality:   Quality{Residual: res.Spread},
		}, nil
	}
}

// engine returns the engine for the next protocol run and the watchdog
// polling stride that suits it. Sync mode reuses the session's pooled
// engine, Reset to the run's initial state — one engine allocation per
// session (and per RunAll worker), not per protocol run; Reset is pinned
// bit-identical to NewEngine, so pooling cannot change a single counter
// or result. Async mode builds a fresh engine per run: it is the core
// plus a heap and the clock streams, with no delivery machinery worth
// pooling.
func (nw *Network) engine() (runEngine, int) {
	if nw.cfg.Mode == Async {
		return async.NewEngine(nw.cfg.N, nw.cfg.simOptions()), abortStrideAsync
	}
	if nw.eng == nil {
		nw.eng = nw.cfg.engine()
	} else {
		nw.eng.Reset(nw.cfg.simOptions())
	}
	if nw.em.WantsRounds() {
		// Residuals are only read on the rounds surfaced as round events;
		// the drivers skip the O(roots) spread scan on all other rounds.
		nw.eng.SetResidualStride(nw.em.RoundEvery())
	}
	return nw.eng, abortStrideSync
}

// execOnce performs one protocol run of op on the mode's engine,
// attaching the bound fault schedule (if any), the query watchdog and
// the telemetry hooks; every run starts on a fresh or Reset engine, so
// no hook leaks between runs. A watchdog abort returns the run's partial
// Answer with the abort cause: the sync engine unwinds its drivers by a
// *sim.AbortError panic, recovered here with only the bill to salvage,
// while the async engine stops its event loop and the pairwise driver
// closes its books on the surviving estimates.
func (nw *Network) execOnce(b *faults.Bound, op Op, run protoFunc) (ans *Answer, err error) {
	nw.stats.ProtocolRuns++
	eng, stride := nw.engine()
	em := nw.em
	if em.Enabled() {
		var view telemetry.EngineView = eng
		em.RunStart(nw.stats.ProtocolRuns, op.String(), view)
		eng.SetPhaseObserver(func(string) { em.Phase(view) })
		eng.SetMembershipObserver(func(node int, alive bool) { em.Fault(view, node, alive) })
		if em.WantsRounds() {
			eng.SetRoundObserver(func(int) { em.Round(view) })
		}
	}
	if nw.wd != nil {
		eng.SetAbortCheck(nw.wd.check, stride)
	}
	var rp *faults.Replay
	if b != nil {
		rp = b.Attach(eng)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(*sim.AbortError); !ok {
			panic(r)
		}
		// No consensus value exists mid-pipeline: salvage the bill alone,
		// split by the phases run so far. The telemetry run still closes,
		// so traces show the aborted run.
		ans, err = nw.closeRun(eng, rp, op, billed(eng)), nw.wd.aborted()
	}()
	ans, err = run(eng, nw.ov)
	if err != nil {
		return nil, err
	}
	return nw.closeRun(eng, rp, op, ans), nw.wd.aborted()
}

// closeRun ends one run's telemetry and stamps its Answer with op, the
// closing membership and the fault replay's counters.
func (nw *Network) closeRun(eng runEngine, rp *faults.Replay, op Op, ans *Answer) *Answer {
	nw.em.RunEnd(eng)
	ans.Op = op
	ans.Alive = eng.NumAlive()
	if rp != nil {
		ans.FaultEvents = rp.Fired()
		ans.FaultCrashes = rp.Crashed()
		ans.FaultRevives = rp.Revived()
	}
	return ans
}

// execute runs op's protocol with the session's fault binding for its
// pipeline shape, creating the binding on first use (see bind): the
// first run of each shape may execute an unfaulted horizon pre-run;
// every later run of the same shape — every further Rank step of a
// Quantile or Histogram — reuses the binding.
func (nw *Network) execute(ctx context.Context, op Op, run protoFunc) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nw.cfg.Faults.Empty() {
		return nw.execOnce(nil, op, run)
	}
	b, err := nw.bind(ctx, op, run)
	if err != nil {
		return nil, err
	}
	return nw.execOnce(b, op, run)
}

// shapeOf returns the key of op's fault binding: its pipeline shape. A
// synchronous run's length depends only on its pipeline's message
// pattern (values ride payloads; control flow never reads them), and
// Min is Max on negated values while Count and Rank are Sum over other
// payloads, so they share the horizon — hence the binding — of Max and
// Sum. Average ships unacknowledged push-sum shares where Sum ships
// reliable ones, and Moments spreads a second value, so each keeps its
// own. An async run's length depends on the values, so Async mode keys
// per Op.
func (nw *Network) shapeOf(op Op) Op {
	if nw.cfg.Mode == Sync {
		switch op {
		case OpMin:
			return OpMax
		case OpCount, OpRank:
			return OpSum
		}
	}
	return op
}

// bind returns the session's fault binding for op's pipeline shape,
// resolving it with run on first use (see resolve), and notes the shape
// in used.
func (nw *Network) bind(ctx context.Context, op Op, run protoFunc) (*faults.Bound, error) {
	key := nw.shapeOf(op)
	if !slices.Contains(nw.used, key) {
		nw.used = append(nw.used, key)
	}
	if b, ok := nw.bounds[key]; ok {
		return b, nil
	}
	b, err := nw.resolve(ctx, op, run)
	if err != nil {
		return nil, err
	}
	nw.bounds[key] = b
	return b, nil
}

// resolve binds the fault plan for op's pipeline shape. Plans that place
// events by horizon fraction first measure the healthy run's length (see
// horizon) with one unfaulted pre-run of run; both runs are
// deterministic in Seed, so the horizon is exact, and any run of the
// same shape measures the same one (see shapeOf). An async run's horizon is measured on the first
// average query's values and reused for the session. A pre-run the
// watchdog aborts leaves no trustworthy horizon and fails the binding
// with the abort cause.
func (nw *Network) resolve(ctx context.Context, op Op, run protoFunc) (*faults.Bound, error) {
	horizon := 0
	if nw.cfg.Faults.NeedsHorizon() {
		healthy, err := nw.execOnce(nil, op, run)
		if err != nil {
			return nil, fmt.Errorf("drrgossip: horizon measurement run: %w", err)
		}
		nw.stats.HorizonRuns++
		horizon = nw.horizon(healthy)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	b, err := nw.cfg.Faults.Bind(nw.cfg.N, nw.cfg.Seed, horizon)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	nw.stats.PlanBinds++
	return b, nil
}

// horizon is a healthy run's length on the fault plan's clock: rounds in
// Sync mode, fault ticks (Clock quantized at async.TicksPerUnit) in Async
// mode.
func (nw *Network) horizon(healthy *Answer) int {
	if nw.cfg.Mode == Async {
		return int(math.Ceil(healthy.Cost.Clock * async.TicksPerUnit))
	}
	return healthy.Cost.Rounds
}

// sampleIDs draws k distinct node ids from [0, n) by a partial
// Fisher-Yates shuffle seeded from (seed, n, k) only, returned sorted.
// Being independent of everything else in a run, the sample is identical
// across repeated queries and engine reuse.
func sampleIDs(seed uint64, n, k int) []int {
	if k > n {
		k = n
	}
	rng := xrand.Derive(seed, 0x5A17, uint64(n), uint64(k))
	moved := make(map[int]int, 2*k)
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := moved[j]
		if !ok {
			vj = j
		}
		vi, ok := moved[i]
		if !ok {
			vi = i
		}
		ids[i] = vj
		moved[j] = vi
	}
	sort.Ints(ids)
	return ids
}

// materializePerNode renders a run's full per-node vector according to
// Config.SampleNodes: untouched for AllNodes, dropped by default, or
// copied down to the session's deterministic sample. A run without a
// vector (an aborted synchronous pipeline) materializes nothing.
func (nw *Network) materializePerNode(full []float64) (values []float64, ids []int) {
	switch {
	case full == nil:
		return nil, nil
	case nw.cfg.SampleNodes == AllNodes:
		return full, nil
	case nw.cfg.SampleNodes == 0:
		return nil, nil
	default:
		ids := nw.sampleSet()
		out := make([]float64, len(ids))
		for i, id := range ids {
			out[i] = full[id]
		}
		// Answers own their SampleIDs: hand out a copy so mutating one
		// answer's slice cannot skew another's (or the session's cache).
		return out, append([]int(nil), ids...)
	}
}

// sampleSet returns the session's Config.SampleNodes id set (nil when
// the config asks for no sample), drawing it on first use.
func (nw *Network) sampleSet() []int {
	if nw.sample == nil && nw.cfg.SampleNodes > 0 {
		nw.sample = sampleIDs(nw.cfg.Seed, nw.cfg.N, nw.cfg.SampleNodes)
	}
	return nw.sample
}

// aggregate answers the single-run operations (OpMax..OpRank,
// OpMoments; OpAverage alone in Async mode) by finishing their one run's
// Answer. An abort that hit before any protocol run (a pre-cancelled
// context or an aborted horizon pre-run) gives a zero-cost partial
// answer.
func (nw *Network) aggregate(ctx context.Context, q Query) (*Answer, error) {
	if err := nw.cfg.checkValues(q.Values); err != nil {
		return nil, err
	}
	ans, err := nw.execute(ctx, q.Op, nw.dispatch(q.Op, q.Values, q.Arg))
	if ans == nil {
		ans = newAnswer(q.Op)
	}
	return nw.finish(ans, err)
}

// quantile approximates the φ-quantile by bisection over the value
// range, one Rank run per step. All steps run against the same session,
// so the overlay and the per-shape fault bindings are reused throughout —
// the amortization the session API exists for.
func (nw *Network) quantile(ctx context.Context, values []float64, phi, tol float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpQuantile)
	ans.Converged = true
	minRes, err := nw.step(ctx, ans, OpMin, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	maxRes, err := nw.step(ctx, ans, OpMax, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	countRes, err := nw.step(ctx, ans, OpCount, values, 0)
	if err != nil {
		return nw.finish(ans, err)
	}
	target := math.Ceil(phi * math.Round(countRes.Value))
	return nw.bisect(ctx, ans, values, minRes.Value, maxRes.Value, tol, target)
}

// bisect finishes a quantile query by value bisection of the bracket
// [lo, hi], one Rank step over values per probe, until the bracket is
// within tol (default: 2^-20 of its width) or the query reaches
// maxQuantileRuns.
// The answer is the bracket's upper end; a degenerate bracket (constant
// values) answers at once. A bracket wider than math.MaxFloat64 (finite
// ends of opposite sign near the limits) is halved without forming
// hi − lo; every other bracket takes the plain arithmetic.
func (nw *Network) bisect(ctx context.Context, ans *Answer, values []float64, lo, hi, tol, target float64) (*Answer, error) {
	if tol <= 0 {
		tol = (hi - lo) / (1 << 20)
		if math.IsInf(tol, 1) {
			tol = (hi/2 - lo/2) / (1 << 19)
		}
	}
	if tol <= 0 {
		ans.Value = math.Max(lo, hi)
		return nw.finish(ans, nil)
	}
	for hi-lo > tol && ans.Cost.Runs < maxQuantileRuns {
		mid := lo + (hi-lo)/2
		if math.IsInf(mid, 0) {
			mid = lo/2 + hi/2
		}
		rankRes, err := nw.step(ctx, ans, OpRank, values, mid)
		if err != nil {
			return nw.finish(ans, err)
		}
		if math.Round(rankRes.Value) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	// The run cap can end the bisection before it reaches tol; that is a
	// looser answer, so say so instead of silently returning it.
	ans.Converged = hi-lo <= tol
	ans.Value = hi
	return nw.finish(ans, nil)
}

// maxQuantileRuns caps the total aggregate runs a Quantile query may
// spend — Min + Max + Count + bisection steps for QuantileBisect, and
// Count + sampling session + certification probes + any fallback
// bisection for QuantileHMS. A quantile stopped by the cap reports
// Converged == false on its Answer.
const maxQuantileRuns = 80

// quantileHMS computes the φ-quantile with the Haeupler–Mohapatra–Su
// sampling protocol (internal/hms; selected by Config.QuantileMethod):
// the alive population m fixes the target rank t = ceil(φ·m) — known
// statically on a crash-free session, measured by a Count run when
// static crashes or a fault plan can shrink it; one O(log n)-round
// gossip-sampling session (billed as one run under the "sample" phase)
// localizes the t-th order statistic to a handful of candidate values;
// and a short walk of exact Rank probes — ordinary aggregate runs, so
// fault plans replay on them exactly as on bisection's steps — certifies
// the exact quantile. Typically ~3 aggregate runs total where bisection
// spends ~23, and exact rather than tol-approximate. When the walk
// cannot certify (rank drift under an aggressive fault plan, extreme
// loss), it falls back to value bisection inside the walk's probed
// bracket, so the answer degrades to bisection quality rather than
// failing. The sampling session runs without the dynamic fault plan
// attached (static crashes and per-message loss still apply): the plan
// carries aggregate semantics and replays on the Count/Rank runs, which
// is what keeps HMS and bisection answering against the same faulted
// rank function.
func (nw *Network) quantileHMS(ctx context.Context, values []float64, phi, tol float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpQuantile)
	ans.Converged = true
	// The target rank needs the alive population size m. With no static
	// crashes and no dynamic plan every node stays alive, so m == N is
	// known without spending a run; otherwise a Count run measures it.
	m := nw.cfg.N
	if nw.cfg.CrashFraction > 0 || !nw.cfg.Faults.Empty() {
		countRes, err := nw.step(ctx, ans, OpCount, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		m = int(math.Round(countRes.Value))
		if m < 1 {
			m = 1
		}
	}
	t := int(math.Ceil(phi * float64(m)))
	if t < 1 {
		t = 1
	}
	if t > m {
		t = m
	}
	if err := ctx.Err(); err != nil {
		return nw.finish(ans, err)
	}
	var sum *hms.Summary
	sample, err := nw.execOnce(nil, OpQuantile, func(eng runEngine, ov overlay.Overlay) (*Answer, error) {
		s, err := hms.Sample(eng.(*sim.Engine), ov, values, hms.Options{Target: t, Count: m})
		if err != nil {
			return nil, err
		}
		sum = s
		return billed(eng), nil
	})
	ans.addRun(sample)
	if err != nil {
		return nw.finish(ans, fmt.Errorf("quantile sample session: %w", err))
	}
	w := hms.NewWalk(sum)
	for ans.Cost.Runs < maxQuantileRuns {
		q, ok := w.Next()
		if !ok {
			break
		}
		rankRes, err := nw.step(ctx, ans, OpRank, values, q)
		if err != nil {
			return nw.finish(ans, err)
		}
		w.Observe(q, int(math.Round(rankRes.Value)))
	}
	if v, exact := w.Exact(); exact && nw.cfg.Faults.Empty() {
		ans.Value = v
		return nw.finish(ans, nil)
	}
	// No trusted certificate. With a dynamic fault plan attached the
	// walk's exactness certificates are unsound — the sampling session
	// runs unfaulted, so its multiset can hold values the faulted Rank
	// runs no longer count (a partition, say, shrinks the measured
	// population to node 0's component) — and a "certified" sample may
	// not exist in the measured multiset at all. Either way the probes
	// still bracket the rank crossing, so finish with value bisection
	// against the same faulted rank function the bisection reference
	// queries: both methods then converge to the same crossing within
	// tol, which is what the differential invariants assert.
	// (Min/Max runs fill any missing bracket end.)
	lo, loOK, hi, hiOK := w.Bracket()
	clamp := !nw.cfg.Faults.Empty()
	if !loOK || clamp {
		minRes, err := nw.step(ctx, ans, OpMin, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		if !loOK || lo < minRes.Value {
			lo = minRes.Value
		}
	}
	if !hiOK || clamp {
		maxRes, err := nw.step(ctx, ans, OpMax, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		if !hiOK || hi > maxRes.Value {
			hi = maxRes.Value
		}
	}
	// Under a plan the probed bracket is clamped into the measured
	// [Min, Max]: aggressive churn can leave the walk bracketing a rank
	// crossing the surviving population cannot even express, and the
	// bisection reference never answers outside that range either.
	if hi < lo {
		hi = lo
	}
	return nw.bisect(ctx, ans, values, lo, hi, tol, float64(t))
}

// histogram computes the bucket counts with one Rank run per edge. Every
// run reuses the session verbatim: the engine's crash set is derived
// from the seed and the fault binding replays identically, so all steps
// count over the same surviving population and the bucket differences
// stay consistent. Query.validate has already checked the edges.
func (nw *Network) histogram(ctx context.Context, values, edges []float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpHistogram)
	ans.Converged = true
	ans.Counts = make([]float64, len(edges)+1)
	cum := make([]float64, len(edges))
	var lastRank *Answer
	for i, edge := range edges {
		res, err := nw.step(ctx, ans, OpRank, values, edge)
		if err != nil {
			return nw.finish(ans, err)
		}
		cum[i] = math.Round(res.Value)
		lastRank = res
	}
	ans.Counts[0] = cum[0]
	for i := 1; i < len(edges); i++ {
		ans.Counts[i] = cum[i] - cum[i-1]
	}
	// Last (open) bucket: the measured population minus everything below.
	// In the static model the population is exactly the engine's alive
	// count, which the final Rank run already reports. Under a fault plan
	// the two diverge — a crash after Phase II banks the tree sums leaves
	// the Rank counts at the pre-crash population while the end-of-run
	// alive count is smaller (and a rejoin inflates it), which would push
	// the open bucket negative. So with a plan active the population is
	// measured with a Count run instead: Count rides the same pipeline
	// dynamics as Rank (banked tree sizes), so it is consistent with the
	// cumulative counts in every fault scenario, exactly as Quantile's
	// bisection target is. The pre-session facade used a fresh *static*
	// engine here, which was wrong whenever the plan changed membership.
	total := float64(lastRank.Alive)
	if !nw.cfg.Faults.Empty() {
		countRes, err := nw.step(ctx, ans, OpCount, values, 0)
		if err != nil {
			return nw.finish(ans, err)
		}
		total = math.Round(countRes.Value)
		// The answer's membership fields describe the Rank runs the counts
		// came from, not the trailing population probe.
		ans.Alive = lastRank.Alive
		ans.FaultEvents, ans.FaultCrashes, ans.FaultRevives = lastRank.FaultEvents, lastRank.FaultCrashes, lastRank.FaultRevives
	}
	ans.Counts[len(edges)] = total - cum[len(edges)-1]
	return nw.finish(ans, nil)
}

// step executes one protocol run of op over values for the composite
// query ans (Quantile, Histogram) and folds it into ans. The error names
// the step.
func (nw *Network) step(ctx context.Context, ans *Answer, op Op, values []float64, arg float64) (*Answer, error) {
	run, err := nw.execute(ctx, op, nw.dispatch(op, values, arg))
	ans.addRun(run)
	if err != nil {
		return nil, fmt.Errorf("%s %s step: %w", ans.Op, op, err)
	}
	return run, nil
}

// addRun bills one run into a composite answer — aborted runs included, so
// a partial answer's Cost covers the work actually spent before the
// abort; a run that never started (nil) bills nothing. The membership
// and fault fields describe the latest run.
func (ans *Answer) addRun(run *Answer) {
	if run == nil {
		return
	}
	ans.Cost = ans.Cost.Add(run.Cost)
	ans.PhaseCosts = mergePhaseCosts(ans.PhaseCosts, run.PhaseCosts)
	ans.Alive = run.Alive
	ans.FaultEvents, ans.FaultCrashes, ans.FaultRevives = run.FaultEvents, run.FaultCrashes, run.FaultRevives
}
