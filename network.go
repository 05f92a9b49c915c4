// The session facade: a Network is a reusable handle on one simulated
// network, mirroring the paper's economics — one preprocessing
// investment amortized across many aggregate computations. New(cfg)
// validates the Config, builds the overlay graph and (lazily) measures
// the fault-plan horizon once per pipeline shape; the typed queries of
// query.go then run against the standing session, so a Quantile (up to
// ~80 bisection Rank steps) or a Histogram (one Rank per edge) pays
// O(build + steps) instead of O(steps × build).
//
// Runs of one pipeline shape whose values are known up front share an
// engine pass as value lanes (see maxLanes): a RunAll batch's single-run
// queries, a Histogram's Ranks, a Quantile's Min and Max. A bisection
// settles several levels per pass by speculation (see bisect): the pass
// probes every pivot the next levels could need, and the Quantile folds
// only those its walk down the bisection tree reads, so its answer and
// bill are those of one Rank run per step.

package drrgossip

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

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
	// Average and Moments have one each).
	PlanBinds int
	// Passes counts engine passes. Runs of one pipeline shape whose
	// values are known up front share a pass — the single-run queries of
	// a RunAll batch, a Histogram's Rank runs and its Count, a bisection
	// Quantile's Min and Max — so Passes can fall below ProtocolRuns. A
	// bisection pass also holds pivots its walk may not read (see
	// bisect); those lanes count in no field, and their pass only here.
	// Output only: every other count is what one run per pass would have
	// counted.
	Passes int
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
	s.Passes += o.Passes
}

// since returns what s counted after it read before.
func (s SessionStats) since(before SessionStats) SessionStats {
	return SessionStats{
		Queries:      s.Queries - before.Queries,
		ProtocolRuns: s.ProtocolRuns - before.ProtocolRuns,
		HorizonRuns:  s.HorizonRuns - before.HorizonRuns,
		PlanBinds:    s.PlanBinds - before.PlanBinds,
		Passes:       s.Passes - before.Passes,
	}
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
	// ws is the pipeline storage the runs of one query (or one RunAll
	// group) share: the first synchronous pipeline run allocates it,
	// every later run rebuilds its Phase I and Phase II state in place
	// (core.Workspace), and the query drops it when it ends. A
	// Quantile's ~24 runs thus share one allocation, while an idle
	// session holds only its engine: kept across queries, each live
	// session would pin ~100 B per node more.
	ws *core.Workspace

	// bounds caches the fault plan resolved per pipeline shape (keyed by
	// shapeOf): the horizon (total healthy rounds) differs between the
	// max-, sum- and ave-pipelines, so fractional event timings resolve
	// per shape — but only once per shape, not once per call.
	bounds map[core.Kind]*faults.Bound

	// used lists the binding keys bind has served, in order of first use.
	// RunAll's workers reset it per query, so the batch can forward each
	// pre-resolved binding's pre-run just before the first query that
	// used it.
	used []core.Kind

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

	// lanes holds the lanes of the pass being dispatched, reused by every
	// pass.
	lanes []core.Lane

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
	nw := &Network{cfg: cfg, bounds: make(map[core.Kind]*faults.Bound)}
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
	// Parallelism fans the batch's units of work — a pass of single-run
	// queries of one pipeline shape, or any other query alone — across
	// up to this many worker goroutines (0 or 1 runs them one after
	// another; the count is clamped to the number of units). Each worker
	// owns its own pooled engine and shares the session's fault
	// bindings, which are immutable (every run replays its binding
	// afresh). Every protocol run is seeded from Config.Seed exactly as
	// in sequential execution, so the answers are bit-identical for any
	// parallelism (see README, "Determinism"). Config.Telemetry still
	// sees one deterministic stream: each query's events are buffered and
	// forwarded in query order, each horizon pre-run's just before those
	// of the first query that used its binding.
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
// the answers of every query preceding the failed one are returned
// alongside it.
//
// The batch's single-run queries of one pipeline shape (see shapeOf) run
// as lanes of one engine pass, up to maxLanes at a time: they send the
// same messages, so each lane's Answer is bit-identical to its run
// alone. Every other query is a unit of its own. Units run in order of
// their first query, inline or across workers, and fold in query order:
// the answers, the bill, the error (the lowest-indexed failing query
// wins) and SessionStats are exactly what running the queries one by one
// would return, except Passes, which counts the passes the lanes shared.
func (nw *Network) RunAllContext(ctx context.Context, queries []Query, opts ...BatchOptions) ([]*Answer, Cost, error) {
	// Reject structurally invalid queries before any execution, in
	// particular before the batch resolves fault bindings.
	for i, q := range queries {
		if err := q.validate(); err != nil {
			return nil, Cost{}, fmt.Errorf("query %d (%s): %w", i, q.Op, err)
		}
	}
	groups := nw.groups(queries)
	workers := 1
	if len(opts) > 0 {
		workers = min(max(opts[0].Parallelism, 1), len(groups))
	}
	out := make([]batchUnit, len(queries))
	base := nw.stats
	var pre []prebind
	if workers > 1 {
		pre = nw.runParallel(ctx, queries, groups, out, workers)
	} else {
		// A unit whose first query follows a failed one never starts, as
		// that query would not have.
		stop := len(queries)
		for _, g := range groups {
			if g[0] > stop {
				break
			}
			nw.runGroup(ctx, queries, g, out)
			for _, i := range g {
				if out[i].err != nil && i < stop {
					stop = i
				}
			}
		}
	}
	// Deterministic reduction in query order: each pre-resolved binding
	// is adopted (its pre-run counted and its events forwarded) just
	// before the first query that used it, and the error of the
	// lowest-indexed failing query wins, with the preceding answers —
	// exactly what sequential execution would have returned.
	nw.stats = base
	answers := make([]*Answer, 0, len(queries))
	var total Cost
	for i := range queries {
		u := &out[i]
		for _, key := range u.used {
			for j := range pre {
				if p := &pre[j]; p.key == key && p.b != nil {
					nw.fold(&p.unit)
					nw.bounds[key], p.b = p.b, nil
				}
			}
		}
		nw.fold(u)
		if u.err != nil {
			return answers, total, fmt.Errorf("query %d (%s): %w", i, queries[i].Op, u.err)
		}
		answers = append(answers, u.ans)
		total = total.Add(u.ans.Cost)
	}
	return answers, total, nil
}

// maxLanes caps the runs one engine pass folds, so a pass never holds
// more than eight times one run's per-node vectors: a Histogram with e
// edges takes ⌈e/8⌉ passes, ⌈(e+1)/8⌉ with its Count under a fault plan,
// and a bisection settles three levels (seven pivots) per pass.
const maxLanes = 8

// passWidth is how many runs of one shape may share a pass: maxLanes,
// except in Async mode, where pairwise averaging's schedule depends on
// the values and every run keeps a pass of its own. Telemetry sees one
// run span per pass, whose round residuals are lane 0's.
func (nw *Network) passWidth() int {
	if nw.cfg.Mode == Async {
		return 1
	}
	return maxLanes
}

// groups splits a batch into its units of work, in order of their first
// query: the single-run queries of one pipeline shape share passes of up
// to passWidth lanes, and every other query — a composite, or one with
// values of the wrong length, whose unit reports the error — is a unit
// of its own.
func (nw *Network) groups(queries []Query) [][]int {
	width := nw.passWidth()
	var groups [][]int
	open := map[core.Kind]int{} // shape -> its group still taking lanes
	for i, q := range queries {
		if _, single := pipelineKinds[q.Op]; single && width > 1 && nw.cfg.checkValues(q.Values) == nil {
			key := shapeOf(q.Op)
			if k, ok := open[key]; ok && len(groups[k]) < width {
				groups[k] = append(groups[k], i)
				continue
			}
			open[key] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// runGroup answers the batch's queries at g on session s, recording in
// out what each one returns and adds to the session's accounting, as if
// it had run alone: a query alone runs as Run would, and a group of
// single-run queries of one shape runs as the lanes of one pass. The
// pass's fault binding, and the pre-run resolving it, count for the
// first lane; every lane counts one protocol run, finishes its own
// answer and retries alone. A pass that never started (a cancelled
// context or a failed horizon pre-run) fails the first lane as it would
// fail alone, and the lanes after it run alone. Every pass of the group
// counts for the first lane, whose unit holds the group's events: its
// passes, and its lanes' retries and solo runs after it, are numbered as
// sequential execution runs them.
func (s *Network) runGroup(ctx context.Context, queries []Query, g []int, out []batchUnit) {
	st, used := s.stats, len(s.used)
	if len(g) == 1 {
		u := &out[g[0]]
		u.ans, u.err = s.RunContext(ctx, queries[g[0]])
		u.stats, u.used = s.stats.since(st), s.used[used:]
		return
	}
	runs := make([]Query, len(g))
	for j, i := range g {
		runs[j] = queries[i]
	}
	s.wd = s.newWatchdog(ctx)
	answers, err := s.execute(ctx, runs)
	s.wd, s.ws = nil, nil
	if answers != nil {
		s.stats.ProtocolRuns -= len(g) // the pass ran: each lane counts its run
	}
	for j, i := range g {
		u := &out[i]
		before := s.stats
		if j == 0 {
			before = st
		}
		if j > 0 && answers == nil {
			if out[g[j-1]].err != nil {
				return // sequential execution stops at the failed lane
			}
			u.ans, u.err = s.RunContext(ctx, runs[j])
		} else {
			s.stats.Queries++
			a := newAnswer(runs[j].Op)
			if answers != nil {
				s.stats.ProtocolRuns++
				a = &answers[j]
			}
			a, aerr := s.finish(a, err)
			u.ans, u.err = s.retry(ctx, runs[j], a, aerr)
		}
		u.stats, u.used = s.stats.since(before), s.used[used:]
		if j > 0 {
			out[g[0]].stats.Passes += u.stats.Passes
			u.stats.Passes = 0
		}
	}
}

// runParallel runs the batch's units across workers, recording each
// query's outcome in out, and returns the fault bindings it resolved
// before the fan-out for the batch's reduction to adopt. Every protocol
// run is seeded by Config.Seed and runs on a worker-private engine, so
// no mutable state is shared. Before the fan-out, the worker sessions
// resolve the fault bindings the batch lacks (see prebinds), each under
// a fresh watchdog, and every worker shares each (a binding is
// immutable; each run replays it afresh), so no worker re-measures a
// shape. A resolution that fails or aborts is dropped: the query that
// needs the shape then resolves it itself, as sequential execution
// would.
func (nw *Network) runParallel(ctx context.Context, queries []Query, groups [][]int, out []batchUnit, workers int) []prebind {
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
	// in events when the session has telemetry.
	onWorker := func(events *telemetry.Buffer, fn func(ws *Network)) {
		ws := <-free
		ws.stats, ws.used = SessionStats{}, nil
		if nw.em.Enabled() {
			ws.em = telemetry.NewEmitter(telemetry.Options{Sink: events, RoundEvery: nw.em.RoundEvery()})
		}
		fn(ws)
		ws.em = nil
		free <- ws
	}

	pre := nw.prebinds(queries)
	sim.ForEachRun(len(pre), workers, func(j int) {
		p := &pre[j]
		onWorker(&p.unit.events, func(ws *Network) {
			if ctx.Err() != nil {
				return // sequential execution would not start the pre-run
			}
			ws.wd = ws.newWatchdog(ctx)
			// A failed resolution leaves p.b nil: the query that needs
			// the shape resolves it itself and reports the failure.
			p.b, _ = ws.resolve(ctx, []Query{p.q})
			ws.wd = nil
			p.unit.stats, p.unit.used = ws.stats, ws.used
		})
	})
	for _, p := range pre {
		if p.b != nil {
			for _, ws := range sessions {
				ws.bounds[p.key] = p.b
			}
		}
	}
	sim.ForEachRun(len(groups), workers, func(k int) {
		g := groups[k]
		onWorker(&out[g[0]].events, func(ws *Network) { ws.runGroup(ctx, queries, g, out) })
	})
	return pre
}

// prebind is one fault binding a parallel batch resolves before fanning
// out: its key, the single-run query to measure it with, the binding
// (nil if resolution failed, and again once the session adopted it)
// and the worker unit that resolved it.
type prebind struct {
	key  core.Kind
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
			key := shapeOf(r.Op)
			_, bound := nw.bounds[key]
			if !bound && !slices.ContainsFunc(pre, func(p prebind) bool { return p.key == key }) {
				pre = append(pre, prebind{key: key, q: r})
			}
		}
	}
	return pre
}

// batchUnit is one query of a batch (or the resolution of one fault
// binding) as the batch's in-order reduction needs it: its answer and
// error, what it added to the accounting of the session it ran on, the
// binding keys it used and, with telemetry on a worker, its buffered
// events.
type batchUnit struct {
	ans    *Answer
	err    error
	stats  SessionStats
	used   []core.Kind
	events telemetry.Buffer
}

// fold adds a unit to the session's accounting and forwards its
// buffered events, their pass numbers rebased onto the session's.
func (nw *Network) fold(u *batchUnit) {
	for _, ev := range u.events.Events() {
		ev.Run += nw.stats.Passes
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

// protoFunc executes one engine pass on a fresh engine — a *sim.Engine
// in Sync mode, an *async.Engine in Async mode (engine and dispatch both
// follow Config.Mode) — and returns the one-run Answer of each of the
// pass's runs: Cost.Runs 1 and the pass's bill, the full per-node vector
// in PerNode and the closing residual in Quality.Residual. The executor
// stamps the operation, membership and fault fields; single-run queries
// finish an Answer in place, composite queries fold it into theirs.
type protoFunc func(eng runEngine, ov overlay.Overlay) ([]Answer, error)

// pipelineKinds maps each single-run operation to the core pipeline
// aggregate that answers it.
var pipelineKinds = map[Op]core.Kind{
	OpMax: core.Max, OpMin: core.Min, OpSum: core.Sum, OpCount: core.Count,
	OpAverage: core.Ave, OpRank: core.Rank, OpMoments: core.Moments,
}

// shapeOf returns the key of a single-run op's fault binding: the
// pipeline shape it runs as (see core.Shape). Async mode admits only
// OpAverage, whose key is its own.
func shapeOf(op Op) core.Kind { return core.Shape(pipelineKinds[op]) }

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

// dispatch returns the pass answering runs, single-run queries of one
// pipeline shape: pairwise averaging of the one run in Async mode
// (supports admits only OpAverage there, and passWidth one run a pass),
// otherwise the one core pipeline folding every run as a lane, dense
// when the session has no overlay and routed over it otherwise.
func (nw *Network) dispatch(runs []Query) protoFunc {
	if nw.cfg.Mode == Async {
		return nw.pairwiseAverage(runs[0].Values)
	}
	return func(eng runEngine, ov overlay.Overlay) ([]Answer, error) {
		lanes := nw.lanes[:0]
		for _, q := range runs {
			kind, ok := pipelineKinds[q.Op]
			if !ok {
				return nil, fmt.Errorf("%w: %s has no single-run protocol", ErrBadConfig, q.Op)
			}
			lanes = append(lanes, core.Lane{Kind: kind, Values: q.Values, Arg: q.Arg})
		}
		nw.lanes = lanes
		if nw.ws == nil {
			nw.ws = new(core.Workspace)
		}
		res, err := nw.ws.Run(eng.(*sim.Engine), ov, lanes...)
		if err != nil {
			return nil, err
		}
		answers := make([]Answer, len(res))
		for j := range res {
			answers[j] = pipelineAnswer(eng, runs[j].Op, &res[j])
		}
		return answers, nil
	}
}

// pipelineAnswer renders a completed synchronous pipeline run of op (one
// lane of a pass) as its one-run Answer. The pipelines are exact, so the
// run converged.
func pipelineAnswer(eng runEngine, op Op, res *core.Result) Answer {
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
func billed(eng runEngine) Answer {
	st := eng.Stats()
	a := Answer{Value: math.NaN(), Quality: Quality{Residual: noResidual}}
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
	return func(eng runEngine, ov overlay.Overlay) ([]Answer, error) {
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
		return []Answer{{
			Value:     res.Value,
			PerNode:   res.PerNode,
			Consensus: res.Spread == 0,
			Cost:      Cost{Runs: 1, Rounds: st.Rounds, Messages: st.Messages, Drops: st.Drops, Clock: res.Clock},
			Exchanges: res.Exchanges,
			Converged: res.Converged,
			Quality:   Quality{Residual: res.Spread},
		}}, nil
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

// execOnce performs one engine pass of runs on the mode's engine,
// attaching the bound fault schedule (if any), the query watchdog and the
// telemetry hooks; every pass starts on a fresh or Reset engine, so no
// hook leaks between passes. Each of runs counts as a protocol run, and
// the pass is one telemetry run span, named for runs[0]. A
// watchdog abort returns every run's partial Answer with the abort cause:
// the sync engine unwinds its drivers by a *sim.AbortError panic,
// recovered here with only the bill to salvage, while the async engine
// stops its event loop and the pairwise driver closes its books on the
// surviving estimates. A protocol error returns every run's bill with
// the error, so the answers of a pass that started are never nil.
func (nw *Network) execOnce(b *faults.Bound, runs []Query, run protoFunc) (answers []Answer, err error) {
	nw.stats.ProtocolRuns += len(runs)
	nw.stats.Passes++
	eng, stride := nw.engine()
	em := nw.em
	if em.Enabled() {
		var view telemetry.EngineView = eng
		em.RunStart(nw.stats.Passes, runs[0].Op.String(), view)
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
		// The telemetry run still closes, so traces show the aborted run.
		answers, err = nw.closeRun(eng, rp, runs, salvage(eng, len(runs))), nw.wd.aborted()
	}()
	if answers, err = run(eng, nw.ov); err != nil {
		return nw.closeRun(eng, rp, runs, salvage(eng, len(runs))), err
	}
	return nw.closeRun(eng, rp, runs, answers), nw.wd.aborted()
}

// salvage returns k copies of the bill of a pass that started and did
// not complete, split by the phases run so far: no consensus value
// exists mid-pipeline.
func salvage(eng runEngine, k int) []Answer {
	answers := make([]Answer, k)
	for j := range answers {
		answers[j] = billed(eng)
	}
	return answers
}

// closeRun ends one pass's telemetry and stamps the Answer of each of
// runs with its operation, the closing membership and the fault replay's
// counters.
func (nw *Network) closeRun(eng runEngine, rp *faults.Replay, runs []Query, answers []Answer) []Answer {
	nw.em.RunEnd(eng)
	for j := range answers {
		ans := &answers[j]
		ans.Op = runs[j].Op
		ans.Alive = eng.NumAlive()
		if rp != nil {
			ans.FaultEvents = rp.Fired()
			ans.FaultCrashes = rp.Crashed()
			ans.FaultRevives = rp.Revived()
		}
	}
	return answers
}

// execute runs runs, single-run queries of one pipeline shape, as one
// pass with the session's fault binding for their shape, creating the
// binding on first use (see bind) with runs[0] alone: the first pass of
// each shape may follow an unfaulted horizon pre-run; every later pass of
// the same shape — every further Rank step of a Quantile or Histogram —
// reuses the binding. The answers are nil exactly when the pass never
// started: the context was done, or the binding failed.
func (nw *Network) execute(ctx context.Context, runs []Query) ([]Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var b *faults.Bound
	if !nw.cfg.Faults.Empty() {
		var err error
		if b, err = nw.bind(ctx, runs[:1]); err != nil {
			return nil, err
		}
	}
	return nw.execOnce(b, runs, nw.dispatch(runs))
}

// bind returns the session's fault binding for the pipeline shape of
// probe, one single-run query, resolving it with probe on first use (see
// resolve), and notes the shape in used.
func (nw *Network) bind(ctx context.Context, probe []Query) (*faults.Bound, error) {
	key := shapeOf(probe[0].Op)
	if !slices.Contains(nw.used, key) {
		nw.used = append(nw.used, key)
	}
	if b, ok := nw.bounds[key]; ok {
		return b, nil
	}
	b, err := nw.resolve(ctx, probe)
	if err != nil {
		return nil, err
	}
	nw.bounds[key] = b
	return b, nil
}

// resolve binds the fault plan for the pipeline shape of probe, one
// single-run query. Plans that place events by horizon fraction first
// measure the healthy run's length (see horizon) with one unfaulted
// pre-run of probe; both runs are deterministic in Seed, so the horizon
// is exact, and any run of the same shape measures the same one (see
// core.Shape). An async run's horizon is measured on the first average
// query's values and reused for the session. A pre-run the watchdog
// aborts leaves no trustworthy horizon and fails the binding with the
// abort cause.
func (nw *Network) resolve(ctx context.Context, probe []Query) (*faults.Bound, error) {
	horizon := 0
	if nw.cfg.Faults.NeedsHorizon() {
		healthy, err := nw.execOnce(nil, probe, nw.dispatch(probe))
		if err != nil {
			return nil, fmt.Errorf("drrgossip: horizon measurement run: %w", err)
		}
		nw.stats.HorizonRuns++
		horizon = nw.horizon(&healthy[0])
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
// Answer: a pass of one lane. An abort that hit before any protocol run
// (a pre-cancelled context or an aborted horizon pre-run) gives a
// zero-cost partial answer.
func (nw *Network) aggregate(ctx context.Context, q Query) (*Answer, error) {
	if err := nw.cfg.checkValues(q.Values); err != nil {
		return nil, err
	}
	answers, err := nw.execute(ctx, []Query{q})
	if answers == nil {
		return nw.finish(newAnswer(q.Op), err)
	}
	return nw.finish(&answers[0], err)
}

// quantile approximates the φ-quantile by bisection over the value
// range, one Rank run per step, after one pass for its Min and Max; its
// Count runs in the bisection's first pass. All steps run against the
// same session, so the overlay and the per-shape fault bindings are
// reused throughout — the amortization the session API exists for.
func (nw *Network) quantile(ctx context.Context, values []float64, phi, tol float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpQuantile)
	ans.Converged = true
	ends, err := nw.steps(ctx, ans, MinOf(values), MaxOf(values))
	if err != nil {
		return nw.finish(ans, err)
	}
	return nw.bisect(ctx, ans, values, ends[0].Value, ends[1].Value, tol, phi, true)
}

// bisect finishes a quantile query by value bisection of the bracket
// [lo, hi], one Rank step over values per probe, until the bracket is
// within tol (default: 2^-20 of its width) or the query reaches
// maxQuantileRuns. The answer is the bracket's upper end; a degenerate
// bracket (constant values) answers at once. goal is the target rank;
// with count set it is the quantile φ instead, the quantile's Count runs
// first, and the target rank is ⌈φ·Count⌉.
//
// The steps are speculative. Each engine pass holds, beside a pending
// Count, every pivot of the next levels of the bisection tree the loop
// could probe (see pivots), as Rank lanes; the walk down the tree then
// moves lo and hi as one Rank run per step would. Every lane answers as
// its run alone would, and only the Count and the lanes the walk reads
// are folded into ans and counted as protocol runs, so the answer, its
// bill and error and the session's accounting are those of one run per
// step: the pivots of the branches not taken show up only in Passes. A
// pass that fails or aborts folds its lane 0, the run the loop would
// have failed in. When the bracket needs no step, the Count runs alone.
func (nw *Network) bisect(ctx context.Context, ans *Answer, values []float64, lo, hi, tol, goal float64, count bool) (*Answer, error) {
	if tol <= 0 {
		tol = (hi - lo) / (1 << 20)
		if math.IsInf(tol, 1) {
			tol = (hi/2 - lo/2) / (1 << 19)
		}
	}
	target, width := goal, nw.passWidth()
	var (
		runs []Query
		tree []pivot
	)
	for {
		runs = runs[:0]
		if count {
			runs = append(runs, CountOf(values))
		}
		tree = pivots(tree, lo, hi, tol, ans.Cost.Runs+len(runs), width-len(runs), len(runs))
		for _, p := range tree {
			if p.lane >= 0 {
				runs = append(runs, RankOf(values, p.at))
			}
		}
		if len(runs) == 0 {
			break
		}
		answers, err := nw.pass(ctx, ans, runs)
		if err != nil {
			return nw.finish(ans, err)
		}
		read := 0
		if count {
			ans.addRun(&answers[0])
			target, count, read = math.Ceil(goal*math.Round(answers[0].Value)), false, 1
		}
		for i := 0; i < len(tree) && tree[i].lane >= 0; read++ {
			p := &tree[i]
			rank := &answers[p.lane]
			ans.addRun(rank)
			if math.Round(rank.Value) >= target {
				hi, i = p.at, 2*i+1
			} else {
				lo, i = p.at, 2*i+2
			}
		}
		nw.stats.ProtocolRuns -= len(runs) - read // the lanes the walk did not read
	}
	if tol <= 0 {
		ans.Value = math.Max(lo, hi)
		return nw.finish(ans, nil)
	}
	// The run cap can end the bisection before it reaches tol; that is a
	// looser answer, so say so instead of silently returning it.
	ans.Converged = hi-lo <= tol
	ans.Value = hi
	return nw.finish(ans, nil)
}

// pivot is a node of the bisection tree: the bracket [lo, hi] the loop
// holds on reaching the node, the pivot at = mid(lo, hi) it probes there,
// and the pass lane holding that probe, -1 when the loop would stop
// there instead.
type pivot struct {
	lo, hi, at float64
	lane       int
}

// pivots lays out into tree, in heap order, the bisection tree below
// [lo, hi] that the next pass probes: as many whole levels as free lanes
// hold (2^d − 1 nodes; the children of node i are 2i+1, the bracket
// below its pivot, and 2i+2, the one above). A node is probed, on the
// next lane from lane, when the loop would probe it: its parent is
// probed, its bracket is wider than tol (a positive tol) and the runs
// folded before it — runs plus its depth — are below maxQuantileRuns.
func pivots(tree []pivot, lo, hi, tol float64, runs, free, lane int) []pivot {
	size := 0
	for 2*size+1 <= free {
		size = 2*size + 1
	}
	tree = tree[:0]
	for i := 0; i < size; i++ {
		p := pivot{lo: lo, hi: hi, lane: -1}
		if i > 0 {
			up := &tree[(i-1)/2]
			if up.lane < 0 {
				tree = append(tree, p)
				continue
			}
			if i%2 == 1 {
				p.lo, p.hi = up.lo, up.at
			} else {
				p.lo, p.hi = up.at, up.hi
			}
		}
		if depth := bits.Len(uint(i+1)) - 1; tol > 0 && p.hi-p.lo > tol && runs+depth < maxQuantileRuns {
			p.at, p.lane = mid(p.lo, p.hi), lane
			lane++
		}
		tree = append(tree, p)
	}
	return tree
}

// mid is the bisection pivot of [lo, hi]: its midpoint, by the plain
// arithmetic, except for a bracket wider than math.MaxFloat64 (finite
// ends of opposite sign near the limits), which is halved without
// forming hi − lo.
func mid(lo, hi float64) float64 {
	m := lo + (hi-lo)/2
	if math.IsInf(m, 0) {
		m = lo/2 + hi/2
	}
	return m
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
		countRes, err := nw.step(ctx, ans, CountOf(values))
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
	sample, err := nw.execOnce(nil, []Query{{Op: OpQuantile}}, func(eng runEngine, ov overlay.Overlay) ([]Answer, error) {
		s, err := hms.Sample(eng.(*sim.Engine), ov, values, hms.Options{Target: t, Count: m})
		if err != nil {
			return nil, err
		}
		sum = s
		return []Answer{billed(eng)}, nil
	})
	if sample != nil {
		ans.addRun(&sample[0])
	}
	if err != nil {
		return nw.finish(ans, fmt.Errorf("quantile sample session: %w", err))
	}
	w := hms.NewWalk(sum)
	for ans.Cost.Runs < maxQuantileRuns {
		q, ok := w.Next()
		if !ok {
			break
		}
		rankRes, err := nw.step(ctx, ans, RankOf(values, q))
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
		minRes, err := nw.step(ctx, ans, MinOf(values))
		if err != nil {
			return nw.finish(ans, err)
		}
		if !loOK || lo < minRes.Value {
			lo = minRes.Value
		}
	}
	if !hiOK || clamp {
		maxRes, err := nw.step(ctx, ans, MaxOf(values))
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
	return nw.bisect(ctx, ans, values, lo, hi, tol, float64(t), false)
}

// histogram computes the bucket counts with one Rank run per edge, the
// runs sharing passes of up to maxLanes. Every run reuses the session
// verbatim: the engine's crash set is derived from the seed and the
// fault binding replays identically, so all runs count over the same
// surviving population and the bucket differences stay consistent.
// Query.validate has already checked the edges.
func (nw *Network) histogram(ctx context.Context, values, edges []float64) (*Answer, error) {
	if err := nw.cfg.checkValues(values); err != nil {
		return nil, err
	}
	ans := newAnswer(OpHistogram)
	ans.Converged = true
	ans.Counts = make([]float64, len(edges)+1)
	// Last (open) bucket: the measured population minus everything below.
	// In the static model the population is exactly the engine's alive
	// count, which the final Rank run already reports. Under a fault plan
	// the two diverge — a crash after Phase II banks the tree sums leaves
	// the Rank counts at the pre-crash population while the end-of-run
	// alive count is smaller (and a rejoin inflates it), which would push
	// the open bucket negative. So with a plan active the population is
	// measured with a Count run after the Ranks instead: Count rides the
	// same pipeline dynamics as Rank (banked tree sizes), so it is
	// consistent with the cumulative counts in every fault scenario,
	// exactly as Quantile's bisection target is. The pre-session facade
	// used a fresh *static* engine here, which was wrong whenever the
	// plan changed membership.
	faulted := !nw.cfg.Faults.Empty()
	runs := make([]Query, len(edges), len(edges)+1)
	for i, edge := range edges {
		runs[i] = RankOf(values, edge)
	}
	if faulted {
		runs = append(runs, CountOf(values))
	}
	res, err := nw.steps(ctx, ans, runs...)
	if err != nil {
		return nw.finish(ans, err)
	}
	cum := make([]float64, len(edges))
	for i := range edges {
		cum[i] = math.Round(res[i].Value)
	}
	ans.Counts[0] = cum[0]
	for i := 1; i < len(edges); i++ {
		ans.Counts[i] = cum[i] - cum[i-1]
	}
	lastRank := &res[len(edges)-1]
	total := float64(lastRank.Alive)
	if faulted {
		total = math.Round(res[len(edges)].Value)
		// The answer's membership fields describe the Rank runs the counts
		// came from, not the trailing population probe.
		ans.Alive = lastRank.Alive
		ans.FaultEvents, ans.FaultCrashes, ans.FaultRevives = lastRank.FaultEvents, lastRank.FaultCrashes, lastRank.FaultRevives
	}
	ans.Counts[len(edges)] = total - cum[len(edges)-1]
	return nw.finish(ans, nil)
}

// steps executes runs, single-run queries of one pipeline shape, for the
// composite query ans (Quantile, Histogram) in passes of up to passWidth
// lanes, folds each run into ans in order and returns their answers.
func (nw *Network) steps(ctx context.Context, ans *Answer, runs ...Query) ([]Answer, error) {
	var out []Answer
	for width := nw.passWidth(); len(runs) > 0; {
		lanes := runs[:min(width, len(runs))]
		runs = runs[len(lanes):]
		answers, err := nw.pass(ctx, ans, lanes)
		if err != nil {
			return nil, err
		}
		for j := range answers {
			ans.addRun(&answers[j])
		}
		if out == nil {
			out = answers // one pass: no copy
		} else {
			out = append(out, answers...)
		}
	}
	return out, nil
}

// pass executes runs, single-run queries of one pipeline shape, as one
// engine pass for the composite query ans and returns their answers for
// the caller to fold. Composites read only their runs' values; the
// runs' per-node vectors are the query's workspace's, valid until its
// next pass. A pass that fails or aborts does so for all its lanes
// alike: ans then folds only the first, and the session counts only its
// run, as if the runs had gone one at a time. The error names the
// failing step.
func (nw *Network) pass(ctx context.Context, ans *Answer, runs []Query) ([]Answer, error) {
	answers, err := nw.execute(ctx, runs)
	if err != nil {
		if answers != nil {
			nw.stats.ProtocolRuns -= len(runs) - 1
			ans.addRun(&answers[0])
		}
		return nil, fmt.Errorf("%s %s step: %w", ans.Op, runs[0].Op, err)
	}
	return answers, nil
}

// step is steps for one run.
func (nw *Network) step(ctx context.Context, ans *Answer, q Query) (*Answer, error) {
	res, err := nw.steps(ctx, ans, q)
	if err != nil {
		return nil, err
	}
	return &res[0], nil
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
