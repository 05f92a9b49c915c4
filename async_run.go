// Async-mode execution: the session facade's driver for the classical
// asynchronous pairwise-averaging family (internal/async engine,
// internal/pairwise protocol). The structure mirrors the synchronous
// path — execAsyncOnce is execOnce, bindAsync is bind — so telemetry and
// fault plans behave identically across the two execution models; only
// the engine and the protocol underneath differ.

package drrgossip

import (
	"context"
	"fmt"
	"math"

	"drrgossip/internal/async"
	"drrgossip/internal/faults"
	"drrgossip/internal/graph"
	"drrgossip/internal/pairwise"
)

// runAsync answers a query in Async mode. The pairwise family computes
// averages, so only OpAverage is routable; everything else reports a
// loud error rather than silently running the wrong protocol.
func (nw *Network) runAsync(ctx context.Context, q Query) (*Answer, error) {
	if q.Op != OpAverage {
		return nil, fmt.Errorf("%w: Mode Async currently computes AverageOf only (pairwise averaging); %s needs Mode Sync", ErrBadConfig, q.Op)
	}
	if err := nw.cfg.checkValues(q.Values); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nw.abortedAnswer(OpAverage, nil, err)
	}
	if nw.cfg.Faults.Empty() {
		return nw.execAsyncOnce(nil, q.Values)
	}
	b, err := nw.bindAsync(ctx, q.Values)
	if err != nil {
		if isAbort(err) {
			return nw.abortedAnswer(OpAverage, nil, err)
		}
		return nil, err
	}
	return nw.execAsyncOnce(b, q.Values)
}

// bindAsync returns the session's Async-mode fault binding, resolving it
// on first use. Asynchronous time has no rounds, so plans with
// horizon-fraction timings bind against the fault-tick clock instead: a
// healthy pre-run measures the run's wall-clock length, and the horizon
// is that length quantized at async.TicksPerUnit ticks per time unit.
// Unlike the synchronous pipelines — whose control flow is
// value-independent — an async run's length does depend on the values
// (convergence is a property of the data), so the horizon is measured on
// the first average query's values and reused for the rest of the
// session, consistent with the session's bind-once amortization.
func (nw *Network) bindAsync(ctx context.Context, values []float64) (*faults.Bound, error) {
	if b, ok := nw.bounds[OpAverage]; ok {
		return b, nil
	}
	horizon := 0
	if nw.cfg.Faults.NeedsHorizon() {
		healthy, err := nw.execAsyncOnce(nil, values)
		if err != nil {
			return nil, fmt.Errorf("drrgossip: horizon measurement run: %w", err)
		}
		if healthy.Quality.Partial {
			// A deadline/budget abort mid-pre-run leaves no trustworthy
			// horizon; fail the binding rather than schedule events against
			// a truncated clock.
			return nil, fmt.Errorf("drrgossip: horizon measurement run aborted: %w", reasonErr(healthy.Quality.Reason))
		}
		nw.horizonRuns++
		horizon = int(math.Ceil(healthy.Cost.Clock * async.TicksPerUnit))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	b, err := nw.cfg.Faults.Bind(nw.cfg.N, nw.cfg.Seed, horizon)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	nw.planBinds++
	nw.bounds[OpAverage] = b
	return b, nil
}

// execAsyncOnce performs one pairwise-averaging run on a fresh async
// engine, attaching the bound fault schedule (if any), the query
// watchdog and the telemetry emitter — the Async-mode counterpart of
// execOnce. Engines are rebuilt per run (they are a heap plus two stream
// arrays; there is no delivery machinery worth pooling), which keeps
// every run an independent pure function of (Config, values).
func (nw *Network) execAsyncOnce(b *faults.Bound, values []float64) (*Answer, error) {
	nw.protoRuns++
	eng := async.NewEngine(nw.cfg.N, nw.cfg.asyncOptions())
	em := nw.em
	if em.Enabled() {
		em.RunStart(nw.protoRuns, OpAverage.String(), eng)
		eng.SetPhaseObserver(func(string) { em.Phase(eng) })
		eng.SetMembershipObserver(func(node int, alive bool) { em.Fault(eng, node, alive) })
	}
	if em.WantsRounds() {
		eng.SetEventObserver(func(int) { em.Round(eng) })
	}
	if nw.wd != nil {
		eng.SetAbortCheck(nw.wd.check, abortStrideAsync)
	}
	if b != nil {
		b.Attach(eng)
	}
	sel, err := pairwise.NewSelector(nw.cfg.AsyncPeer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	var g *graph.Graph
	if nw.ov != nil {
		g = nw.ov.Graph()
	}
	res, err := pairwise.Ave(eng, g, values, sel, pairwise.Options{Eps: nw.cfg.AsyncEps})
	if err != nil {
		return nil, err
	}
	em.RunEnd(eng)
	ans := &Answer{
		Op:        OpAverage,
		Value:     res.Value,
		Consensus: res.Spread == 0,
		Converged: res.Converged,
		Cost: Cost{
			Runs:     1,
			Rounds:   res.Events,
			Messages: res.Stats.Messages,
			Drops:    res.Stats.Drops,
			Clock:    res.Clock,
		},
		Exchanges: res.Exchanges,
		Alive:     eng.NumAlive(),
	}
	if b != nil {
		ans.FaultEvents = b.Fired()
		ans.FaultCrashes = b.Crashed()
		ans.FaultRevives = b.Revived()
	}
	ans.PerNode, ans.SampleIDs = nw.materializePerNode(res.PerNode)
	// A watchdog abort breaks the event loop gracefully; pairwise.Ave has
	// already closed the books on the surviving estimates, so the answer
	// above is the genuine partial state — just mark it as such.
	cause := eng.Aborted()
	if cause != nil {
		ans.Converged = false
	}
	nw.fillQuality(ans, res.Spread, cause)
	if terminalAbort(cause) {
		return ans, cause
	}
	return ans, nil
}
