// Package pairwise implements the classical randomized pairwise-averaging
// protocol family over the asynchronous engine (internal/async): when a
// node's Poisson clock ticks, it picks one partner, the two exchange
// their current estimates, and both replace them with the average. The
// family is exactly the baseline the DRR-gossip paper positions itself
// against — "Gossip Algorithms for Distributed Signal Processing"
// (Dimakis, Kar, Moura, Rabbat, Scaglione) — and the peer-selection
// policies are pluggable: uniform random neighbor, greedy eavesdropping
// (Üstebay, Oreshkin, Coates, Rabbat, "Greedy Gossip with
// Eavesdropping"), and sample-greedy (Shin, He, Tsourdos). See select.go.
//
// # Node action
//
// A ticking node proposes to the partner its selector picks and runs
// the handshake through async.Engine.Exchange, which decides loss and
// billing for both legs up front. Only when both legs survive do the two
// endpoints commit the average of their estimates, so a failed handshake
// commits neither and the population mean stays invariant (the
// reliable-handshake assumption of the pairwise-averaging analyses).
//
// # Cost model
//
// One committed exchange = one request + one reply = 2 messages, the
// same per-transmission accounting unit as the synchronous pipelines.
// Convergence is measured on the spread (max − min) of the alive nodes'
// estimates; the driver sweeps it every n events (one sweep per
// expected full clock rotation) and stops at Options.Eps. Exchanges-to-ε
// on the complete graph grows as Θ(n log n) for fixed ε (Boyd, Ghosh,
// Prabhakar, Shah) — the curve the AS1 experiment fits, and the bill
// DRR-gossip's O(n log log n) beats. A Result carries no bill: the
// engine's counters (Stats) hold it, dispatched events as Rounds.
package pairwise

import (
	"fmt"
	"math"

	"drrgossip/internal/async"
	"drrgossip/internal/graph"
)

// Phase is the label the driver reports for the single protocol phase.
const Phase = "pairwise"

// Options tune one pairwise-averaging run.
type Options struct {
	// Eps is the convergence threshold: the run stops when the spread
	// (max − min over alive nodes' estimates) is <= Eps. 0 means 1e-6.
	Eps float64
	// MaxEvents caps the event loop for runs that cannot reach Eps
	// (isolated nodes, slow-mixing graphs); the Result then reports
	// Converged == false. 0 picks 64n + 32·n·ceil(log2 n).
	MaxEvents int
}

// Result reports one pairwise-averaging run.
type Result struct {
	// Value is the mean of the alive nodes' estimates at termination —
	// the protocol's answer (all alive estimates agree to within Spread).
	Value float64
	// PerNode holds each node's final estimate (NaN for dead nodes).
	PerNode []float64
	// Converged reports whether Spread reached Eps before MaxEvents.
	Converged bool
	// Spread is the final max − min over alive estimates.
	Spread float64
	// Exchanges counts committed pairwise exchanges (each billed 2
	// messages); failed handshakes bill their messages but commit nothing.
	Exchanges int64
	// Clock is the simulated wall-clock time at termination.
	Clock float64
}

// newState validates the run's inputs and builds its state over a copy
// of values, with sel's per-run caches initialized.
func newState(n int, g *graph.Graph, values []float64, sel Selector) (*state, error) {
	if len(values) != n {
		return nil, fmt.Errorf("pairwise: %d values for n=%d", len(values), n)
	}
	if g != nil && g.N() != n {
		return nil, fmt.Errorf("pairwise: graph has %d nodes, engine %d", g.N(), n)
	}
	st := &state{n: n, g: g, x: append([]float64(nil), values...)}
	if err := sel.init(st); err != nil {
		return nil, err
	}
	return st, nil
}

// exchange is node u's clock action: u proposes to the partner sel
// picks and, when the engine's handshake survives, both endpoints commit
// the average of their estimates and sel's broadcast tap fires
// (eavesdropping policies refresh what u's and v's neighbors overheard).
// It reports whether an exchange committed.
func (st *state) exchange(eng *async.Engine, sel Selector, u int) bool {
	v := sel.pick(st, u, eng.RNG(u))
	if v < 0 || !eng.Exchange(u, v) {
		return false
	}
	avg := (st.x[u] + st.x[v]) / 2
	st.x[u], st.x[v] = avg, avg
	sel.committed(st, u, v)
	return true
}

// spread returns max − min of the estimates over nodes where alive
// reports true (0 when fewer than two such nodes exist).
func (st *state) spread(alive func(int) bool) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	seen := 0
	for i := 0; i < st.n; i++ {
		if !alive(i) {
			continue
		}
		seen++
		v := st.x[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if seen < 2 {
		return 0
	}
	return hi - lo
}

// defaultMaxEvents is the event cap for runs that never reach Eps:
// generous against the Θ(n log n) exchanges of well-mixing graphs, a
// deliberate cutoff for slow-mixing ones (a 2-D torus needs Θ(n²)
// exchanges — the geographic-gossip motivation — and capping there is
// the honest result, reported as Converged == false).
func defaultMaxEvents(n int) int {
	lg := 1
	for 1<<lg < n {
		lg++
	}
	return 64*n + 32*n*lg
}

// Ave runs pairwise averaging on eng over graph g (nil = complete) until
// the spread of the alive estimates reaches opts.Eps or the event cap.
// All randomness comes from the engine's derived streams, so equal
// (engine options, g, values, selector) give bit-identical results.
func Ave(eng *async.Engine, g *graph.Graph, values []float64, sel Selector, opts Options) (*Result, error) {
	n := eng.N()
	if sel == nil {
		sel = Uniform()
	}
	st, err := newState(n, g, values, sel)
	if err != nil {
		return nil, err
	}
	eps := opts.Eps
	if eps == 0 {
		eps = 1e-6
	}
	maxEvents := opts.MaxEvents
	if maxEvents <= 0 {
		maxEvents = defaultMaxEvents(n)
	}
	eng.SetPhase(Phase)
	spread := st.spread(eng.Alive)
	eng.ReportResidual(spread)
	converged := spread <= eps
	sinceCheck := 0
	var exchanges int64
	handler := func(u int) {
		if st.exchange(eng, sel, u) {
			exchanges++
		}
	}
	// The convergence sweep is an O(n) read the protocol itself never
	// needs, so it runs once every n events: amortized O(1) per event.
	stop := func() bool {
		sinceCheck++
		if sinceCheck >= n {
			sinceCheck = 0
			spread = st.spread(eng.Alive)
			eng.ReportResidual(spread)
			converged = spread <= eps
		}
		return converged
	}
	if !converged { // an already-tight input (single node, equal values) costs nothing
		eng.Run(handler, stop, maxEvents)
	}
	if !converged {
		// The cap can land between sweeps; close the books on live state.
		spread = st.spread(eng.Alive)
		eng.ReportResidual(spread)
		converged = spread <= eps
	}
	res := &Result{
		PerNode:   st.x,
		Converged: converged,
		Spread:    spread,
		Exchanges: exchanges,
		Clock:     eng.Now(),
	}

	sum, alive := 0.0, 0
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			sum += st.x[i]
			alive++
		} else {
			res.PerNode[i] = math.NaN()
		}
	}
	if alive > 0 {
		res.Value = sum / float64(alive)
	} else {
		res.Value = math.NaN()
	}
	return res, nil
}
