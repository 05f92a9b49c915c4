// Typed aggregate queries and their uniform answers — the request/response
// vocabulary of the session API (see Network in network.go). A Query is a
// plain value describing *what* to compute; the Network decides *how*
// (topology, faults, horizon) and answers every query with the same
// Answer shape.

package drrgossip

import (
	"fmt"
	"math"

	"drrgossip/internal/agg"
	"drrgossip/internal/sim"
)

// Op enumerates the aggregate operations a Query can request.
type Op uint8

const (
	// OpMax is the exact maximum (DRR-gossip-max, Algorithm 7).
	OpMax Op = iota + 1
	// OpMin is the exact minimum (Gossip-max on negated values).
	OpMin
	// OpSum is the global sum (distinguished-root push-sum).
	OpSum
	// OpCount is the surviving-node count (distinguished-root push-sum
	// over tree sizes).
	OpCount
	// OpAverage is DRR-gossip-ave (Algorithm 8).
	OpAverage
	// OpRank is Rank(q) = |{alive i : values[i] <= q}|.
	OpRank
	// OpMoments computes mean and variance in one run.
	OpMoments
	// OpQuantile computes a φ-quantile (composite). The protocol is
	// selected by Config.QuantileMethod: Rank bisection (the default —
	// one Min, Max and Count run plus one Rank run per bisection step)
	// or the Haeupler–Mohapatra–Su sampling protocol (one Count run, a
	// gossip-sampling session, and a few certifying Rank probes).
	OpQuantile
	// OpHistogram computes bucket counts with one Rank run per edge
	// (composite).
	OpHistogram
)

var opNames = map[Op]string{
	OpMax: "max", OpMin: "min", OpSum: "sum", OpCount: "count",
	OpAverage: "average", OpRank: "rank", OpMoments: "moments",
	OpQuantile: "quantile", OpHistogram: "histogram",
}

// String renders the operation's lower-case name ("max", "quantile", …).
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Query is a typed aggregate request: the operation, the per-node input
// values, and the operation's parameters. Build queries with the XxxOf
// constructors; a zero Query is invalid. Queries are plain values — they
// carry no network state and can be reused across Networks.
type Query struct {
	// Op is the requested aggregate operation.
	Op Op
	// Values holds one input value per node (len(Values) must equal
	// Config.N of the Network the query runs on). QuantileOf needs them
	// finite: ±Inf and NaN leave the bisection bracket undefined.
	Values []float64
	// Arg is the operation parameter: the Rank threshold q, or the
	// Quantile target φ. Unused otherwise.
	Arg float64
	// Tol is the Quantile bisection tolerance (<= 0 picks range/2^20).
	Tol float64
	// Edges are the Histogram bucket edges (strictly increasing).
	Edges []float64
}

// MaxOf requests the global maximum of values.
func MaxOf(values []float64) Query { return Query{Op: OpMax, Values: values} }

// MinOf requests the global minimum of values.
func MinOf(values []float64) Query { return Query{Op: OpMin, Values: values} }

// SumOf requests the global sum of values.
func SumOf(values []float64) Query { return Query{Op: OpSum, Values: values} }

// CountOf requests the number of surviving nodes. The values are carried
// for population consistency with the other queries of a batch.
func CountOf(values []float64) Query { return Query{Op: OpCount, Values: values} }

// AverageOf requests the global average of values.
func AverageOf(values []float64) Query { return Query{Op: OpAverage, Values: values} }

// RankOf requests Rank(q) = |{alive i : values[i] <= q}|.
func RankOf(values []float64, q float64) Query { return Query{Op: OpRank, Values: values, Arg: q} }

// MomentsOf requests mean and variance in a single protocol run: the
// Average pipeline with a Σv² push-sum component, on any topology.
func MomentsOf(values []float64) Query { return Query{Op: OpMoments, Values: values} }

// QuantileOf requests the φ-quantile (0 < φ <= 1) of finite values
// within tol of the value range; tol <= 0 picks range/2^20. Non-finite
// values are rejected with ErrBadConfig. The executing protocol is the
// session's Config.QuantileMethod (bisection by default; the HMS method
// certifies the exact quantile on healthy sessions, in which case tol
// only bounds its fallback path).
func QuantileOf(values []float64, phi, tol float64) Query {
	return Query{Op: OpQuantile, Values: values, Arg: phi, Tol: tol}
}

// HistogramOf requests len(edges)+1 bucket counts: bucket i covers
// (edges[i-1], edges[i]], with open first and last buckets.
func HistogramOf(values []float64, edges []float64) Query {
	return Query{Op: OpHistogram, Values: values, Edges: edges}
}

// validate rejects structurally invalid queries up front — before any
// protocol run and before RunAll's concurrent path resolves fault
// bindings for the batch. Every range check is written as a negated
// in-range test so NaN (for which every comparison is false) is
// rejected too: a NaN φ, tolerance or histogram edge would otherwise
// slip past the drivers' guards and surface as a silently wrong answer.
// A quantile's values must be finite for the same reason: an infinite
// end leaves the bisection bracket without a midpoint.
func (q Query) validate() error {
	switch q.Op {
	case OpQuantile:
		if !(q.Arg > 0 && q.Arg <= 1) {
			return fmt.Errorf("%w: Quantile phi must be in (0,1], got %v", ErrBadConfig, q.Arg)
		}
		if math.IsNaN(q.Tol) {
			return fmt.Errorf("%w: Quantile tol must not be NaN", ErrBadConfig)
		}
		for i, v := range q.Values {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("%w: Quantile values must be finite, got %v at node %d", ErrBadConfig, v, i)
			}
		}
	case OpHistogram:
		if len(q.Edges) == 0 {
			return fmt.Errorf("%w: Histogram needs at least one edge", ErrBadConfig)
		}
		if math.IsNaN(q.Edges[0]) {
			return fmt.Errorf("%w: histogram edge 0 is NaN", ErrBadConfig)
		}
		for i := 1; i < len(q.Edges); i++ {
			if !(q.Edges[i] > q.Edges[i-1]) {
				return fmt.Errorf("%w: histogram edges must be strictly increasing, got %v after %v",
					ErrBadConfig, q.Edges[i], q.Edges[i-1])
			}
		}
	}
	return nil
}

// firstRuns lists, for a faulted session, the single-run queries with
// which q first dispatches each of its operation kinds: composites
// expand to their constituent runs (a Quantile to its Min, Max and
// Count — its Rank steps reuse Count's pipeline shape, so they never
// need a binding of their own — and a Histogram to the Rank of its first
// edge plus the population Count). RunAll's concurrent path pre-resolves
// the fault bindings these need before fanning out.
func (q Query) firstRuns() []Query {
	switch q.Op {
	case OpQuantile:
		return []Query{MinOf(q.Values), MaxOf(q.Values), CountOf(q.Values)}
	case OpHistogram:
		return []Query{RankOf(q.Values, q.Edges[0]), CountOf(q.Values)}
	default:
		return []Query{q}
	}
}

// Cost is the shared accounting every Answer carries: how many full
// aggregate protocol runs the query spent (composite queries run many)
// and their accumulated round, message and drop bill. Horizon-measurement
// pre-runs (see Network) are session bookkeeping and are reported by
// SessionStats, not billed to query Cost — matching the pre-session
// facade's accounting.
type Cost struct {
	// Runs is the number of aggregate protocol runs billed to the query
	// (1 for simple queries; Min+Max+Count+bisection steps for Quantile;
	// one Rank per edge for Histogram).
	Runs int
	// Rounds, Messages and Drops accumulate over those runs. In Async
	// mode Rounds counts dispatched clock-tick events — the asynchronous
	// model has no synchronous rounds — while Messages keeps the exact
	// same unit as Sync (one per transmission attempt; a pairwise
	// exchange bills 2), which is what makes the two modes' message
	// bills directly comparable.
	Rounds   int
	Messages int64
	Drops    int64
	// Clock is the simulated wall-clock time the run(s) spanned: the
	// async engine's event time at termination, in units of mean
	// per-node clock periods (accumulated over runs). Always 0 in Sync
	// mode, whose cost is measured in rounds.
	Clock float64
}

// Add returns the element-wise total of two bills.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		Runs:     c.Runs + o.Runs,
		Rounds:   c.Rounds + o.Rounds,
		Messages: c.Messages + o.Messages,
		Drops:    c.Drops + o.Drops,
		Clock:    c.Clock + o.Clock,
	}
}

// PhaseCost attributes a slice of an Answer's Cost to one protocol
// phase. The paper's optimality claims are per-phase (the Section 4
// pipeline alternates local-DRR, convergecast and gossip stages, and
// Theorem 14's chord bound is the sum of the stage costs), so the
// facade bills each phase separately instead of only the aggregate.
type PhaseCost struct {
	// Phase is the pipeline phase label ("drr", "aggregate", "gossip",
	// "broadcast").
	Phase string
	// Rounds, Messages, Drops and Calls are the phase's share of the
	// bill. Summed over a query's PhaseCosts they reproduce Cost.Rounds,
	// Cost.Messages and Cost.Drops exactly (Calls is extra per-phase
	// detail the aggregate Cost does not carry).
	Rounds   int
	Messages int64
	Drops    int64
	Calls    int64
}

// mergePhaseCosts folds src into dst by phase name, appending unseen
// phases in first-seen order. Every pipeline reports its phases in the
// same execution order (drr, aggregate, gossip, broadcast), an aborted
// one a prefix of it, so composite and retried queries accumulate into
// a stable slice.
func mergePhaseCosts(dst, src []PhaseCost) []PhaseCost {
	for _, pc := range src {
		merged := false
		for i := range dst {
			if dst[i].Phase == pc.Phase {
				dst[i].Rounds += pc.Rounds
				dst[i].Messages += pc.Messages
				dst[i].Drops += pc.Drops
				dst[i].Calls += pc.Calls
				merged = true
				break
			}
		}
		if !merged {
			dst = append(dst, pc)
		}
	}
	return dst
}

// Answer is the uniform response to any Query. Every answer carries the
// consensus Value and the Cost bill; the remaining fields are filled
// when the operation produces them:
//
//   - single-run aggregates (Max..Rank, Moments) fill PerNode, Consensus,
//     Trees and the fault counters;
//   - OpMoments additionally fills Mean/Variance/Std (Value = Mean and
//     PerNode holds the per-node means);
//   - OpQuantile fills Converged (false when the bisection hit its run
//     cap before reaching Tol) and leaves PerNode nil;
//   - OpHistogram fills Counts and leaves Value NaN.
type Answer struct {
	// Op echoes the operation the answer responds to.
	Op Op
	// Value is the network's consensus value (NaN for OpHistogram).
	Value float64
	// PerNode holds final node values for single-run queries, as selected
	// by Config.SampleNodes: nil by default (no O(N) copy per answer),
	// min(SampleNodes, N) deterministically sampled values (their ids in
	// SampleIDs), or the full N-entry vector with AllNodes. Crashed nodes
	// report NaN. Nil for composite queries.
	PerNode []float64
	// SampleIDs lists the node ids PerNode covers when Config.SampleNodes
	// requested a sample (sorted ascending; nil for AllNodes and for the
	// default of no materialization). The sample is a pure function of
	// (Seed, N, SampleNodes) — identical across runs.
	SampleIDs []int
	// Consensus reports whether all surviving nodes agree exactly
	// (single-run queries only).
	Consensus bool
	// Cost is the query's accumulated protocol bill.
	Cost Cost
	// PhaseCosts attributes Cost to the protocol phases in execution
	// order (drr, aggregate, gossip, broadcast, and "sample" for the HMS
	// sampling session), accumulated across all of a query's runs: a
	// composite's steps and a retried query's attempts. The entries sum
	// exactly to Cost.Rounds, Cost.Messages and Cost.Drops, partial
	// answers included, since an aborted run bills the phases it
	// reached. The one exception is Async mode: pairwise averaging has
	// no phases, and its answers carry nil PhaseCosts.
	PhaseCosts []PhaseCost
	// Trees is the number of DRR trees built in Phase I (last run).
	Trees int
	// Alive is the number of nodes alive when the (last) run ended; with
	// an active fault plan this reflects mid-run crashes and rejoins.
	Alive int
	// FaultEvents/FaultCrashes/FaultRevives count the fault-plan actions
	// applied during the (last) run; 0 without a plan.
	FaultEvents  int
	FaultCrashes int
	FaultRevives int
	// Mean, Variance and Std are filled by OpMoments.
	Mean, Variance, Std float64
	// Exchanges counts the committed pairwise exchanges of an Async-mode
	// run (each billed 2 messages in Cost.Messages; failed handshakes
	// bill their transmissions but commit nothing). Always 0 in Sync
	// mode.
	Exchanges int64
	// Counts are the OpHistogram bucket counts (len(Edges)+1 buckets),
	// measured over the population the protocol itself counted: the
	// engine's surviving nodes in the static model, a dedicated Count run
	// under a fault plan (consistent with the per-edge Rank counts even
	// when membership changes mid-run, so buckets stay non-negative).
	Counts []float64
	// Converged is true when the answer met its tolerance; OpQuantile
	// reports false when the bisection hit its run cap first, and an
	// Async-mode OpAverage reports false when the estimate spread did
	// not reach Config.AsyncEps within the event cap (slow-mixing
	// overlays, isolated nodes). Aborted (partial) answers always report
	// false.
	Converged bool
	// Quality reports how trustworthy the answer is: whether the query
	// ran to completion and what degradation the fault schedule could
	// have introduced. It is populated on every answer — Partial is
	// false and Reason empty on a normal completion — so callers gate on
	// degradation uniformly instead of guessing from NaNs. See
	// docs/ROBUSTNESS.md for the degradation contract.
	Quality Quality
}

// Quality.Reason values: what cut a partial answer's run short.
const (
	// ReasonDeadline marks a run aborted by Config.Deadline.
	ReasonDeadline = "deadline"
	// ReasonRoundBudget marks a run aborted by Config.RoundBudget.
	ReasonRoundBudget = "round-budget"
	// ReasonCancelled marks a run aborted by context cancellation.
	ReasonCancelled = "cancelled"
)

// Quality is the bounded-degradation block every Answer carries (see
// Answer.Quality and docs/ROBUSTNESS.md). All fields are plain values
// (never NaN), so answers stay comparable with reflect.DeepEqual.
type Quality struct {
	// Partial is true when the query did not run to completion: the
	// watchdog aborted it (Config.Deadline or Config.RoundBudget) or the
	// context was cancelled mid-run. A partial answer's Value is what
	// the run could salvage (NaN for aborted synchronous pipelines, the
	// current estimate mean for async averaging) and its Cost bills the
	// work actually performed.
	Partial bool
	// Reason says what cut the run short: ReasonDeadline,
	// ReasonRoundBudget or ReasonCancelled. Empty for complete runs.
	Reason string
	// AliveFraction is the surviving fraction of the population when the
	// (last) run ended: Answer.Alive / Config.N.
	AliveFraction float64
	// Converged mirrors Answer.Converged, so the quality block is
	// self-contained for logging.
	Converged bool
	// Residual is the final convergence residual where the execution
	// model defines one: in Async mode the closing spread (max − min) of
	// the alive nodes' estimates — 0 at exact consensus. The synchronous
	// pipelines are exact rather than iterative and always report -1
	// ("no residual"); their per-round gossip residual streams live in
	// telemetry, not here.
	Residual float64
	// SurvivorBound estimates the worst-case input mass the fault
	// schedule removed: FaultCrashes / N, the fraction of nodes the plan
	// crashed during the (last) run; 0 without crashes. It is a
	// two-sided heuristic, not a guarantee: for mass-style aggregates
	// (Sum, Count) the intent is that the exact all-nodes value lies
	// within roughly this relative distance of the answer, on either
	// side, but crashed relays on routed sparse overlays can push an
	// answer far outside it on either side (Sums of 0.009 to 1.58 times
	// the exact value have been measured under a 5% crash plan).
	SurvivorBound float64
	// Retries counts the epoch-restart re-runs the answer consumed under
	// Config.Retry (0 without a policy or when the first attempt
	// converged).
	Retries int
}

// ExactOf returns the reference value a Query should converge to: the
// aggregate computed directly over the values that survive cfg's static
// crash model. It supports every scalar operation (OpMax..OpRank and
// OpQuantile, for which it returns the exact φ-quantile of the surviving
// values); OpMoments and OpHistogram have no single reference value and
// return an error, as do a Config that New would reject, unknown
// operations, mismatched input and any query Run rejects up front (an
// out-of-range φ, non-finite quantile values).
func ExactOf(cfg Config, q Query) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if err := q.validate(); err != nil {
		return 0, err
	}
	if len(q.Values) != cfg.N {
		return 0, fmt.Errorf("%w: %d values for N=%d", ErrBadConfig, len(q.Values), cfg.N)
	}
	// The survivors are the complement of the static crash set, which
	// is ascending, so they come out in node order.
	crashed := sim.InitialCrashSet(cfg.N, cfg.simOptions())
	ids := make([]int, 0, cfg.N-len(crashed))
	for i := 0; i < cfg.N; i++ {
		if len(crashed) > 0 && crashed[0] == i {
			crashed = crashed[1:]
			continue
		}
		ids = append(ids, i)
	}
	alive := agg.Subset(q.Values, ids)
	switch q.Op {
	case OpMin:
		return agg.Exact(agg.Min, alive, 0), nil
	case OpMax:
		return agg.Exact(agg.Max, alive, 0), nil
	case OpSum:
		return agg.Exact(agg.Sum, alive, 0), nil
	case OpCount:
		return agg.Exact(agg.Count, alive, 0), nil
	case OpAverage:
		return agg.Exact(agg.Average, alive, 0), nil
	case OpRank:
		return agg.Exact(agg.Rank, alive, q.Arg), nil
	case OpQuantile:
		return agg.Quantile(alive, q.Arg), nil
	default:
		return 0, fmt.Errorf("%w: no scalar reference value for %s", ErrBadConfig, q.Op)
	}
}
