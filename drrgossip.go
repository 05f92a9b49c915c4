// Package drrgossip is a Go implementation of "Optimal Gossip-Based
// Aggregate Computation" (Chen & Pandurangan, SPAA 2010): the DRR-gossip
// family of protocols, which compute common aggregates (Min, Max, Sum,
// Count, Average, Rank) over an n-node network in O(log n) rounds using
// O(n log log n) messages — time-optimal and within a log log n factor of
// message-optimal.
//
// The package front-ends a discrete-event reproduction of the paper's
// synchronous random phone call model: every query runs the full
// distributed protocol (distributed random ranking, per-tree convergecast,
// root-level gossip, dissemination) on a simulated network and reports
// the computed aggregate together with the round and message bill.
//
// # Sessions and queries
//
// The API is organised around a reusable session: New(cfg) validates the
// configuration once, builds the overlay graph once and caches the fault
// plan's bindings, and the returned Network then answers any number of
// typed queries — mirroring the paper's economics, where one
// preprocessing investment amortizes across aggregate computations:
//
//	net, err := drrgossip.New(drrgossip.Config{N: 10000, Seed: 1})
//	avg, err := net.Run(drrgossip.AverageOf(values))
//	// avg.Value ≈ mean(values); avg.Cost.Rounds = Θ(log n); avg.Cost.Messages = Θ(n loglog n)
//	p99, err := net.Run(drrgossip.QuantileOf(values, 0.99, 0.5)) // ~log(range/tol) Rank runs, one session
//
// Every query answers with the same Answer shape (Value, PerNode,
// Consensus, a Cost bill); Network.RunAll executes a batch against one
// overlay/crash-set and additionally returns the aggregate bill, and
// Network.RunContext supports cancellation between protocol runs.
// Config.Telemetry streams run, phase, per-round and fault events —
// round, phase, alive count, counter deltas, convergence residual —
// without perturbing the run. ExactOf computes the reference value a
// query should converge to:
//
//	want, err := drrgossip.ExactOf(cfg, drrgossip.AverageOf(values))
//
// # Topologies
//
// Config.Topology selects the communication substrate from an overlay
// registry (internal/overlay) rather than a fixed enum. Complete (the
// zero value) is the paper's random phone call model; every other
// topology runs the Section 4 sparse pipeline — Local-DRR over the
// overlay's links, routed gossip between tree roots, dissemination down
// the trees (Theorems 13-14):
//
//	Complete         any node can call any other (dense baseline)
//	Chord            DHT ring with finger routing and rejection sampling
//	Torus            most-square rows×cols wraparound grid
//	Hypercube        log2(n)-dimensional cube (n must be a power of two)
//	RandomRegular(d) random d-regular graph (default d = 4)
//	SmallWorld       Newman–Watts ring lattice with shortcuts
//	Ring             the n-cycle (pedagogical worst case)
//	ScaleFree        Barabási–Albert preferential attachment
//
// Non-Chord overlays route through a landmark BFS tree; adding a new
// topology is one overlay.Register call plus a graph generator. Use
// ParseTopology for textual specs ("torus", "regular:6") and
// TopologyNames for the catalog. Baselines from the paper's Table 1
// (uniform gossip of Kempe et al., efficient gossip of Kashyap et al.)
// and the address-oblivious lower-bound harness (Section 5) live under
// internal/ and are exercised by the benchmark harness (cmd/benchtab)
// and the bench suite (bench_test.go).
//
// # Scale
//
// A single run scales to a million nodes: the engine's Tick touches only
// the inboxes it fills, and Config.SampleNodes bounds how much per-node
// state an Answer materializes (none by default; AllNodes for the full
// vector). The SC1 experiment (cmd/benchtab -experiment SC1) is the
// scaling study behind the README's "Scaling" section; see
// docs/ARCHITECTURE.md for the memory model and docs/PAPER_MAP.md for
// the theorem-to-code map.
package drrgossip

import (
	"errors"
	"fmt"
	"strings"
	"time"

	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/faults"
	"drrgossip/internal/overlay"
	"drrgossip/internal/pairwise"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// Mode selects the session's execution model.
type Mode uint8

const (
	// Sync (the zero value) is the paper's synchronous-rounds model:
	// every query runs a DRR-gossip pipeline on the round-based engine.
	Sync Mode = iota
	// Async is the classical asynchronous time model: per-node Poisson
	// clocks drive an event-heap engine (internal/async), and AverageOf
	// queries run randomized pairwise averaging (internal/pairwise) with
	// the peer-selection policy named by Config.AsyncPeer. Only
	// AverageOf is supported — the pairwise family computes averages;
	// every other operation reports an error. Costs come back with
	// Cost.Rounds = dispatched events, Cost.Clock = simulated wall-clock
	// time and the same per-transmission Messages unit as Sync (one
	// exchange = 2 messages), so DRR's message bill and the classical
	// family's are directly comparable (experiment AS1).
	Async
)

// String renders the mode ("sync", "async").
func (m Mode) String() string {
	switch m {
	case Sync:
		return "sync"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// QuantileMethod selects the protocol behind QuantileOf queries.
type QuantileMethod uint8

const (
	// QuantileBisect (the zero value) bisects the value range with one
	// exact Rank run per step — ~log2(range/tol) sequential aggregate
	// runs. It is the session facade's golden reference: slow but
	// maximally simple, and pinned bit-identical by the quantile goldens.
	QuantileBisect QuantileMethod = iota
	// QuantileHMS runs the Haeupler–Mohapatra–Su sampling protocol
	// (arXiv:1711.09258, internal/hms): one Count run, one O(log n)-round
	// gossip-sampling session with candidate-interval pruning, and a
	// handful of exact Rank probes that certify the quantile — typically
	// ~4 aggregate runs total instead of bisection's ~23, and exact
	// (not tol-approximate) on healthy sessions. Differentially tested
	// against QuantileBisect (quantile_diff_test.go, experiment QH1).
	QuantileHMS
)

// String renders the method ("bisect", "hms").
func (m QuantileMethod) String() string {
	switch m {
	case QuantileBisect:
		return "bisect"
	case QuantileHMS:
		return "hms"
	default:
		return fmt.Sprintf("QuantileMethod(%d)", uint8(m))
	}
}

// ParseQuantileMethod parses "bisect" (or "", the default) and "hms".
func ParseQuantileMethod(s string) (QuantileMethod, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "bisect", "bisection":
		return QuantileBisect, nil
	case "hms":
		return QuantileHMS, nil
	default:
		return 0, fmt.Errorf("%w: unknown quantile method %q (want bisect or hms)", ErrBadConfig, s)
	}
}

// Topology selects the communication substrate. The zero value is
// Complete (the paper's random phone call model); every other topology
// names an overlay family in the registry and runs the Section 4 sparse
// pipeline. Topology values are comparable: cfg.Topology == Chord works.
type Topology struct {
	name  string
	param int
}

// Predefined topologies. RandomRegular and SmallWorldK parameterise
// their families explicitly.
var (
	// Complete is the paper's main model: any node can call any other
	// (random phone call model).
	Complete = Topology{}
	// Chord runs the Section 4 sparse-network variant on a Chord overlay:
	// Local-DRR over finger links and routed gossip between tree roots.
	Chord = Topology{name: "chord"}
	// Torus is the most-square rows×cols wraparound grid on N nodes
	// (N must factor with both sides >= 3).
	Torus = Topology{name: "torus"}
	// Hypercube is the log2(N)-dimensional cube (N must be a power of 2).
	Hypercube = Topology{name: "hypercube"}
	// SmallWorld is a Newman–Watts small world (ring lattice plus random
	// shortcuts) with the default lattice half-width k = 2.
	SmallWorld = Topology{name: "smallworld"}
	// Ring is the n-cycle — the sparse pipeline's pedagogical worst case
	// (O(n) routes, ~n/3 trees).
	Ring = Topology{name: "ring"}
	// ScaleFree is a Barabási–Albert preferential-attachment graph with
	// the default attachment count m = 3.
	ScaleFree = Topology{name: "scalefree"}
)

// RandomRegular selects a random d-regular overlay (3 <= d < N, N*d
// even). RandomRegular(0) uses the registry default d = 4.
func RandomRegular(d int) Topology { return Topology{name: "regular", param: d} }

// SmallWorldK selects a Newman–Watts small world with lattice
// half-width k (degree >= 2k). SmallWorldK(0) uses the default k = 2.
func SmallWorldK(k int) Topology { return Topology{name: "smallworld", param: k} }

// ParseTopology parses a textual topology spec: "complete", or any
// registered overlay name with an optional ":param" suffix — "chord",
// "torus", "hypercube", "regular:6", "smallworld:3", "ring",
// "scalefree".
func ParseTopology(text string) (Topology, error) {
	if strings.EqualFold(strings.TrimSpace(text), "complete") {
		return Complete, nil
	}
	spec, err := overlay.ParseSpec(text)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return Topology{name: spec.Name, param: spec.Param}, nil
}

// TopologyNames lists every selectable topology ("complete" plus the
// overlay registry) in sorted order.
func TopologyNames() []string {
	return append([]string{"complete"}, overlay.Names()...)
}

// String renders the topology in its ParseTopology form.
func (t Topology) String() string {
	if t.isComplete() {
		return "complete"
	}
	return t.spec().String()
}

func (t Topology) isComplete() bool { return t.name == "" || t.name == "complete" }

func (t Topology) spec() overlay.Spec { return overlay.Spec{Name: t.name, Param: t.param} }

// Config describes the simulated network.
type Config struct {
	// N is the number of nodes (>= 2).
	N int
	// Seed makes runs reproducible; equal configs and seeds give
	// identical results.
	Seed uint64
	// Loss is the per-message drop probability δ ∈ [0, 1). The paper's
	// analysis admits δ < 1/8.
	Loss float64
	// CrashFraction crashes this fraction of nodes before the protocol
	// starts (the paper's initial-crash failure model). Aggregates are
	// then computed over the surviving nodes. Not supported on sparse
	// overlays (routing repair is out of scope).
	CrashFraction float64
	// Topology selects Complete (default) or a sparse overlay.
	Topology Topology
	// Faults optionally injects a dynamic fault plan — mid-run crashes
	// and rejoins, partitions, loss bursts, link blackouts, churn — built
	// with ParseFaultPlan or the internal/faults generators. Plans with
	// horizon-fraction timings (e.g. "crash:0.2@0.5", 50% through the
	// run) first measure the healthy run's length, then re-run with the
	// plan bound to it; both runs are deterministic in Seed. Nil (or an
	// empty plan) reproduces the static model bit-for-bit.
	Faults *faults.Plan
	// Telemetry optionally attaches the structured observability layer
	// (internal/telemetry): the configured Sink receives run, phase,
	// fault and (optionally, per RoundEvery) per-round events for every
	// protocol run of the session, each carrying the engine's cumulative
	// counters and the delta since the previous event. Telemetry is a
	// read-only tap — every answer stays bit-identical with any sink
	// attached — and nil (or a nil Sink) disables it entirely: the hot
	// path then installs no observers and allocates nothing extra
	// (pinned by the bench guard). See docs/OBSERVABILITY.md.
	Telemetry *telemetry.Options
	// Workers is accepted for compatibility; negative values are still
	// rejected. BatchOptions.Parallelism is the parallelism knob: it fans
	// whole runs of a batch across workers.
	//
	// Deprecated: has no effect.
	Workers int
	// SampleNodes controls how much per-node state a query's Answer
	// materializes:
	//
	//	 0 (default)  Answer.PerNode is nil — no O(N) copy per answer,
	//	              the right default at large N;
	//	 k > 0        Answer.PerNode holds the final values of min(k, N)
	//	              nodes drawn deterministically from (Seed, N, k) —
	//	              the ids are reported in Answer.SampleIDs and are
	//	              identical for every query of the session;
	//	 AllNodes     the full N-entry PerNode slice.
	SampleNodes int
	// Mode selects the execution model: Sync (default) runs the paper's
	// synchronous DRR-gossip pipelines; Async runs classical asynchronous
	// pairwise averaging on per-node Poisson clocks (AverageOf only).
	Mode Mode
	// QuantileMethod selects the protocol behind QuantileOf queries:
	// QuantileBisect (default) is the Rank-bisection golden reference,
	// QuantileHMS the sampling protocol of arXiv:1711.09258 (typically
	// ~5x fewer rounds, exact on healthy sessions). Ignored by every
	// other query; not supported in Async mode (which only runs
	// AverageOf anyway).
	QuantileMethod QuantileMethod
	// AsyncPeer names the Async-mode peer-selection policy: "uniform"
	// (or "", the default), "gge" (greedy gossip with eavesdropping —
	// sparse overlays only), or "samplegreedy". Ignored in Sync mode.
	AsyncPeer string
	// AsyncEps is the Async-mode convergence threshold: a run stops when
	// the spread (max − min) of the alive estimates is <= AsyncEps. 0
	// picks 1e-6. Ignored in Sync mode.
	AsyncEps float64
	// Deadline bounds each query's wall-clock execution time. When a
	// faulted run wedges past it, the engine watchdog aborts the run and
	// the query returns a partial Answer — Quality.Partial true, Reason
	// "deadline" — instead of hanging (see docs/ROBUSTNESS.md). 0
	// disables the bound. Wall-clock aborts are inherently
	// nondeterministic (where they land depends on machine speed); use
	// RoundBudget for a deterministic cap.
	Deadline time.Duration
	// RoundBudget caps a single protocol run's length: synchronous
	// rounds in Sync mode, dispatched clock-tick events in Async mode. A
	// run that exceeds it is aborted (at watchdog-stride granularity)
	// and the query returns a partial Answer with Quality.Reason
	// "round-budget". Deterministic: equal configs abort at the same
	// round. Composite queries apply the budget per run, not per query.
	// 0 disables the cap.
	RoundBudget int
	// Retry opts non-converged (or round-budget-aborted) queries into
	// epoch restarts: up to Attempts re-runs on a fresh protocol epoch —
	// same session, same overlay, the seed advanced per attempt — keeping
	// the first answer that completes converged. Nil disables retries.
	Retry *RetryPolicy
}

// RetryPolicy re-runs queries whose answers come back non-converged or
// partial (see Answer.Quality): each attempt is an epoch restart — the
// standing overlay is kept, the protocol epoch is re-seeded — so a
// transiently wedged query gets fresh randomness (new crash sets, new
// loss decisions under the same symbolic plan) instead of replaying the
// same doomed schedule. Deadline- and cancellation-aborted answers are
// not retried (their budget is already spent); round-budget aborts and
// non-converged completions are. Answer.Quality.Retries reports how
// many restarts an answer consumed, and its Cost and PhaseCosts
// accumulate over all attempts.
type RetryPolicy struct {
	// Attempts is the maximum number of epoch-restart re-runs after the
	// initial attempt (>= 1).
	Attempts int
}

// AllNodes is the Config.SampleNodes sentinel requesting the full
// per-node vector on every Answer.
const AllNodes = -1

// ErrBadConfig reports an invalid Config.
var ErrBadConfig = errors.New("drrgossip: invalid config")

// validate checks everything about the configuration that does not
// depend on a query's values; checkValues covers the rest per query.
func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: N must be >= 2, got %d", ErrBadConfig, c.N)
	}
	if c.N > core.MaxKeyNodes {
		return fmt.Errorf("%w: N must be <= 2^24 = %d, got %d (the largest-tree election key packs root ids into 24 bits)",
			ErrBadConfig, core.MaxKeyNodes, c.N)
	}
	// The range checks are negated in-range tests so NaN, for which every
	// comparison is false, is rejected too.
	if !(c.Loss >= 0 && c.Loss < 1) {
		return fmt.Errorf("%w: Loss must be in [0,1), got %v", ErrBadConfig, c.Loss)
	}
	if !(c.CrashFraction >= 0 && c.CrashFraction < 1) {
		return fmt.Errorf("%w: CrashFraction must be in [0,1), got %v", ErrBadConfig, c.CrashFraction)
	}
	if err := c.Faults.Validate(c.N); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: Workers must be >= 0, got %d", ErrBadConfig, c.Workers)
	}
	if c.SampleNodes < AllNodes {
		return fmt.Errorf("%w: SampleNodes must be >= 0 or AllNodes, got %d", ErrBadConfig, c.SampleNodes)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("%w: Deadline must be >= 0, got %v", ErrBadConfig, c.Deadline)
	}
	if c.RoundBudget < 0 {
		return fmt.Errorf("%w: RoundBudget must be >= 0, got %d", ErrBadConfig, c.RoundBudget)
	}
	if c.Retry != nil && c.Retry.Attempts < 1 {
		return fmt.Errorf("%w: RetryPolicy.Attempts must be >= 1, got %d", ErrBadConfig, c.Retry.Attempts)
	}
	switch c.QuantileMethod {
	case QuantileBisect, QuantileHMS:
	default:
		return fmt.Errorf("%w: unknown QuantileMethod %d (want QuantileBisect or QuantileHMS)", ErrBadConfig, int(c.QuantileMethod))
	}
	switch c.Mode {
	case Sync:
		if c.AsyncPeer != "" {
			return fmt.Errorf("%w: AsyncPeer %q set with Mode Sync", ErrBadConfig, c.AsyncPeer)
		}
	case Async:
		if _, err := pairwise.NewSelector(c.AsyncPeer); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if c.AsyncPeer == "gge" && c.Topology.isComplete() {
			return fmt.Errorf("%w: AsyncPeer gge needs a sparse Topology (its eavesdrop cache is O(edges))", ErrBadConfig)
		}
		if !(c.AsyncEps >= 0) {
			return fmt.Errorf("%w: AsyncEps must be >= 0, got %v", ErrBadConfig, c.AsyncEps)
		}
	default:
		return fmt.Errorf("%w: unknown Mode %v", ErrBadConfig, c.Mode)
	}
	if c.Topology.isComplete() {
		return nil
	}
	if c.CrashFraction != 0 {
		return fmt.Errorf("%w: topology %s does not support crashes (routing repair out of scope)", ErrBadConfig, c.Topology)
	}
	if err := overlay.Check(c.Topology.spec(), c.N); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// checkValues verifies a query's input length against the network size.
func (c Config) checkValues(values []float64) error {
	if len(values) != c.N {
		return fmt.Errorf("%w: %d values for N=%d", ErrBadConfig, len(values), c.N)
	}
	return nil
}

func (c Config) simOptions() sim.Options {
	return sim.Options{Seed: c.Seed, Loss: c.Loss, CrashFrac: c.CrashFraction}
}

func (c Config) engine() *sim.Engine {
	return sim.NewEngine(c.N, c.simOptions())
}

// ParseFaultPlan parses a fault-plan spec string (see internal/faults:
// "crash:0.2@0.5", "churn:0.3:40", "part:2@0.25..0.75;loss:0.2@0.5..0.9",
// …) for Config.Faults. An empty spec or "none" yields the empty plan.
func ParseFaultPlan(text string) (*faults.Plan, error) {
	p, err := faults.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return p, nil
}
