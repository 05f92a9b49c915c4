// Package experiments reproduces every evaluation artifact of the paper:
// Table 1 (experiment T1), the quantitative theorems as measured figures
// (F2-F12) and three ablations (A1-A3). See docs/PAPER_MAP.md for the
// index mapping each experiment to the paper and to the modules involved.
//
// Each experiment returns a Report with rendered tables (pasteable into
// the README) and machine-checked Verdicts asserting the *shape* of
// the results — who wins, by what growth factor, where crossovers fall —
// never absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"drrgossip/internal/telemetry"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical reports.
	Seed uint64
	// Quick shrinks network sizes and trial counts for CI; full runs are
	// the default for the harness binary.
	Quick bool
	// Trials overrides the number of repetitions per configuration
	// (0 = experiment default).
	Trials int
	// FaultSpec optionally applies a fault plan (ParseFaultPlan grammar)
	// to experiments that support it — the overlay sweep runs every
	// aggregate under the plan and relaxes its exactness verdicts to
	// termination + bounded error. FT1 sweeps its own scenario catalog
	// and ignores this.
	FaultSpec string
	// Progress, when non-nil, receives live per-round progress lines from
	// the experiments that run through the session API (FT1, AS1, QH1,
	// QB1), via a telemetry sink. Nil keeps runs silent.
	Progress io.Writer
	// Workers caps the goroutines the sweeps fan independent replications
	// across (0 = GOMAXPROCS, 1 = sequential). Reports are bit-identical
	// for any value: every replication derives all randomness from its
	// own seed and runs on its own engine, results land in slots indexed
	// by replication, and reductions happen in deterministic order.
	Workers int
	// Telemetry, when non-nil, is attached to the sessions of the
	// experiments that run through the session API (FT1, QB1, SC1) —
	// typically a *telemetry.Metrics feeding benchtab's -http endpoint.
	// Telemetry is a read-only tap; reports stay bit-identical.
	Telemetry *telemetry.Options
}

// workers resolves the fan-out width. Live progress streaming forces
// sequential execution: concurrent sessions would interleave their
// per-round lines nondeterministically.
func (c Config) workers() int {
	if c.Progress != nil {
		return 1
	}
	return c.Workers
}

// sessionTelemetry returns the telemetry options for one experiment
// session: cfg.Telemetry as is when progress is off, otherwise a
// progress sink streaming one line per `every` rounds to cfg.Progress,
// combined with cfg.Telemetry's sink at the coarsest stride serving
// both.
func (c Config) sessionTelemetry(label string, every int) *telemetry.Options {
	if c.Progress == nil {
		return c.Telemetry
	}
	opts := telemetry.Options{Sink: &progressSink{w: c.Progress, label: label, every: every}, RoundEvery: every}
	if c.Telemetry != nil {
		opts.Sink = telemetry.Multi(c.Telemetry.Sink, opts.Sink)
		opts.RoundEvery = gcd(every, c.Telemetry.RoundEvery)
	}
	return &opts
}

// progressSink writes one progress line to w on every round event whose
// round is a multiple of every. The faults column counts the fault
// events (crash/revive transitions) the run has seen so far.
type progressSink struct {
	w      io.Writer
	label  string
	every  int
	faults int
}

func (p *progressSink) Emit(ev *telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindRunStart:
		p.faults = 0
	case telemetry.KindFault:
		p.faults++
	case telemetry.KindRound:
		if ev.Round%p.every == 0 {
			fmt.Fprintf(p.w, "%s: run %d round %d [%s] alive %d msgs %d faults %d\n",
				p.label, ev.Run, ev.Round, ev.Phase, ev.Alive, ev.Counters.Messages, p.faults)
		}
	}
}

// gcd returns the greatest common divisor of a and b (gcd(a, 0) = a).
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick && def > 2 {
		return 2
	}
	return def
}

// sizes returns the sweep sizes. Quick mode subsamples down to four
// points while keeping the full range — shape discrimination needs range,
// not density.
func (c Config) sizes(full []int) []int {
	if !c.Quick || len(full) <= 4 {
		return full
	}
	idx := []int{0, len(full) / 3, 2 * len(full) / 3, len(full) - 1}
	out := make([]int, 0, 4)
	prev := -1
	for _, i := range idx {
		if full[i] != prev {
			out = append(out, full[i])
			prev = full[i]
		}
	}
	return out
}

// Verdict is a machine-checked claim about an experiment's outcome.
type Verdict struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is an experiment's rendered outcome.
type Report struct {
	ID       string
	Title    string
	Tables   []string
	Verdicts []Verdict
}

// Passed reports whether every verdict held.
func (r *Report) Passed() bool {
	for _, v := range r.Verdicts {
		if !v.Pass {
			return false
		}
	}
	return true
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t)
		b.WriteByte('\n')
	}
	for _, v := range r.Verdicts {
		mark := "PASS"
		if !v.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", mark, v.Name, v.Detail)
	}
	return b.String()
}

// Experiment is a runnable evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"T1", "Table 1: DRR-gossip vs uniform gossip vs efficient gossip", RunT1},
		{"F2", "Theorem 2: DRR tree count is Θ(n/log n)", RunF2},
		{"F3", "Theorem 3: DRR tree size is O(log n)", RunF3},
		{"F4", "Theorem 4: DRR costs O(n loglog n) messages, O(log n) rounds", RunF4},
		{"F5", "Theorem 5: gossip procedure reaches a constant fraction of roots", RunF5},
		{"F6", "Theorem 6: sampling procedure reaches all roots", RunF6},
		{"F7", "Theorems 7/10 + Lemma 8: Gossip-ave convergence and potential decay", RunF7},
		{"F8", "End-to-end DRR-gossip: per-phase breakdown and correctness", RunF8},
		{"F9", "Theorem 11: Local-DRR tree height is O(log n) on arbitrary graphs", RunF9},
		{"F10", "Theorem 13: Local-DRR tree count is Σ 1/(d_i+1)", RunF10},
		{"F11", "Theorem 14: DRR-gossip vs uniform gossip on Chord", RunF11},
		{"F12", "Theorem 15: the address-oblivious Ω(n log n) separation", RunF12},
		{"OV1", "Overlay sweep: Section 4 pipeline on pluggable topologies", RunOV1},
		{"FT1", "Fault injection: aggregates under churn, partitions and loss bursts", RunFT1},
		{"QB1", "Session amortization: batched queries reuse overlay and fault horizon", RunQB1},
		{"QH1", "Fast quantiles: HMS sampling driver vs bisection golden reference", RunQH1},
		{"SC1", "Scaling study: rounds, messages and memory from 10^3 to 10^7 nodes", RunSC1},
		{"AS1", "Async baseline: DRR vs pairwise averaging (uniform, GGE, sample-greedy)", RunAS1},
		{"CH1", "Chaos harness: invariant fuzzing over fault plans", RunCH1},
		{"A1", "Ablation: DRR probe budget", RunA1},
		{"A2", "Ablation: message-loss sweep", RunA2},
		{"A3", "Ablation: clusterhead heuristic bootstrap cost", RunA3},
	}
}

// ByID returns the experiment with the given id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// verdictf builds a verdict with a formatted detail string.
func verdictf(name string, pass bool, format string, args ...any) Verdict {
	return Verdict{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// floats converts ints for the fitters.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
