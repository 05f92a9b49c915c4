// Package faults is the fault-injection and dynamic-membership subsystem:
// it turns the paper's static failure model (crash-before-start, uniform
// link loss) into a testbed for time-varying networks. A Plan is a
// deterministic, seed-reproducible timeline of fault events — mid-run
// crashes and rejoins, network partitions with later heals, loss-rate
// bursts δ(t), per-link blackouts — plus generators for common scenarios
// (Poisson churn, correlated rack failure, flaky regions).
//
// A Plan is symbolic: event times may be absolute rounds or fractions of
// a run horizon, and node sets may be given as fractions of n. Bind
// resolves a plan against a concrete network size, seed and horizon into
// an immutable Bound that any number of runs may share; each Attach to
// an engine starts that run's Replay, which applies the schedule through
// the engine's dynamic-membership hooks (Crash/Revive, SetLinkFault,
// SetRoundHook) as the round hook reports rounds in increasing order.
// Binding and replay are fully deterministic: the same (plan, n, seed,
// horizon) always crashes the same nodes at the same rounds, so faulty
// runs are exactly as reproducible as healthy ones.
//
// The paper's CrashFrac model is the degenerate plan that crashes
// sim.InitialCrashSet at round 0; see FromCrashFrac. With an empty plan
// nothing attaches and the engine is bit-for-bit the static engine.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// Kind enumerates fault event kinds.
type Kind uint8

const (
	// Crash kills a node set at At (permanently, unless a later Rejoin
	// revives it).
	Crash Kind = iota
	// Rejoin revives nodes at At. An explicit Nodes list revives exactly
	// those; Frac revives that fraction of the nodes actually dead at
	// that moment and Count that many of them (in a seed-derived
	// preference order); with neither, every dead node rejoins. An
	// explicit rejoin clears any crash holds still covering the node.
	Rejoin
	// LossBurst adds extra drop probability Loss to every link during
	// [At, End).
	LossBurst
	// Partition splits the nodes into Groups isolated sets during
	// [At, End); links inside a set are unaffected.
	Partition
	// LinkDown severs the single link A-B (both directions) during
	// [At, End).
	LinkDown
	// Flaky adds extra drop probability Loss to every link touching the
	// node set during [At, End) — a flaky region or rack uplink.
	Flaky
	// ChurnKind is a symbolic Poisson churn process, expanded at Bind
	// time into individual Crash/Rejoin events across the whole horizon.
	ChurnKind
)

var kindNames = map[Kind]string{
	Crash: "crash", Rejoin: "rejoin", LossBurst: "loss",
	Partition: "part", LinkDown: "link", Flaky: "flaky", ChurnKind: "churn",
}

// String returns the kind's spec keyword ("crash", "loss", …), or
// Kind(n) for an unknown value.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Timing locates an event in time: an absolute round (Round >= 1), or a
// fraction of the run horizon (Frac in (0, 1], used when Round == 0).
// The zero Timing means round 0 — "before the first round" — when used
// as a start, and "never" when used as a window end.
type Timing struct {
	Round int
	Frac  float64
}

// At builds an absolute-round timing.
func At(round int) Timing { return Timing{Round: round} }

// AtFrac builds a horizon-fraction timing.
func AtFrac(f float64) Timing { return Timing{Frac: f} }

// isZero reports the zero timing (round 0 / open end).
func (t Timing) isZero() bool { return t.Round == 0 && t.Frac == 0 }

// needsHorizon reports whether resolving t requires a run horizon.
func (t Timing) needsHorizon() bool { return t.Round == 0 && t.Frac > 0 }

// resolve maps t to an absolute round given the horizon.
func (t Timing) resolve(horizon int) int {
	if t.Round > 0 || t.Frac == 0 {
		return t.Round
	}
	r := int(math.Round(t.Frac * float64(horizon)))
	if r < 0 {
		r = 0
	}
	return r
}

// String renders t in spec form: "<r>r" for an absolute round, the bare
// fraction (always with a decimal point or exponent) otherwise.
func (t Timing) String() string {
	if t.Round > 0 || t.Frac == 0 {
		return fmt.Sprintf("%dr", t.Round)
	}
	s := fmt.Sprintf("%g", t.Frac)
	if !strings.ContainsAny(s, ".e") {
		s += ".0" // keep the fraction marker so the spec re-parses as a fraction
	}
	return s
}

// Event is one symbolic entry of a fault plan. Which fields matter
// depends on Kind; Bind validates the combination.
type Event struct {
	Kind Kind
	// At is when the event takes effect; End closes the window of
	// windowed kinds (LossBurst, Partition, LinkDown, Flaky) and, for a
	// Crash, schedules an automatic rejoin of the same set. A zero End
	// leaves the fault active to the end of the run.
	At, End Timing
	// Nodes lists the affected nodes explicitly. When empty, Count (if
	// > 0) or ceil(Frac·n) nodes are selected deterministically from the
	// bind seed — a hashed subset by default, a contiguous block when
	// Contiguous is set (rack semantics).
	Nodes      []int
	Frac       float64
	Count      int
	Contiguous bool
	// Groups is the partition group count (Partition only; >= 2).
	Groups int
	// Loss is the extra per-link drop probability (LossBurst, Flaky).
	Loss float64
	// A, B are the endpoints of a LinkDown.
	A, B int
	// Rate is the ChurnKind intensity: the expected number of crash
	// events over the whole run, as a fraction of n (0.5 means n/2
	// crashes spread Poisson-uniformly over the horizon).
	Rate float64
	// Down is how many rounds a churned node stays down before it
	// rejoins (ChurnKind; 0 means it never rejoins).
	Down int
}

// Plan is a symbolic fault timeline. The zero value (and nil) is the
// empty plan: no faults, nothing attaches.
type Plan struct {
	Events []Event
	// Spec preserves the textual form the plan was parsed from, for
	// display; generators synthesise one.
	Spec string
}

// Empty reports whether the plan has no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// NeedsHorizon reports whether any event is placed by horizon fraction
// (or is a churn process), so Bind requires a positive horizon.
func (p *Plan) NeedsHorizon() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if ev.Kind == ChurnKind || ev.At.needsHorizon() || ev.End.needsHorizon() {
			return true
		}
	}
	return false
}

// String renders the plan's spec form: the verbatim text it was parsed
// from when one is recorded, otherwise the canonical rendering of its
// events in the Parse grammar (see Canonical). Either way the result
// re-parses to the same events.
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	if p.Spec != "" {
		return p.Spec
	}
	return p.Canonical()
}

// Merge concatenates plans into one.
func Merge(plans ...*Plan) *Plan {
	out := &Plan{}
	var specs []string
	for _, p := range plans {
		if p.Empty() {
			continue
		}
		out.Events = append(out.Events, p.Events...)
		specs = append(specs, p.String())
	}
	out.Spec = strings.Join(specs, ";")
	return out
}

// ErrBadPlan reports an invalid plan or binding.
var ErrBadPlan = errors.New("faults: invalid plan")

// Validate checks the plan's events against a network of n nodes.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		err := ev.check()
		if err == nil {
			err = ev.checkRange(n)
		}
		if err != nil {
			return fmt.Errorf("%w: event %d (%s): %v", ErrBadPlan, i, ev.Kind, err)
		}
	}
	return nil
}

// check validates the event's fields that do not depend on the network
// size; Parse runs it on every event. The fractional range checks are
// negated in-range tests so NaN, for which every comparison is false, is
// rejected too.
func (ev Event) check() error {
	if ev.At.Round < 0 || !(ev.At.Frac >= 0 && ev.At.Frac <= 1) ||
		ev.End.Round < 0 || !(ev.End.Frac >= 0 && ev.End.Frac <= 1) {
		return fmt.Errorf("timing out of range (rounds >= 0, fractions in [0,1])")
	}
	if !(ev.Frac >= 0 && ev.Frac <= 1) {
		return fmt.Errorf("node fraction %g out of [0,1]", ev.Frac)
	}
	if ev.Count < 0 {
		return fmt.Errorf("negative node count %d", ev.Count)
	}
	switch ev.Kind {
	case Crash:
		if len(ev.Nodes) == 0 && ev.Frac == 0 && ev.Count == 0 {
			return fmt.Errorf("crash needs a node set")
		}
	case Rejoin:
		// An empty set means "revive everyone dead".
	case LossBurst:
		if !(ev.Loss > 0 && ev.Loss < 1) {
			return fmt.Errorf("burst loss %g out of (0,1)", ev.Loss)
		}
	case Partition:
		if ev.Groups < 2 {
			return fmt.Errorf("partition needs at least 2 groups, got %d", ev.Groups)
		}
	case LinkDown:
		if ev.A < 0 || ev.B < 0 || ev.A == ev.B {
			return fmt.Errorf("link %d-%d invalid", ev.A, ev.B)
		}
	case Flaky:
		if !(ev.Loss > 0 && ev.Loss <= 1) {
			return fmt.Errorf("flaky loss %g out of (0,1]", ev.Loss)
		}
		if len(ev.Nodes) == 0 && ev.Frac == 0 && ev.Count == 0 {
			return fmt.Errorf("flaky needs a node set")
		}
	case ChurnKind:
		if !(ev.Rate > 0 && ev.Rate <= 1) {
			return fmt.Errorf("churn rate %g out of (0,1]", ev.Rate)
		}
		if ev.Down < 0 {
			return fmt.Errorf("negative churn downtime")
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	return nil
}

// checkRange validates the event's node ids, node count, group count and
// link endpoints against a network of n nodes.
func (ev Event) checkRange(n int) error {
	for _, id := range ev.Nodes {
		if id < 0 || id >= n {
			return fmt.Errorf("node %d out of range [0,%d)", id, n)
		}
	}
	if ev.Count > n {
		return fmt.Errorf("node count %d out of [0,%d]", ev.Count, n)
	}
	if ev.Kind == Partition && ev.Groups > n {
		return fmt.Errorf("partition needs 2..n groups, got %d", ev.Groups)
	}
	if ev.Kind == LinkDown && (ev.A >= n || ev.B >= n) {
		return fmt.Errorf("link %d-%d invalid for n=%d", ev.A, ev.B, n)
	}
	return nil
}

// nodeCount resolves the size of the event's node set.
func (ev Event) nodeCount(n int) int {
	if len(ev.Nodes) > 0 {
		return len(ev.Nodes)
	}
	if ev.Count > 0 {
		return ev.Count
	}
	k := int(math.Ceil(ev.Frac * float64(n)))
	if k > n {
		k = n
	}
	return k
}

// selectNodes materialises the event's node set deterministically from
// the bind seed and the event's index in the plan.
func (ev Event) selectNodes(n int, seed uint64, idx int) []int {
	if len(ev.Nodes) > 0 {
		out := append([]int(nil), ev.Nodes...)
		sort.Ints(out)
		return out
	}
	k := ev.nodeCount(n)
	if k == 0 {
		return nil
	}
	rng := xrand.Derive(seed, 0xFA, uint64(idx))
	if ev.Contiguous {
		start := rng.Intn(n)
		out := make([]int, k)
		for i := range out {
			out[i] = (start + i) % n
		}
		sort.Ints(out)
		return out
	}
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}

// FromCrashFrac returns the plan equivalent to the engine's static
// CrashFrac model: a single round-0 Crash of exactly the nodes
// NewEngine(n, opts) would remove. Golden tests pin that running either
// path yields identical message counts.
func FromCrashFrac(n int, opts sim.Options) *Plan {
	ids := sim.InitialCrashSet(n, opts)
	if len(ids) == 0 {
		return &Plan{}
	}
	// No recorded Spec: the canonical rendering ("crash:#…@0r") is the
	// plan's string form, so it re-parses — the old "crashfrac:%g" label
	// was display-only and broke Parse round-tripping.
	return &Plan{Events: []Event{{Kind: Crash, Nodes: ids}}}
}
