// Package chaos is the property-based fault-plan fuzzer: it generates
// seed-reproducible (config, plan) cases, runs the full query battery
// on both execution engines, checks an invariant library (termination,
// value-range and mass soundness, histogram/rank cross-consistency,
// bit-exact determinism under replay and across worker counts, the
// Quality degradation contract), and delta-debugs any failing case down
// to a minimal reproducer whose one-line form is checked into a
// regression corpus (testdata/regressions.txt) and replayed by CI.
//
// Everything a case needs is encoded in one parseable line —
//
//	n=64 topo=chord seed=11 loss=0.05 plan=crash:0.2@0.5;rejoin@0.9
//
// — so a failure found by the fuzzer anywhere (CI, a long local soak)
// reproduces everywhere with `chaosfuzz -case "<line>"`.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"drrgossip"
	"drrgossip/internal/faults"
)

// Case is one fuzz case: a complete, self-describing network
// configuration plus a symbolic fault plan. The zero Loss/nil Plan case
// is the healthy control the strictest invariants run against.
type Case struct {
	// N is the network size.
	N int
	// Topology is the overlay (Complete, Chord, Torus, ...).
	Topology drrgossip.Topology
	// Seed drives every random decision of the case: the engine streams,
	// the plan's node selections, and the input values.
	Seed uint64
	// Loss is the baseline per-message drop probability.
	Loss float64
	// QuantileMethod selects the battery's quantile driver (bisection
	// golden reference or the HMS sampling protocol); the invariant
	// library cross-checks the two on every non-churn case.
	QuantileMethod drrgossip.QuantileMethod
	// Plan is the symbolic fault plan (nil for the healthy control).
	Plan *faults.Plan
}

// String renders the case as its one-line reproducer form, parseable by
// ParseCase. The plan field comes last because its spec is the only
// field with internal structure.
func (c Case) String() string {
	plan := "none"
	if !c.Plan.Empty() {
		plan = c.Plan.String()
	}
	qm := ""
	if c.QuantileMethod != drrgossip.QuantileBisect {
		// The default method is omitted so every pre-existing corpus
		// line stays canonical.
		qm = fmt.Sprintf("qm=%s ", c.QuantileMethod)
	}
	return fmt.Sprintf("n=%d topo=%s seed=%d loss=%s %splan=%s",
		c.N, c.Topology, c.Seed, strconv.FormatFloat(c.Loss, 'g', -1, 64), qm, plan)
}

// ParseCase parses a reproducer line produced by Case.String.
func ParseCase(line string) (Case, error) {
	c := Case{}
	seen := map[string]bool{}
	for _, field := range strings.Fields(strings.TrimSpace(line)) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Case{}, fmt.Errorf("chaos: malformed field %q (want key=value)", field)
		}
		if seen[key] {
			return Case{}, fmt.Errorf("chaos: duplicate field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "n":
			c.N, err = strconv.Atoi(val)
		case "topo":
			c.Topology, err = drrgossip.ParseTopology(val)
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
		case "loss":
			c.Loss, err = strconv.ParseFloat(val, 64)
		case "qm":
			c.QuantileMethod, err = drrgossip.ParseQuantileMethod(val)
		case "plan":
			if val != "none" {
				c.Plan, err = faults.Parse(val)
			}
		default:
			return Case{}, fmt.Errorf("chaos: unknown field %q", key)
		}
		if err != nil {
			return Case{}, fmt.Errorf("chaos: field %q: %v", key, err)
		}
	}
	for _, req := range []string{"n", "seed"} {
		if !seen[req] {
			return Case{}, fmt.Errorf("chaos: missing field %q", req)
		}
	}
	if c.N < 2 {
		return Case{}, fmt.Errorf("chaos: n=%d out of range (need >= 2)", c.N)
	}
	if !(c.Loss >= 0 && c.Loss < 1) { // negated so NaN is rejected too
		return Case{}, fmt.Errorf("chaos: loss=%v out of range [0,1)", c.Loss)
	}
	return c, nil
}

// config assembles the synchronous session configuration the case's
// invariants run under. budget is the termination backstop
// (Config.RoundBudget); 0 disables it (the async leg, whose engine has
// its own event cap).
func (c Case) config(budget int) drrgossip.Config {
	return drrgossip.Config{
		N:              c.N,
		Seed:           c.Seed,
		Topology:       c.Topology,
		Loss:           c.Loss,
		QuantileMethod: c.QuantileMethod,
		Faults:         c.Plan,
		RoundBudget:    budget,
	}
}
