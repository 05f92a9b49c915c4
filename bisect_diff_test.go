package drrgossip

import (
	"fmt"
	"testing"

	"drrgossip/internal/agg"
)

// checkBisectMatchesReference runs q on a fresh session for cfg and
// checks its answer, error and the session's accounting (apart from
// Passes) against refRun, whose bisection takes one Rank run per step.
// It returns the live answer and accounting.
func checkBisectMatchesReference(t *testing.T, label string, cfg Config, q Query) (*Answer, SessionStats) {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.Run(q)
	st := nw.Stats()
	r, rerr, rst := refRun(t, cfg, q)
	if outcomeDigest(a, err, st) != outcomeDigest(r, rerr, rst) {
		t.Fatalf("%s: answer %+v (err %v, stats %+v), the reference loop's %+v (err %v, stats %+v)",
			label, a, err, st, r, rerr, rst)
	}
	return a, st
}

// TestBisectMatchesReference is the differential spec of the bisection
// loop: however many bisection levels an engine pass settles, a
// Quantile answers exactly as the loop with one Rank run per step did —
// value, bill, phase split, convergence, error and session accounting —
// on dense and sparse topologies, fault-free, lossy and under crash and
// loss-burst plans, and through its edge exits: an abort in the first
// pass, the run cap, constant values, a bracket wider than
// math.MaxFloat64 and HMS's fallback bisection under a fault plan.
func TestBisectMatchesReference(t *testing.T) {
	const n = 192
	v := agg.GenUniform(n, 0, 1000, 3)
	for _, topo := range []Topology{Complete, Chord, SmallWorld} {
		for _, r := range []struct {
			name string
			cfg  Config
		}{
			{"fault-free", Config{}},
			{"loss0.05", Config{Loss: 0.05}},
			{"crash", Config{Faults: mustPlan(t, "crash:0.1@0.5")}},
			{"burst", Config{Faults: mustPlan(t, "loss:0.1@0.2..0.8")}},
		} {
			for _, p := range []struct{ phi, tol float64 }{{0.9, 0}, {0.37, 2.5}} {
				cfg := r.cfg
				cfg.N, cfg.Seed, cfg.Topology = n, 11, topo
				label := fmt.Sprintf("%s/%s phi=%v tol=%v", topo, r.name, p.phi, p.tol)
				_, st := checkBisectMatchesReference(t, label, cfg, QuantileOf(v, p.phi, p.tol))
				if st.Passes >= st.ProtocolRuns {
					t.Fatalf("%s: %d passes for %d runs; no runs shared a pass", label, st.Passes, st.ProtocolRuns)
				}
			}
		}
	}

	// A round budget between the Max and the Sum shape's run length
	// aborts the first pass of Sum-shaped runs, whose lane 0 is the Count.
	lossy := Config{N: n, Seed: 13, Loss: 0.05}
	maxRounds := mustRun(t, lossy, MaxOf(v)).Cost.Rounds
	sumRounds := mustRun(t, lossy, CountOf(v)).Cost.Rounds
	if sumRounds < maxRounds+2*abortStrideSync {
		t.Fatalf("Max runs %d rounds, Count %d: no budget aborts only the Count", maxRounds, sumRounds)
	}
	lossy.RoundBudget = maxRounds + abortStrideSync/2
	a, _ := checkBisectMatchesReference(t, "round-budget", lossy, QuantileOf(v, 0.5, 0))
	if a.Quality.Reason != ReasonRoundBudget || a.Cost.Runs != 3 {
		t.Fatalf("round-budget: %d runs, reason %q; want 3 runs aborted by the budget", a.Cost.Runs, a.Quality.Reason)
	}

	base := Config{N: n, Seed: 17}
	a, _ = checkBisectMatchesReference(t, "run-cap", base, QuantileOf(v, 0.25, 1e-300))
	if a.Converged || a.Cost.Runs != maxQuantileRuns {
		t.Fatalf("run-cap: %d runs, converged %v; want the cap of %d, not converged", a.Cost.Runs, a.Converged, maxQuantileRuns)
	}

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	a, _ = checkBisectMatchesReference(t, "constant", base, QuantileOf(constant, 0.5, 0))
	if a.Value != 42 || a.Cost.Runs != 3 {
		t.Fatalf("constant: value %v after %d runs, want 42 after Min, Max and Count", a.Value, a.Cost.Runs)
	}

	wide := append([]float64(nil), v...)
	wide[0], wide[1] = -1.5e308, 1.5e308
	checkBisectMatchesReference(t, "wide-bracket", base, QuantileOf(wide, 0.5, 0))

	for _, spec := range []string{"crash:0.1@0.5", "loss:0.1@0.2..0.8"} {
		cfg := Config{N: n, Seed: 19, QuantileMethod: QuantileHMS, Faults: mustPlan(t, spec)}
		checkBisectMatchesReference(t, "hms-fallback "+spec, cfg, QuantileOf(v, 0.8, 0))
	}
}

// FuzzBisectMatchesReference draws networks, fault regimes, quantiles,
// tolerances and both quantile methods and checks each Quantile against
// the loop with one Rank run per step (see checkBisectMatchesReference).
func FuzzBisectMatchesReference(f *testing.F) {
	plans := []string{"", "crash:0.1@0.5", "loss:0.1@0.2..0.8", "crash:0.2@0.5;rejoin@0.9", "churn:0.2:10", "part:2@0.2..0.6"}
	for i := range plans {
		f.Add(uint64(i+1), uint8(40+30*i), uint8(i), uint8(i*3), uint8(i), uint8(37*i), uint8(i), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, topo, loss, plan, phi, tol uint8, viaHMS bool) {
		n := 32 + int(size)%160
		cfg := Config{N: n, Seed: seed, Loss: float64(loss%16) / 160}
		cfg.Topology = []Topology{Complete, Chord, SmallWorld}[int(topo)%3]
		if viaHMS {
			cfg.QuantileMethod = QuantileHMS
		}
		if spec := plans[int(plan)%len(plans)]; spec != "" {
			p, err := ParseFaultPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = p
		}
		if cfg.validate() != nil {
			return
		}
		q := QuantileOf(agg.GenUniform(n, 0, 1000, seed), float64(phi%100+1)/100, []float64{0, 0.5, 7, 1e-300}[tol%4])
		label := fmt.Sprintf("n=%d %s loss=%v plan=%q hms=%v phi=%v tol=%v", n, cfg.Topology, cfg.Loss, plans[int(plan)%len(plans)], viaHMS, q.Arg, q.Tol)
		checkBisectMatchesReference(t, label, cfg, q)
	})
}
