package drrgossip

import (
	"errors"
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/faults"
	"drrgossip/internal/sim"
)

// The acceptance bar of the fault subsystem: under a crash-at-50%-of-
// rounds plan, every facade aggregate terminates on Complete and Chord
// and reports a finite relative error against the healthy-run truth.
func TestEveryAggregateTerminatesUnderMidRunCrash(t *testing.T) {
	n := 512
	values := uniformValues(n, 41)
	plan, err := ParseFaultPlan("crash:0.2@0.5")
	if err != nil {
		t.Fatal(err)
	}
	aggregates := []struct {
		name  string
		run   func(cfg Config) (*Answer, error)
		exact func(cfg Config) float64
	}{
		{"Max", func(cfg Config) (*Answer, error) { return runOnce(cfg, MaxOf(values)) },
			func(cfg Config) float64 { return mustExact(t, cfg, MaxOf(values)) }},
		{"Average", func(cfg Config) (*Answer, error) { return runOnce(cfg, AverageOf(values)) },
			func(cfg Config) float64 { return mustExact(t, cfg, AverageOf(values)) }},
		{"Sum", func(cfg Config) (*Answer, error) { return runOnce(cfg, SumOf(values)) },
			func(cfg Config) float64 { return mustExact(t, cfg, SumOf(values)) }},
		{"Count", func(cfg Config) (*Answer, error) { return runOnce(cfg, CountOf(values)) },
			func(cfg Config) float64 { return float64(n) }},
		{"Rank", func(cfg Config) (*Answer, error) { return runOnce(cfg, RankOf(values, 500)) },
			func(cfg Config) float64 { return agg.Exact(agg.Rank, values, 500) }},
	}
	for _, topo := range []Topology{Complete, Chord} {
		for _, a := range aggregates {
			t.Run(topo.String()+"/"+a.name, func(t *testing.T) {
				cfg := Config{N: n, Seed: 43, Topology: topo, Faults: plan}
				res, err := a.run(cfg)
				if err != nil {
					t.Fatalf("did not terminate cleanly: %v", err)
				}
				if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) {
					t.Fatalf("non-finite value %v", res.Value)
				}
				relErr := agg.RelError(res.Value, a.exact(cfg))
				if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
					t.Fatalf("non-finite relative error %v (value %v)", relErr, res.Value)
				}
				if res.FaultEvents == 0 || res.FaultCrashes == 0 {
					t.Fatalf("plan did not fire: %+v", res)
				}
				if res.Alive >= n {
					t.Fatalf("crash plan left all %d nodes alive", res.Alive)
				}
				t.Logf("value %.4g (rel err %.3g), alive %d, %d fault events",
					res.Value, relErr, res.Alive, res.FaultEvents)
			})
		}
	}
}

// A nil and an empty fault plan must reproduce the static engine
// bit-for-bit (the Chord parity goldens in facade_test.go pin the same
// property for nil against the pre-refactor numbers).
func TestEmptyFaultPlanIsBitIdentical(t *testing.T) {
	n := 512
	values := uniformValues(n, 45)
	empty, err := ParseFaultPlan("none")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{Complete, Chord} {
		base := Config{N: n, Seed: 47, Topology: topo, Loss: 0.05}
		with := base
		with.Faults = empty
		a := mustRun(t, base, AverageOf(values))
		b := mustRun(t, with, AverageOf(values))
		if a.Value != b.Value || a.Cost.Rounds != b.Cost.Rounds || a.Cost.Messages != b.Cost.Messages || a.Cost.Drops != b.Cost.Drops {
			t.Fatalf("%s: empty plan drifted: (%v,%d,%d,%d) vs (%v,%d,%d,%d)", topo,
				a.Value, a.Cost.Rounds, a.Cost.Messages, a.Cost.Drops, b.Value, b.Cost.Rounds, b.Cost.Messages, b.Cost.Drops)
		}
	}
}

// The paper's static CrashFrac model must be exactly expressible as a
// round-0 crash plan: identical values and message counts, pinned by
// goldens so neither path can drift. The golden numbers were captured
// from Config{N: 2048, Seed: 15, Loss: 0.1, CrashFraction: 0.2} — the
// same configuration as TestFailuresFacade.
func TestCrashFracExpressibleAsPlan(t *testing.T) {
	cfg := Config{N: 2048, Seed: 15, Loss: 0.1, CrashFraction: 0.2}
	values := uniformValues(2048, 16)

	viaCrashFrac := mustRun(t, cfg, MaxOf(values))
	planCfg := Config{N: 2048, Seed: 15, Loss: 0.1,
		Faults: faults.FromCrashFrac(2048, sim.Options{Seed: 15, CrashFrac: 0.2})}
	viaPlan := mustRun(t, planCfg, MaxOf(values))
	if viaPlan.Value != viaCrashFrac.Value || viaPlan.Cost.Rounds != viaCrashFrac.Cost.Rounds ||
		viaPlan.Cost.Messages != viaCrashFrac.Cost.Messages || viaPlan.Cost.Drops != viaCrashFrac.Cost.Drops ||
		viaPlan.Trees != viaCrashFrac.Trees || viaPlan.Alive != viaCrashFrac.Alive {
		t.Fatalf("plan path diverges from CrashFrac path:\n plan      %+v\n crashfrac %+v", viaPlan, viaCrashFrac)
	}
	// Golden pin (see comment above): any drift in either path fails here.
	const (
		goldenRounds   = 178
		goldenMessages = 62894
		goldenAlive    = 1651
	)
	if viaCrashFrac.Cost.Rounds != goldenRounds || viaCrashFrac.Cost.Messages != goldenMessages ||
		viaCrashFrac.Alive != goldenAlive {
		t.Fatalf("golden drift: rounds=%d messages=%d alive=%d, want (%d, %d, %d)",
			viaCrashFrac.Cost.Rounds, viaCrashFrac.Cost.Messages, viaCrashFrac.Alive,
			goldenRounds, goldenMessages, goldenAlive)
	}
}

// Fault-plan validation surfaces as ErrBadConfig through the facade.
func TestFaultPlanValidation(t *testing.T) {
	values := uniformValues(16, 1)
	bad := &faults.Plan{Events: []faults.Event{{Kind: faults.Crash, Nodes: []int{99}}}}
	if _, err := runOnce(Config{N: 16, Seed: 1, Faults: bad}, MaxOf(values)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("out-of-range plan: %v, want ErrBadConfig", err)
	}
	if _, err := ParseFaultPlan("meteor:0.5"); !errors.Is(err, ErrBadConfig) {
		t.Fatal("ParseFaultPlan should wrap ErrBadConfig")
	}
	plan, err := ParseFaultPlan("crash:0.25@0.5;rejoin@0.9")
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{N: 256, Seed: 3, Faults: plan}, AverageOf(uniformValues(256, 4)))
	if res.FaultRevives == 0 {
		t.Fatalf("rejoin never fired: %+v", res)
	}
}

// Fault runs must be exactly reproducible from the seed.
func TestFaultRunDeterminism(t *testing.T) {
	plan, err := ParseFaultPlan("churn:0.3:25;loss:0.2@0.3..0.7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 256, Seed: 51, Faults: plan}
	values := uniformValues(256, 52)
	a := mustRun(t, cfg, SumOf(values))
	b := mustRun(t, cfg, SumOf(values))
	if a.Value != b.Value || a.Cost.Messages != b.Cost.Messages || a.Cost.Rounds != b.Cost.Rounds ||
		a.FaultEvents != b.FaultEvents || a.Alive != b.Alive {
		t.Fatalf("faulty runs differ: %+v vs %+v", a, b)
	}
}

// Partition + heal: the run must terminate and stay finite even when a
// partition is active during the gossip phase.
func TestPartitionedRunTerminates(t *testing.T) {
	plan, err := ParseFaultPlan("part:2@0.3..0.7")
	if err != nil {
		t.Fatal(err)
	}
	values := uniformValues(512, 54)
	res := mustRun(t, Config{N: 512, Seed: 53, Faults: plan}, AverageOf(values))
	if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) {
		t.Fatalf("non-finite value %v", res.Value)
	}
	if res.Cost.Drops == 0 {
		t.Fatal("partition blocked nothing")
	}
}
