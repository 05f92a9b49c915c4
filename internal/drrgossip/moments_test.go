package drrgossip

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/sim"
)

// exactMoments computes the reference population mean and variance.
func exactMoments(values []float64) (mean, variance float64) {
	mean = agg.Exact(agg.Average, values, 0)
	s2 := 0.0
	for _, v := range values {
		s2 += v * v
	}
	return mean, s2/float64(len(values)) - mean*mean
}

func TestMomentsEndToEnd(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 141})
	values := agg.GenUniform(n, 0, 100, 1)
	res, err := Run(eng, nil, Moments, values)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, wantVar := exactMoments(values)
	if agg.RelError(res.Value, wantMean) > 1e-6 {
		t.Fatalf("Mean = %v, want %v", res.Value, wantMean)
	}
	if agg.RelError(res.Variance, wantVar) > 1e-6 {
		t.Fatalf("Variance = %v, want %v", res.Variance, wantVar)
	}
	if !res.Consensus {
		t.Fatal("no consensus")
	}
}

func TestMomentsConstantValues(t *testing.T) {
	n := 512
	eng := sim.NewEngine(n, sim.Options{Seed: 142})
	values := make([]float64, n)
	for i := range values {
		values[i] = 7.5
	}
	res, err := Run(eng, nil, Moments, values)
	if err != nil {
		t.Fatal(err)
	}
	if agg.RelError(res.Value, 7.5) > 1e-9 {
		t.Fatalf("Mean = %v", res.Value)
	}
	// Variance of constants is 0; allow tiny float cancellation noise.
	if math.Abs(res.Variance) > 1e-6 {
		t.Fatalf("Variance = %v, want 0", res.Variance)
	}
}

func TestMomentsUnderLossAndCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 143, Loss: 0.05, CrashFrac: 0.1})
	values := agg.GenUniform(n, 0, 50, 2)
	res, err := Run(eng, nil, Moments, values)
	if err != nil {
		t.Fatal(err)
	}
	alive := agg.Subset(values, eng.AliveIDs())
	wantMean, wantVar := exactMoments(alive)
	if agg.RelError(res.Value, wantMean) > 0.05 {
		t.Fatalf("Mean = %v, want %v", res.Value, wantMean)
	}
	if agg.RelError(res.Variance, wantVar) > 0.1 {
		t.Fatalf("Variance = %v, want %v", res.Variance, wantVar)
	}
	if !res.Consensus {
		t.Fatal("no consensus")
	}
	for i, v := range res.PerNode {
		if !res.Consensus {
			break
		}
		if eng.Alive(i) && v != res.Value {
			t.Fatalf("node %d mean %v != consensus %v", i, v, res.Value)
		}
	}
}

func TestMomentsSignedValues(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 144})
	values := agg.GenSigned(n, 20, 3)
	res, err := Run(eng, nil, Moments, values)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, wantVar := exactMoments(values)
	if math.Abs(res.Value-wantMean) > 1e-6 {
		t.Fatalf("Mean = %v, want %v", res.Value, wantMean)
	}
	if agg.RelError(res.Variance, wantVar) > 1e-6 {
		t.Fatalf("Variance = %v, want %v", res.Variance, wantVar)
	}
}

func TestMomentsValidation(t *testing.T) {
	eng := sim.NewEngine(16, sim.Options{Seed: 145})
	if _, err := Run(eng, nil, Moments, make([]float64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestMomentsCostProfile(t *testing.T) {
	// Moments must not cost asymptotically more than Ave: same phases
	// plus one extra spread.
	n := 4096
	values := agg.GenUniform(n, 0, 1, 4)
	meng := sim.NewEngine(n, sim.Options{Seed: 146})
	if _, err := Run(meng, nil, Moments, values); err != nil {
		t.Fatal(err)
	}
	aeng := sim.NewEngine(n, sim.Options{Seed: 146})
	if _, err := Run(aeng, nil, Ave, values); err != nil {
		t.Fatal(err)
	}
	if m, a := meng.Stats().Messages, aeng.Stats().Messages; m > 2*a {
		t.Fatalf("Moments cost %d messages vs Ave %d", m, a)
	}
}

func BenchmarkMoments(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sim.NewEngine(n, sim.Options{Seed: uint64(i)}), nil, Moments, values); err != nil {
			b.Fatal(err)
		}
	}
}

// crashAtGossip runs kind with the given root crashed the moment Phase
// III starts (after the convergecast banked its tree at that root).
func crashAtGossip(t *testing.T, n int, values []float64, kind Kind, victim int) (*Result, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(n, sim.Options{Seed: 5})
	eng.SetPhaseObserver(func(phase string) {
		if phase == PhaseGossip {
			eng.Crash(victim)
		}
	})
	res, err := Run(eng, nil, kind, values)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

// disagreeing counts the live nodes whose disseminated value differs
// from the reported answer.
func disagreeing(eng *sim.Engine, res *Result) int {
	bad := 0
	for i, v := range res.PerNode {
		if eng.Alive(i) && v != res.Value {
			bad++
		}
	}
	return bad
}

// A mid-run crash of the elected largest root must not strand Moments on
// the dead tree: it re-elects a live root, reports a finite mean equal to
// Ave's under the same crash, and leaves no more live nodes without the
// answer than Ave does.
func TestMomentsSurvivesElectedRootCrash(t *testing.T) {
	n := 1024
	values := agg.GenUniform(n, 0, 1000, 7)
	healthy, err := Run(sim.NewEngine(n, sim.Options{Seed: 5}), nil, Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	victim := healthy.Forest.LargestRoot()
	ave, aveEng := crashAtGossip(t, n, values, Ave, victim)
	mom, momEng := crashAtGossip(t, n, values, Moments, victim)
	if mom.Value != ave.Value || math.IsNaN(mom.Value) {
		t.Fatalf("Moments mean %v under the root crash, Ave %v", mom.Value, ave.Value)
	}
	if m, a := disagreeing(momEng, mom), disagreeing(aveEng, ave); m > a {
		t.Fatalf("%d live nodes disagree with Moments, %d with Ave", m, a)
	}
	if math.IsNaN(mom.Variance) || math.IsInf(mom.Variance, 0) {
		t.Fatalf("Moments variance %v under the root crash", mom.Variance)
	}
}
