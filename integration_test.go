package drrgossip

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/kashyap"
	"drrgossip/internal/kempe"
	"drrgossip/internal/overlay"
	"drrgossip/internal/pietro"
	"drrgossip/internal/sim"
)

// Integration tests: the three Table 1 algorithms (plus the clusterhead
// heuristic) must agree with each other and with the exact aggregate on
// identical inputs, across failure configurations and topologies.

func TestAllAlgorithmsAgreeOnMax(t *testing.T) {
	n := 2048
	values := agg.GenUniform(n, -1000, 1000, 61)
	want := agg.Exact(agg.Max, values, 0)

	dres, err := core.Run(sim.NewEngine(n, sim.Options{Seed: 62}), nil, core.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := core.RunForest(sim.NewEngine(n, sim.Options{Seed: 63}), kashyap.BuildForest, core.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := core.RunForest(sim.NewEngine(n, sim.Options{Seed: 65}), pietro.Bootstrap, core.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Value != want || kres.Value != want || pres.Value != want {
		t.Fatalf("disagreement: drr %v, kashyap %v, pietro %v, want %v",
			dres.Value, kres.Value, pres.Value, want)
	}
}

func TestAllAlgorithmsAgreeOnAverage(t *testing.T) {
	n := 2048
	values := agg.GenSigned(n, 500, 66)
	want := agg.Exact(agg.Average, values, 0)
	tol := 1e-5

	dres, err := core.Run(sim.NewEngine(n, sim.Options{Seed: 67}), nil, core.Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := core.RunForest(sim.NewEngine(n, sim.Options{Seed: 68}), kashyap.BuildForest, core.Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := kempe.PushSum(sim.NewEngine(n, sim.Options{Seed: 69}), values)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"drr": dres.Value, "kashyap": kres.Value, "kempe": mres.Estimates[0],
	} {
		if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1) {
			t.Fatalf("%s average %v, want %v", name, got, want)
		}
	}
}

func TestMessageOrderingAtScale(t *testing.T) {
	// The Table 1 ordering must hold head-to-head on one seed at a size
	// where the asymptotics have separated: kempe spends more messages
	// than drr; drr and kempe finish faster than kashyap.
	n := 16384
	values := agg.GenUniform(n, 0, 1, 70)

	deng := sim.NewEngine(n, sim.Options{Seed: 71})
	if _, err := core.Run(deng, nil, core.Ave, values); err != nil {
		t.Fatal(err)
	}
	keng := sim.NewEngine(n, sim.Options{Seed: 72})
	if _, err := core.RunForest(keng, kashyap.BuildForest, core.Ave, values); err != nil {
		t.Fatal(err)
	}
	meng := sim.NewEngine(n, sim.Options{Seed: 73})
	if _, err := kempe.PushSum(meng, values); err != nil {
		t.Fatal(err)
	}
	d, k, m := deng.Stats(), keng.Stats(), meng.Stats()
	if m.Messages <= d.Messages {
		t.Fatalf("kempe messages %d <= drr %d at n=%d", m.Messages, d.Messages, n)
	}
	if d.Rounds >= k.Rounds {
		t.Fatalf("drr rounds %d >= kashyap %d", d.Rounds, k.Rounds)
	}
	if m.Rounds >= k.Rounds {
		t.Fatalf("kempe rounds %d >= kashyap %d", m.Rounds, k.Rounds)
	}
}

func TestCompleteAndChordAgree(t *testing.T) {
	// The same aggregate through both topologies of the public API.
	n := 512
	values := agg.GenUniform(n, 0, 100, 74)
	complete := mustRun(t, Config{N: n, Seed: 75}, AverageOf(values))
	chordRes := mustRun(t, Config{N: n, Seed: 76, Topology: Chord}, AverageOf(values))
	if math.Abs(complete.Value-chordRes.Value) > 1e-3 {
		t.Fatalf("topologies disagree: complete %v, chord %v", complete.Value, chordRes.Value)
	}
	// Chord pays more rounds (routing) but its correctness matches.
	if chordRes.Cost.Rounds <= complete.Cost.Rounds {
		t.Fatalf("chord rounds %d <= complete rounds %d", chordRes.Cost.Rounds, complete.Cost.Rounds)
	}
}

func TestChordDRRBeatsChordUniformOnMessages(t *testing.T) {
	n := 1024
	ring, err := chord.New(n, chord.Options{Bits: 40})
	if err != nil {
		t.Fatal(err)
	}
	values := agg.GenUniform(n, 0, 100, 77)
	deng := sim.NewEngine(n, sim.Options{Seed: 78})
	if _, err := core.Run(deng, overlay.NewChord(ring), core.Max, values); err != nil {
		t.Fatal(err)
	}
	ueng := sim.NewEngine(n, sim.Options{Seed: 79})
	if _, err := kempe.PushMaxOnChord(ueng, ring, values); err != nil {
		t.Fatal(err)
	}
	if u, d := ueng.Stats().Messages, deng.Stats().Messages; u <= 2*d {
		t.Fatalf("uniform-on-chord %d messages vs drr-on-chord %d: expected a clear gap", u, d)
	}
}

func TestMomentsFacade(t *testing.T) {
	n := 1024
	values := agg.GenUniform(n, 0, 100, 80)
	res := mustRun(t, Config{N: n, Seed: 81}, MomentsOf(values))
	wantMean := agg.Exact(agg.Average, values, 0)
	s2 := 0.0
	for _, v := range values {
		s2 += v * v
	}
	wantVar := s2/float64(n) - wantMean*wantMean
	if agg.RelError(res.Mean, wantMean) > 1e-6 {
		t.Fatalf("Mean = %v, want %v", res.Mean, wantMean)
	}
	if agg.RelError(res.Variance, wantVar) > 1e-6 {
		t.Fatalf("Variance = %v, want %v", res.Variance, wantVar)
	}
	if !res.Consensus || res.Cost.Messages == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
}

func TestFullStackUnderAdversity(t *testing.T) {
	// Everything at once: loss at the paper's bound, 20% initial crashes,
	// every facade aggregate, one seed.
	n := 4096
	cfg := Config{N: n, Seed: 82, Loss: 0.125, CrashFraction: 0.2}
	values := agg.GenUniform(n, -50, 150, 83)

	mx := mustRun(t, cfg, MaxOf(values))
	if mx.Value != mustExact(t, cfg, MaxOf(values)) || !mx.Consensus {
		t.Fatalf("Max = %v (consensus %v)", mx.Value, mx.Consensus)
	}
	mn := mustRun(t, cfg, MinOf(values))
	if mn.Value != mustExact(t, cfg, MinOf(values)) {
		t.Fatalf("Min = %v", mn.Value)
	}
	av := mustRun(t, cfg, AverageOf(values))
	if want := mustExact(t, cfg, AverageOf(values)); agg.RelError(av.Value, want) > 0.05 {
		t.Fatalf("Average = %v, want %v", av.Value, want)
	}
	ct := mustRun(t, cfg, CountOf(values))
	if want := mustExact(t, cfg, CountOf(values)); agg.RelError(ct.Value, want) > 0.02 {
		t.Fatalf("Count = %v, want %v", ct.Value, want)
	}
}
