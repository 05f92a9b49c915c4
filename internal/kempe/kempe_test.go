package kempe

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/sim"
)

func TestPushSumConverges(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 74})
	values := agg.GenUniform(n, 0, 1000, 4)
	res, err := PushSum(eng, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	for i, v := range res.Estimates {
		if e := agg.RelError(v, want); e > 1e-6 {
			t.Fatalf("node %d estimate %v, want %v (rel err %v)", i, v, want, e)
		}
	}
}

func TestPushSumMassConservation(t *testing.T) {
	n := 512
	eng := sim.NewEngine(n, sim.Options{Seed: 75})
	values := agg.GenSigned(n, 10, 5)
	res, err := PushSum(eng, values)
	if err != nil {
		t.Fatal(err)
	}
	// With zero loss no share is destroyed, so the mass identities
	// ΣS = Σ values and ΣW = n hold after the full run.
	var sTot, wTot float64
	for i := 0; i < n; i++ {
		sTot += res.S[i]
		wTot += res.W[i]
	}
	if math.Abs(sTot-agg.Exact(agg.Sum, values, 0)) > 1e-9 {
		t.Fatalf("value mass drifted: %v", sTot)
	}
	if math.Abs(wTot-float64(n)) > 1e-9 {
		t.Fatalf("weight mass drifted: %v", wTot)
	}
}

func TestPushSumWithCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 76, CrashFrac: 0.25})
	values := agg.GenUniform(n, 0, 100, 6)
	res, err := PushSum(eng, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, agg.Subset(values, eng.AliveIDs()), 0)
	for i, v := range res.Estimates {
		if !eng.Alive(i) {
			if !math.IsNaN(v) {
				t.Fatalf("crashed node %d has estimate", i)
			}
			continue
		}
		if e := agg.RelError(v, want); e > 1e-4 {
			t.Fatalf("node %d estimate %v, want %v", i, v, want)
		}
	}
}

func TestPushSumUnderLoss(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 77, Loss: 0.1})
	values := agg.GenUniform(n, 0, 100, 7)
	res, err := PushSum(eng, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	for i, v := range res.Estimates {
		if e := agg.RelError(v, want); e > 0.05 {
			t.Fatalf("node %d estimate %v vs %v under loss", i, v, want)
		}
	}
}

func TestPushMaxOnChord(t *testing.T) {
	n := 512
	ring, err := chord.New(n, chord.Options{Bits: 30})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 78})
	values := agg.GenUniform(n, 0, 100, 8)
	res, err := PushMaxOnChord(eng, ring, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	for i, v := range res.Estimates {
		if v != want {
			t.Fatalf("node %d estimate %v, want %v", i, v, want)
		}
	}
	// Θ(n log^2 n) messages.
	logn := math.Log2(float64(n))
	msgs := float64(eng.Stats().Messages)
	if msgs < float64(n)*logn || msgs > 40*float64(n)*logn*logn {
		t.Fatalf("chord push-max messages %v out of Θ(n log^2 n) envelope", msgs)
	}
}

func TestChordBaselineValidation(t *testing.T) {
	ring, err := chord.New(64, chord.Options{Bits: 20})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(32, sim.Options{Seed: 80})
	if _, err := PushMaxOnChord(eng, ring, make([]float64, 32)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	eng2 := sim.NewEngine(64, sim.Options{Seed: 81, CrashFrac: 0.5})
	if _, err := PushMaxOnChord(eng2, ring, make([]float64, 64)); err == nil {
		t.Fatal("crashed chord accepted")
	}
}

func TestValueLengthValidation(t *testing.T) {
	eng := sim.NewEngine(16, sim.Options{Seed: 82})
	if _, err := PushSum(eng, make([]float64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkPushSum(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := PushSum(eng, values); err != nil {
			b.Fatal(err)
		}
	}
}
