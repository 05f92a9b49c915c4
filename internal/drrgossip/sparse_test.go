package drrgossip

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

func evenRing(t testing.TB, n int) *chord.Ring {
	t.Helper()
	r, err := chord.New(n, chord.Options{Bits: 30})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMaxOnChordEndToEnd(t *testing.T) {
	n := 1024
	ring := evenRing(t, n)
	eng := sim.NewEngine(n, sim.Options{Seed: 61})
	values := agg.GenUniform(n, 0, 1000, 1)
	res, err := Run(eng, overlay.NewChord(ring), Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want || !res.Consensus {
		t.Fatalf("Max = %v (consensus %v), want %v", res.Value, res.Consensus, want)
	}
}

func TestMaxOnChordHashedPlacement(t *testing.T) {
	n := 512
	ring, err := chord.New(n, chord.Options{Bits: 30, Placement: chord.Hashed, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 62})
	values := agg.GenUniform(n, 0, 100, 2)
	res, err := Run(eng, overlay.NewChord(ring), Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want || !res.Consensus {
		t.Fatalf("Max = %v (consensus %v), want %v", res.Value, res.Consensus, want)
	}
}

// TestHashedChordGolden pins Max and Ave on a 300-node Chord ring with
// hashed 30-bit identifiers, a ring the topology registry does not
// build, to golden numbers that must never drift.
func TestHashedChordGolden(t *testing.T) {
	n := 300
	ring, err := chord.New(n, chord.Options{Bits: 30, Placement: chord.Hashed, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	values := agg.GenUniform(n, 0, 1000, 6)
	for _, c := range []struct {
		kind            Kind
		value           float64
		rounds          int
		messages, drops int64
		trees           int
	}{
		{kind: Max, value: 999.6730652081209, rounds: 1597, messages: 18028, trees: 21},
		{kind: Ave, value: 501.86318670372515, rounds: 4573, messages: 40047, trees: 21},
	} {
		eng := sim.NewEngine(n, sim.Options{Seed: 5})
		before := eng.Stats()
		res, err := Run(eng, overlay.NewChord(ring), c.kind, values)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats().Sub(before)
		if res.Value != c.value || st.Rounds != c.rounds || st.Messages != c.messages ||
			st.Drops != c.drops || res.Forest.NumTrees() != c.trees {
			t.Fatalf("kind %d drifted: got (value=%v rounds=%d msgs=%d drops=%d trees=%d), want %+v",
				c.kind, res.Value, st.Rounds, st.Messages, st.Drops, res.Forest.NumTrees(), c)
		}
	}
}

func TestAveOnChordEndToEnd(t *testing.T) {
	n := 1024
	ring := evenRing(t, n)
	eng := sim.NewEngine(n, sim.Options{Seed: 63})
	values := agg.GenUniform(n, 0, 100, 3)
	res, err := Run(eng, overlay.NewChord(ring), Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Value, want); e > 1e-5 {
		t.Fatalf("Ave = %v, want %v (rel err %v)", res.Value, want, e)
	}
	if !res.Consensus {
		t.Fatal("no consensus")
	}
}

func TestChordComplexityTheorem14(t *testing.T) {
	// Time O(log^2 n), messages O(n log n): both should hold with modest
	// constants.
	n := 1024
	ring := evenRing(t, n)
	eng := sim.NewEngine(n, sim.Options{Seed: 64})
	values := agg.GenUniform(n, 0, 1, 4)
	if _, err := Run(eng, overlay.NewChord(ring), Max, values); err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(float64(n))
	if got := float64(eng.Stats().Rounds); got > 30*logn*logn {
		t.Fatalf("rounds %v exceed 30 log^2 n = %v", got, 30*logn*logn)
	}
	if got := float64(eng.Stats().Messages); got > 40*float64(n)*logn {
		t.Fatalf("messages %v exceed 40 n log n = %v", got, 40*float64(n)*logn)
	}
}

func TestChordUnderLoss(t *testing.T) {
	n := 512
	ring := evenRing(t, n)
	eng := sim.NewEngine(n, sim.Options{Seed: 65, Loss: 0.05})
	values := agg.GenUniform(n, 0, 1000, 5)
	res, err := Run(eng, overlay.NewChord(ring), Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want %v under loss", res.Value, want)
	}
}

func TestChordRejectsCrashes(t *testing.T) {
	n := 256
	ring := evenRing(t, n)
	eng := sim.NewEngine(n, sim.Options{Seed: 66, CrashFrac: 0.2})
	values := agg.GenUniform(n, 0, 1, 6)
	if _, err := Run(eng, overlay.NewChord(ring), Max, values); err != ErrCrashedOverlay {
		t.Fatalf("crashed chord accepted: %v", err)
	}
}

func TestChordSizeMismatch(t *testing.T) {
	ring := evenRing(t, 128)
	eng := sim.NewEngine(64, sim.Options{Seed: 67})
	if _, err := Run(eng, overlay.NewChord(ring), Max, make([]float64, 64)); err == nil {
		t.Fatal("ring/engine size mismatch accepted")
	}
}

func BenchmarkMaxSparseChord(b *testing.B) {
	n := 1024
	ring := evenRing(b, n)
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := Run(eng, overlay.NewChord(ring), Max, values); err != nil {
			b.Fatal(err)
		}
	}
}

// testOverlays builds one overlay per registered sparse family sized for
// fast end-to-end runs.
func testOverlays(t testing.TB, n int, seed uint64) []overlay.Overlay {
	t.Helper()
	ovs := make([]overlay.Overlay, 0, 4)
	for _, spec := range []overlay.Spec{
		{Name: "chord"},
		{Name: "torus"},
		{Name: "regular", Param: 4},
		{Name: "hypercube"},
		{Name: "smallworld"},
	} {
		ov, err := overlay.Build(spec, n, seed)
		if err != nil {
			t.Fatalf("build %v: %v", spec, err)
		}
		ovs = append(ovs, ov)
	}
	return ovs
}

func TestSparsePipelineAcrossOverlays(t *testing.T) {
	n := 256
	values := agg.GenUniform(n, -500, 500, 9)
	wantMax := agg.Exact(agg.Max, values, 0)
	wantAve := agg.Exact(agg.Average, values, 0)
	wantSum := agg.Exact(agg.Sum, values, 0)
	for _, ov := range testOverlays(t, n, 3) {
		ov := ov
		t.Run(ov.Name(), func(t *testing.T) {
			mres, err := Run(sim.NewEngine(n, sim.Options{Seed: 101}), ov, Max, values)
			if err != nil {
				t.Fatal(err)
			}
			if mres.Value != wantMax || !mres.Consensus {
				t.Fatalf("Max = %v (consensus %v), want %v", mres.Value, mres.Consensus, wantMax)
			}
			nres, err := Run(sim.NewEngine(n, sim.Options{Seed: 102}), ov, Min, values)
			if err != nil {
				t.Fatal(err)
			}
			if want := agg.Exact(agg.Min, values, 0); nres.Value != want || !nres.Consensus {
				t.Fatalf("Min = %v, want %v", nres.Value, want)
			}
			ares, err := Run(sim.NewEngine(n, sim.Options{Seed: 103}), ov, Ave, values)
			if err != nil {
				t.Fatal(err)
			}
			if e := agg.RelError(ares.Value, wantAve); e > 1e-5 || !ares.Consensus {
				t.Fatalf("Ave = %v (rel err %v, consensus %v)", ares.Value, e, ares.Consensus)
			}
			sres, err := Run(sim.NewEngine(n, sim.Options{Seed: 104}), ov, Sum, values)
			if err != nil {
				t.Fatal(err)
			}
			if e := agg.RelError(sres.Value, wantSum); e > 1e-5 || !sres.Consensus {
				t.Fatalf("Sum = %v (rel err %v, consensus %v)", sres.Value, e, sres.Consensus)
			}
			cres, err := Run(sim.NewEngine(n, sim.Options{Seed: 105}), ov, Count, values)
			if err != nil {
				t.Fatal(err)
			}
			if e := agg.RelError(cres.Value, float64(n)); e > 1e-5 || !cres.Consensus {
				t.Fatalf("Count = %v (rel err %v)", cres.Value, e)
			}
		})
	}
}

func TestRankSparse(t *testing.T) {
	n := 256
	ov, err := overlay.Build(overlay.Spec{Name: "torus"}, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	values := agg.GenUniform(n, 0, 1000, 10)
	q := 400.0
	res, err := new(Workspace).Run(sim.NewEngine(n, sim.Options{Seed: 106}), ov, Lane{Kind: Rank, Values: values, Arg: q})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Rank, values, q)
	if agg.RelError(res[0].Value, want) > 1e-6 {
		t.Fatalf("Rank = %v, want %v", res[0].Value, want)
	}
}

func TestSumSparseUnderLoss(t *testing.T) {
	// Reliable routed shares must keep the distinguished-root Sum
	// accurate even with per-message loss.
	n := 256
	ov, err := overlay.Build(overlay.Spec{Name: "hypercube"}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := agg.GenUniform(n, 0, 100, 11)
	res, err := Run(sim.NewEngine(n, sim.Options{Seed: 107, Loss: 0.05}), ov, Sum, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Sum, values, 0)
	if e := agg.RelError(res.Value, want); e > 1e-3 {
		t.Fatalf("lossy Sum = %v, want %v (rel err %v)", res.Value, want, e)
	}
}

func TestSparseRejectsCrashedEngine(t *testing.T) {
	n := 128
	ov, err := overlay.Build(overlay.Spec{Name: "hypercube"}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 108, CrashFrac: 0.2})
	if _, err := Run(eng, ov, Max, make([]float64, n)); err != ErrCrashedOverlay {
		t.Fatalf("crashed engine accepted: %v", err)
	}
}

func TestSparseSizeMismatchOverlay(t *testing.T) {
	ov, err := overlay.Build(overlay.Spec{Name: "torus"}, 144, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(64, sim.Options{Seed: 109})
	if _, err := Run(eng, ov, Max, make([]float64, 64)); err == nil {
		t.Fatal("overlay/engine size mismatch accepted")
	}
}
