package pietro

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/sim"
)

func TestBootstrapBuildsStars(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 121})
	f, rootTo, err := Bootstrap(eng)
	if err != nil {
		t.Fatal(err)
	}
	if rootTo != nil {
		t.Fatal("the bootstrap announced root addresses")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.MaxHeight() > 1 {
		t.Fatalf("clusters are stars; height = %d", f.MaxHeight())
	}
	if f.NumMembers() != n {
		t.Fatalf("members = %d", f.NumMembers())
	}
	if eng.Stats().Messages == 0 {
		t.Fatal("no bootstrap traffic")
	}
}

func TestBootstrapCostIsNLogN(t *testing.T) {
	// The A3 point: the obvious bootstrap costs Θ(n log n) messages —
	// expected probes per non-head are 1/p = log n.
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 122})
	if _, _, err := Bootstrap(eng); err != nil {
		t.Fatal(err)
	}
	perNode := float64(eng.Stats().Messages) / float64(n)
	logn := math.Log2(float64(n))
	// Each successful probe costs ~2 messages (query + answer); failures 1.
	if perNode < logn/2 {
		t.Fatalf("bootstrap suspiciously cheap: %v messages/node", perNode)
	}
	if perNode > 4*logn {
		t.Fatalf("bootstrap too expensive: %v messages/node", perNode)
	}
}

func TestHeadCountNearNOverLogN(t *testing.T) {
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 123})
	f, _, err := Bootstrap(eng)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) / math.Log2(float64(n))
	got := float64(f.NumTrees())
	if got < want/3 || got > 3*want {
		t.Fatalf("heads = %v, want ~n/log n = %v", got, want)
	}
}

func TestMaxEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 124})
	values := agg.GenUniform(n, -50, 50, 1)
	res, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	if res.Value != want || !res.Consensus {
		t.Fatalf("Max = %v (consensus %v), want %v", res.Value, res.Consensus, want)
	}
}

func TestAveEndToEnd(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 125})
	values := agg.GenUniform(n, 0, 100, 2)
	res, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Ave, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Value, want); e > 1e-6 {
		t.Fatalf("Ave = %v, want %v", res.Value, want)
	}
}

func TestUnderLossAndCrashes(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 126, Loss: 0.1, CrashFrac: 0.1})
	values := agg.GenUniform(n, 0, 1000, 3)
	res, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Max, values)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, agg.Subset(values, eng.AliveIDs()), 0)
	if res.Value != want {
		t.Fatalf("Max = %v, want %v", res.Value, want)
	}
}

func TestBootstrapShareGrows(t *testing.T) {
	// The bootstrap costs Θ(n log n) while the rest is Θ(n): its share of
	// the total must be substantial and growing with n.
	share := func(n int) float64 {
		eng := sim.NewEngine(n, sim.Options{Seed: 127})
		values := agg.GenUniform(n, 0, 1, 4)
		if _, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Max, values); err != nil {
			t.Fatal(err)
		}
		return float64(eng.Billed(drrgossip.PhaseDRR).Messages) / float64(eng.Stats().Messages)
	}
	s1 := share(1024)
	s2 := share(16384)
	if s2 < 0.3 {
		t.Fatalf("bootstrap share %v at n=16k too small", s2)
	}
	if s2 <= s1-0.02 {
		t.Fatalf("bootstrap share shrank with n: %v -> %v", s1, s2)
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(16, sim.Options{Seed: 128})
	if _, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Max, make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkPietroMax(b *testing.B) {
	n := 4096
	values := agg.GenUniform(n, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := drrgossip.RunForest(eng, Bootstrap, drrgossip.Max, values); err != nil {
			b.Fatal(err)
		}
	}
}
