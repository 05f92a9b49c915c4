package karp

import (
	"math"
	"testing"

	"drrgossip/internal/sim"
)

func TestSpreadInformsAll(t *testing.T) {
	for _, n := range []int{256, 2048} {
		eng := sim.NewEngine(n, sim.Options{Seed: 111})
		res, err := Spread(eng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("n=%d: only %d/%d informed", n, res.Informed, n)
		}
		if res.RoundsToAllInformed < 0 {
			t.Fatal("RoundsToAllInformed not recorded")
		}
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 112})
	res, err := Spread(eng, 5)
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(float64(n))
	if float64(res.RoundsToAllInformed) > 6*logn {
		t.Fatalf("took %d rounds, > 6 log n", res.RoundsToAllInformed)
	}
}

func TestTransmissionsNLogLogN(t *testing.T) {
	// The Karp et al. contract: O(n log log n) transmissions. Check both
	// an absolute envelope (a small multiple of loglog n + the constant
	// tail) and the growth shape: quadrupling n from 4k to 16k must move
	// transmissions-per-node like loglog n (flat), not like log n (+2).
	perNode := func(n int) float64 {
		eng := sim.NewEngine(n, sim.Options{Seed: 113})
		res, err := Spread(eng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("n=%d: spread incomplete", n)
		}
		return float64(res.Transmissions) / float64(n)
	}
	p16 := perNode(16384)
	loglog := math.Log2(math.Log2(16384.0))
	if p16 > 4*(loglog+4) {
		t.Fatalf("transmissions per node %v above O(loglog n) envelope %v", p16, 4*(loglog+4))
	}
	p4 := perNode(4096)
	if p16-p4 > 1.5 {
		t.Fatalf("per-node transmissions grew by %v from n=4k to 16k; log-like, not loglog-like", p16-p4)
	}
}

func TestProtocolQuiesces(t *testing.T) {
	// With counters, all nodes eventually stop transmitting; the run must
	// end well before the round cap.
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 114})
	res, err := Spread(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds >= maxRounds(n, 0) {
		t.Fatalf("protocol did not quiesce: ran %d rounds", res.Rounds)
	}
}

func TestUnderLoss(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 115, Loss: 0.125})
	res, err := Spread(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("loss prevented full spread: %d/%d", res.Informed, n)
	}
}

func TestWithCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 116, CrashFrac: 0.25})
	src := eng.AliveIDs()[0]
	res, err := Spread(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("crashes prevented full spread: %d/%d alive", res.Informed, eng.NumAlive())
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(64, sim.Options{Seed: 117, CrashFrac: 0.5})
	if _, err := Spread(eng, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	var dead int
	for i := 0; i < 64; i++ {
		if !eng.Alive(i) {
			dead = i
			break
		}
	}
	if _, err := Spread(eng, dead); err == nil {
		t.Fatal("crashed source accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		eng := sim.NewEngine(512, sim.Options{Seed: 118})
		res, err := Spread(eng, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.Rounds != b.Rounds {
		t.Fatal("nondeterministic spread")
	}
}

func BenchmarkSpread(b *testing.B) {
	n := 4096
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		if _, err := Spread(eng, 0); err != nil {
			b.Fatal(err)
		}
	}
}
