package oblivious

import (
	"math"
	"testing"
)

func TestPushPullCompletes(t *testing.T) {
	res, err := Run(1024, Options{Protocol: PushPull, Seed: 131})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsAll < 0 {
		t.Fatal("push-pull never completed")
	}
	if res.RoundsHalf < 0 || res.RoundsHalf > res.RoundsAll {
		t.Fatalf("half point %d inconsistent with all point %d", res.RoundsHalf, res.RoundsAll)
	}
	if res.MessagesHalf > res.MessagesAll {
		t.Fatal("message counters inconsistent")
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	for _, n := range []int{512, 4096} {
		res, err := Run(n, Options{Protocol: PushPull, Seed: 132})
		if err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(n))
		if float64(res.RoundsAll) > 4*logn {
			t.Fatalf("n=%d: %d rounds > 4 log n", n, res.RoundsAll)
		}
	}
}

func TestMessagesThetaNLogN(t *testing.T) {
	// The Theorem 15 criterion costs Θ(n log n) messages even for the
	// best oblivious protocol: messages per node must track log n (within
	// constants) and must GROW by ~Θ(1) per doubling of n.
	perNode := func(n int) float64 {
		res, err := Run(n, Options{Protocol: PushPull, Seed: 133})
		if err != nil {
			t.Fatal(err)
		}
		if res.RoundsHalf < 0 {
			t.Fatalf("n=%d never reached half criterion", n)
		}
		return float64(res.MessagesHalf) / float64(n)
	}
	p1 := perNode(1024)
	p2 := perNode(8192)
	logRatio := math.Log2(8192.0) / math.Log2(1024.0) // 1.3
	growth := p2 / p1
	if growth < 1.05 {
		t.Fatalf("messages/node flat (%v -> %v); expected log n growth", p1, p2)
	}
	if growth > 1.8*logRatio {
		t.Fatalf("messages/node grew %vx, far beyond log n shape", growth)
	}
	// Absolute envelope: within constants of n log n.
	if p2 < math.Log2(8192)/2 || p2 > 8*math.Log2(8192) {
		t.Fatalf("messages/node %v out of Θ(log n) envelope", p2)
	}
}

func TestPushSlowerThanPushPull(t *testing.T) {
	push, err := Run(1024, Options{Protocol: Push, Seed: 134})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Run(1024, Options{Protocol: PushPull, Seed: 134})
	if err != nil {
		t.Fatal(err)
	}
	if push.RoundsAll > 0 && pp.RoundsAll > 0 && push.RoundsAll < pp.RoundsAll {
		t.Fatalf("push (%d rounds) beat push-pull (%d rounds)", push.RoundsAll, pp.RoundsAll)
	}
}

func TestPullCompletes(t *testing.T) {
	res, err := Run(512, Options{Protocol: Pull, Seed: 135})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsAll < 0 {
		t.Fatal("pull never completed")
	}
}

func TestUnderLoss(t *testing.T) {
	res, err := Run(1024, Options{Protocol: PushPull, Seed: 136, Loss: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsAll < 0 {
		t.Fatal("push-pull under loss never completed")
	}
	lossless, err := Run(1024, Options{Protocol: PushPull, Seed: 136})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsAll < lossless.RoundsAll {
		t.Fatalf("loss accelerated completion: %d < %d", res.RoundsAll, lossless.RoundsAll)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(512, Options{Protocol: PushPull, Seed: 137})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(512, Options{Protocol: PushPull, Seed: 137})
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.RoundsAll != b.RoundsAll {
		t.Fatal("nondeterministic run")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(1, Options{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Run(10, Options{Loss: 1.0}); err == nil {
		t.Fatal("loss=1 accepted")
	}
	if _, err := Run(10, Options{Loss: math.NaN()}); err == nil {
		t.Fatal("loss=NaN accepted")
	}
}

func TestProtocolString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" || PushPull.String() != "push-pull" {
		t.Fatal("protocol names wrong")
	}
}

func BenchmarkPushPull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(2048, Options{Protocol: PushPull, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
