package sim

import (
	"testing"
)

// driveEngine exercises every transport primitive and some membership
// churn, returning the final counters and a digest of what was delivered
// — enough state to distinguish any divergence between two engines.
func driveEngine(t *testing.T, e *Engine) (Counters, []int64) {
	t.Helper()
	n := e.N()
	var digest []int64
	for round := 0; round < 40; round++ {
		for i := 0; i < n; i++ {
			if !e.Alive(i) {
				continue
			}
			to := e.RNG(i).IntnOther(n, i)
			e.Send(i, to, Payload{X: int64(i)})
		}
		if round%3 == 0 {
			e.SendVia(0, 1%n, 2%n, Payload{Y: int64(round)})
			e.SendRouted(0, []int{1 % n, 2 % n, 3 % n}, Payload{Y: int64(round)})
			e.SendRoutedReliable(0, []int{3 % n, 1 % n}, Payload{})
		}
		if round == 10 {
			e.Crash(n / 2)
		}
		if round == 20 {
			e.Revive(n / 2)
		}
		var calls []Call
		for i := 0; i < n; i++ {
			if e.Alive(i) && i%2 == 0 {
				calls = append(calls, Call{From: i, To: e.RNG(i).IntnOther(n, i), Pay: Payload{A: float64(i)}})
			}
		}
		e.ResolveCalls(calls,
			func(callee, caller int, req Payload) (Payload, bool) { return Payload{A: req.A + 1}, true },
			func(caller int, resp Payload) { digest = append(digest, int64(resp.A)) })
		e.Tick()
		for i := 0; i < n; i++ {
			for _, m := range e.Inbox(i) {
				digest = append(digest, int64(m.From)<<32|int64(m.To)|m.Pay.X<<8)
			}
		}
		digest = append(digest, int64(len(e.AliveIDs())))
	}
	return e.Stats(), digest
}

// Reset must reproduce NewEngine bit-for-bit: same counters, same
// deliveries, same RNG streams, same loss decisions — even when the
// engine it reuses is dirty (mid-flight messages, crashed nodes, hooks,
// advanced RNGs) and even when the options change between runs.
func TestResetEquivalentToNewEngine(t *testing.T) {
	dirty := func(opts Options) *Engine {
		e := NewEngine(64, Options{Seed: 999, Loss: 0.3})
		e.SetRoundHook(func(int) {})
		e.SetLinkFault(func(int, int) float64 { return 0.5 })
		e.SetRoundObserver(func(int) {})
		e.SetPhase("dirty")
		driveEngine(t, e)
		e.Send(0, 1, Payload{})                        // leave a message in flight
		e.SendRouted(0, []int{1, 2, 3}, Payload{X: 7}) // and a routed one
		e.Reset(opts)
		return e
	}
	for _, opts := range []Options{
		{Seed: 5},
		{Seed: 6, Loss: 0.25},
		{Seed: 7, Loss: 0.1, CrashFrac: 0.2},
	} {
		fresh := NewEngine(64, opts)
		reused := dirty(opts)
		if got, want := reused.Phase(), fresh.Phase(); got != want {
			t.Fatalf("opts %+v: phase %q after Reset, want %q", opts, got, want)
		}
		if reused.Faulty() {
			t.Fatalf("opts %+v: hooks survived Reset", opts)
		}
		if !reused.PendingEmpty() {
			t.Fatalf("opts %+v: in-flight messages survived Reset", opts)
		}
		wantStats, wantDigest := driveEngine(t, fresh)
		gotStats, gotDigest := driveEngine(t, reused)
		if gotStats != wantStats {
			t.Fatalf("opts %+v: counters diverged:\n fresh %+v\n reset %+v", opts, wantStats, gotStats)
		}
		if len(gotDigest) != len(wantDigest) {
			t.Fatalf("opts %+v: digest length %d vs %d", opts, len(gotDigest), len(wantDigest))
		}
		for i := range wantDigest {
			if gotDigest[i] != wantDigest[i] {
				t.Fatalf("opts %+v: delivery digest diverged at %d", opts, i)
			}
		}
	}
}

// Messages in flight when Reset is called must never surface afterwards,
// including ones scheduled far ahead by long routed paths.
func TestResetDropsInFlightMessages(t *testing.T) {
	e := NewEngine(40, Options{Seed: 30})
	path := make([]int, 30) // schedules 30 rounds out: ring has grown
	for i := range path {
		path[i] = i + 1
	}
	e.SendRouted(0, path, Payload{X: 1})
	e.Send(0, 1, Payload{X: 2})
	if e.PendingEmpty() {
		t.Fatal("messages should be in flight")
	}
	e.Reset(Options{Seed: 30})
	if !e.PendingEmpty() {
		t.Fatal("PendingEmpty false after Reset")
	}
	for r := 0; r < 40; r++ {
		e.Tick()
		for i := 0; i < e.N(); i++ {
			if len(e.Inbox(i)) != 0 {
				t.Fatalf("round %d: message leaked across Reset to node %d", e.Round(), i)
			}
		}
	}
}

// A routed send over a path longer than the delivery ring must grow the
// ring and still deliver exactly at round + len(path), with messages
// already in flight keeping their schedules.
func TestRingGrowthPreservesSchedules(t *testing.T) {
	e := NewEngine(80, Options{Seed: 31})
	e.Send(0, 70, Payload{X: 100}) // due round 1
	shortPath := []int{1, 2, 3, 4, 5}
	e.SendRouted(0, shortPath, Payload{X: 200}) // due round 5
	longPath := make([]int, 50)                 // due round 50: forces growth past 16
	for i := range longPath {
		longPath[i] = i + 10
	}
	e.SendRouted(0, longPath, Payload{X: 300})
	arrivals := map[int]int64{}
	for r := 1; r <= 60; r++ {
		e.Tick()
		for i := 0; i < e.N(); i++ {
			for _, m := range e.Inbox(i) {
				arrivals[r] = m.Pay.X
				if i != m.To {
					t.Fatalf("misdelivered: %+v in inbox %d", m, i)
				}
			}
		}
	}
	want := map[int]int64{1: 100, len(shortPath): 200, len(longPath): 300}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
	for r, x := range want {
		if arrivals[r] != x {
			t.Fatalf("round %d delivered %d, want %d (all: %v)", r, arrivals[r], x, arrivals)
		}
	}
	if !e.PendingEmpty() {
		t.Fatal("ring not drained")
	}
}

// Growth in the middle of a busy schedule: messages due on many distinct
// future rounds must all survive the re-filing.
func TestRingGrowthMidSchedule(t *testing.T) {
	e := NewEngine(40, Options{Seed: 32})
	e.Tick() // put the current round off zero so slot arithmetic is exercised
	e.Tick()
	e.Tick()
	// Fill rounds current+1 .. current+12 via routed paths of each length.
	for l := 1; l <= 12; l++ {
		path := make([]int, l)
		for i := range path {
			path[i] = i + 1
		}
		e.SendRouted(0, path, Payload{X: int64(l)})
	}
	// Now a 33-hop path grows the ring from 16 to 64 slots.
	long := make([]int, 33)
	for i := range long {
		long[i] = i + 1
	}
	e.SendRouted(0, long, Payload{X: 99})
	got := map[int]int64{}
	start := e.Round()
	for e.Round() < start+40 {
		e.Tick()
		for _, m := range e.Inbox(e.N() - 1) {
			_ = m
		}
		for i := 0; i < e.N(); i++ {
			for _, m := range e.Inbox(i) {
				got[e.Round()-start] = m.Pay.X
			}
		}
	}
	for l := 1; l <= 12; l++ {
		if got[l] != int64(l) {
			t.Fatalf("delivery for %d-hop path at offset %d: got %v", l, l, got)
		}
	}
	if got[33] != 99 {
		t.Fatalf("post-growth delivery missing: %v", got)
	}
}

// The cached alive-ID list must track Crash/Revive exactly and stay
// identical to a fresh scan.
func TestAliveIDsCacheTracksMembership(t *testing.T) {
	e := NewEngine(50, Options{Seed: 33, CrashFrac: 0.3})
	check := func() {
		t.Helper()
		var want []int
		for i := 0; i < e.N(); i++ {
			if e.Alive(i) {
				want = append(want, i)
			}
		}
		got := e.AliveIDs()
		if len(got) != len(want) {
			t.Fatalf("AliveIDs len %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AliveIDs[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	check()
	e.Crash(7)
	check()
	e.Crash(7) // no-op must not corrupt the cache
	check()
	e.Revive(7)
	check()
	e.Reset(Options{Seed: 34})
	check()
	// Repeated calls between membership changes return the same backing
	// slice (the allocation-free fast path).
	a, b := e.AliveIDs(), e.AliveIDs()
	if &a[0] != &b[0] {
		t.Fatal("AliveIDs reallocated without a membership change")
	}
}

// Engine reuse must not allocate: after the first run has grown every
// buffer, a Reset-and-rerun cycle stays on recycled memory.
func TestResetReuseDoesNotGrowAllocations(t *testing.T) {
	e := NewEngine(256, Options{Seed: 35, Loss: 0.05})
	run := func() {
		for round := 0; round < 30; round++ {
			for i := 0; i < e.N(); i++ {
				e.Send(i, e.RNG(i).IntnOther(e.N(), i), Payload{})
			}
			e.Tick()
		}
	}
	run()
	e.Reset(Options{Seed: 35, Loss: 0.05})
	allocs := testing.AllocsPerRun(10, func() {
		e.Reset(Options{Seed: 35, Loss: 0.05})
		run()
	})
	// The budget is a handful of allocations (testing harness noise), not
	// the tens of thousands a per-run engine build would cost.
	if allocs > 8 {
		t.Fatalf("Reset+run allocates %v objects per cycle; the hot path must reuse buffers", allocs)
	}
}
