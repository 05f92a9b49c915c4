package faults

import (
	"sync"
	"testing"

	"drrgossip/internal/sim"
)

// A Bound can drive a sequence of engines, and several at once: each
// Attach starts a fresh replay of the identical schedule, so the session
// facade can bind a plan once and reuse it across protocol runs and
// RunAll workers.
func TestBoundReattachReplaysSchedule(t *testing.T) {
	const n = 64
	p, err := Parse("crash:0.25@4r..12r;loss:0.3@2r..20r")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(n, 7, 0)
	if err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		fired, crashed, revived int
		aliveMid, aliveEnd      int
		drops                   int64
	}
	run := func() snapshot {
		eng := sim.NewEngine(n, sim.Options{Seed: 7})
		rp := b.Attach(eng)
		var s snapshot
		for r := 1; r <= 24; r++ {
			// Traffic through the loss-burst window so drops accrue.
			for i := 0; i < n; i++ {
				eng.Send(i, (i+1)%n, sim.Payload{})
			}
			eng.Tick()
			if r == 8 {
				s.aliveMid = eng.NumAlive()
			}
		}
		s.fired, s.crashed, s.revived = rp.Fired(), rp.Crashed(), rp.Revived()
		s.aliveEnd = eng.NumAlive()
		s.drops = eng.Stats().Drops
		return s
	}

	first := run()
	if first.crashed == 0 || first.revived == 0 || first.aliveMid >= n || first.aliveEnd != n {
		t.Fatalf("plan did not exercise crash+rejoin: %+v", first)
	}
	second := run()
	if first != second {
		t.Fatalf("re-attached Bound diverged:\n first  %+v\n second %+v", first, second)
	}
	// The Bound is immutable, so concurrent runs may share it.
	var wg sync.WaitGroup
	shared := make([]snapshot, 4)
	for i := range shared {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared[i] = run()
		}(i)
	}
	wg.Wait()
	for i, s := range shared {
		if s != first {
			t.Fatalf("concurrent replay %d diverged:\n first  %+v\n got    %+v", i, first, s)
		}
	}
}
