package sim

import "testing"

// Tests for the dynamic-membership extensions: mid-run Crash/Revive,
// delivery-time filtering, link faults and the round hook.

func TestCrashAndReviveMidRun(t *testing.T) {
	e := NewEngine(8, Options{Seed: 1})
	if e.NumAlive() != 8 {
		t.Fatalf("NumAlive = %d", e.NumAlive())
	}
	e.Crash(3)
	e.Crash(3) // idempotent
	if e.NumAlive() != 7 || e.Alive(3) {
		t.Fatalf("after Crash: alive=%d, Alive(3)=%v", e.NumAlive(), e.Alive(3))
	}
	if ids := e.AliveIDs(); len(ids) != 7 {
		t.Fatalf("AliveIDs = %v", ids)
	}
	e.Revive(3)
	e.Revive(3) // idempotent
	if e.NumAlive() != 8 || !e.Alive(3) {
		t.Fatalf("after Revive: alive=%d, Alive(3)=%v", e.NumAlive(), e.Alive(3))
	}
}

func TestCrashDiscardsInFlightMessages(t *testing.T) {
	e := NewEngine(4, Options{Seed: 2})
	e.Send(0, 1, Payload{X: 42})
	e.Send(0, 2, Payload{X: 43})
	e.Crash(1) // after send, before delivery
	e.Tick()
	if len(e.Inbox(1)) != 0 {
		t.Fatal("crashed node received an in-flight message")
	}
	if len(e.Inbox(2)) != 1 {
		t.Fatal("healthy delivery disturbed")
	}
	// A crashed sender stays silent; a crashed recipient receives nothing
	// even though the attempt is paid.
	before := e.Stats().Messages
	e.Send(1, 2, Payload{})
	if e.Stats().Messages != before {
		t.Fatal("crashed sender paid for a message")
	}
	e.Send(2, 1, Payload{})
	if e.Stats().Messages != before+1 {
		t.Fatal("send to crashed node not accounted")
	}
	e.Tick()
	if len(e.Inbox(1)) != 0 {
		t.Fatal("crashed node received")
	}
}

func TestReviveStartsWithEmptyInbox(t *testing.T) {
	e := NewEngine(4, Options{Seed: 3})
	e.Send(0, 1, Payload{})
	e.Crash(1)
	e.Tick() // message discarded here
	e.Revive(1)
	e.Tick()
	if len(e.Inbox(1)) != 0 {
		t.Fatal("revived node resurrected a discarded message")
	}
	e.Send(0, 1, Payload{})
	e.Tick()
	if len(e.Inbox(1)) != 1 {
		t.Fatal("revived node cannot receive")
	}
}

func TestLinkFaultSeversAndCounts(t *testing.T) {
	e := NewEngine(4, Options{Seed: 4})
	e.SetLinkFault(func(from, to int) float64 {
		if from == 0 && to == 1 {
			return 1
		}
		return 0
	})
	if !e.Faulty() {
		t.Fatal("Faulty() false with a link fault installed")
	}
	e.Send(0, 1, Payload{})
	e.Send(0, 2, Payload{})
	e.Send(1, 0, Payload{}) // reverse direction not severed by this predicate
	st := e.Stats()
	if st.Messages != 3 || st.Blocked != 1 || st.Drops != 1 {
		t.Fatalf("counters %+v, want 3 messages, 1 blocked, 1 drop", st)
	}
	e.Tick()
	if len(e.Inbox(1)) != 0 || len(e.Inbox(2)) != 1 || len(e.Inbox(0)) != 1 {
		t.Fatal("severed link delivered or healthy link blocked")
	}
	e.SetLinkFault(nil)
	if e.Faulty() {
		t.Fatal("Faulty() true after clearing hooks")
	}
	e.Send(0, 1, Payload{})
	e.Tick()
	if len(e.Inbox(1)) != 1 {
		t.Fatal("cleared link fault still blocks")
	}
}

func TestLinkFaultPartialLossCompounds(t *testing.T) {
	// A 0.5 extra link loss on a lossless engine must drop about half.
	e := NewEngine(2, Options{Seed: 5})
	e.SetLinkFault(func(from, to int) float64 { return 0.5 })
	const trials = 4000
	for i := 0; i < trials; i++ {
		e.Send(0, 1, Payload{})
	}
	frac := float64(e.Stats().Drops) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("extra-loss drop rate %.3f, want ≈ 0.5", frac)
	}
	if e.Stats().Blocked != 0 {
		t.Fatal("partial loss wrongly counted as blocked")
	}
}

func TestRoundHookRunsBeforeDelivery(t *testing.T) {
	e := NewEngine(4, Options{Seed: 6})
	var rounds []int
	e.SetRoundHook(func(r int) {
		rounds = append(rounds, r)
		if r == 1 {
			e.Crash(1)
		}
	})
	if !e.Faulty() {
		t.Fatal("Faulty() false with a round hook installed")
	}
	e.Send(0, 1, Payload{})
	e.Tick() // hook crashes node 1 at round 1, before delivery
	if len(e.Inbox(1)) != 0 {
		t.Fatal("hook-crashed node still got its round-1 delivery")
	}
	e.Tick()
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("hook rounds %v", rounds)
	}
}

func TestInitialCrashSetMatchesEngine(t *testing.T) {
	opts := Options{Seed: 7, CrashFrac: 0.3}
	e := NewEngine(200, opts)
	set := InitialCrashSet(200, opts)
	dead := map[int]bool{}
	for _, id := range set {
		dead[id] = true
	}
	for i := 0; i < 200; i++ {
		if e.Alive(i) == dead[i] {
			t.Fatalf("node %d: engine alive=%v, set dead=%v", i, e.Alive(i), dead[i])
		}
	}
	if got := InitialCrashSet(200, Options{Seed: 7}); got != nil {
		t.Fatalf("zero CrashFrac set = %v", got)
	}
	// The all-crashed guard: NewEngine keeps node 0, so the set must too.
	all := InitialCrashSet(5, Options{Seed: 8, CrashFrac: 1})
	for _, id := range all {
		if id == 0 {
			t.Fatal("InitialCrashSet with CrashFrac=1 includes the kept node 0")
		}
	}
	if len(all) != 4 {
		t.Fatalf("CrashFrac=1 set = %v", all)
	}
}

func TestCountersSubIncludesBlocked(t *testing.T) {
	a := Counters{Rounds: 5, Messages: 10, Drops: 4, Blocked: 2, Calls: 3}
	b := Counters{Rounds: 2, Messages: 4, Drops: 1, Blocked: 1, Calls: 1}
	d := a.Sub(b)
	if d.Blocked != 1 || d.Drops != 3 || d.Messages != 6 {
		t.Fatalf("Sub = %+v", d)
	}
}

// Bitset regression: the alive set's semantics under Crash/Revive must
// be exactly the pre-bitset []bool behaviour — idempotent transitions,
// NumAlive accounting, a sorted (and cache-invalidated) AliveIDs view,
// and delivery-time discarding of messages to dead nodes.
func TestAliveBitsetSemanticsUnderCrashRevive(t *testing.T) {
	const n = 70 // crosses a 64-bit word boundary
	e := NewEngine(n, Options{Seed: 3})
	if e.NumAlive() != n || !e.Alive(0) || !e.Alive(n-1) {
		t.Fatalf("fresh engine: NumAlive=%d", e.NumAlive())
	}
	e.Crash(63)
	e.Crash(64)
	e.Crash(64) // idempotent
	if e.NumAlive() != n-2 || e.Alive(63) || e.Alive(64) {
		t.Fatalf("after crashes: NumAlive=%d alive63=%v alive64=%v", e.NumAlive(), e.Alive(63), e.Alive(64))
	}
	ids := e.AliveIDs()
	if len(ids) != n-2 {
		t.Fatalf("AliveIDs len %d, want %d", len(ids), n-2)
	}
	for k := 1; k < len(ids); k++ {
		if ids[k] <= ids[k-1] {
			t.Fatal("AliveIDs not strictly increasing")
		}
	}
	for _, id := range ids {
		if id == 63 || id == 64 {
			t.Fatal("AliveIDs contains a crashed node")
		}
	}
	// Cache invalidation on Revive.
	e.Revive(64)
	e.Revive(64) // idempotent
	if e.NumAlive() != n-1 {
		t.Fatalf("after revive: NumAlive=%d", e.NumAlive())
	}
	found := false
	for _, id := range e.AliveIDs() {
		if id == 64 {
			found = true
		}
	}
	if !found {
		t.Fatal("AliveIDs cache not invalidated by Revive")
	}
	// A message in flight to a node that crashes before delivery is
	// discarded (but was paid for).
	e.Send(0, 10, Payload{Kind: 1})
	e.Crash(10)
	before := e.Stats().Messages
	e.Tick()
	if len(e.Inbox(10)) != 0 {
		t.Fatal("crashed node received a message")
	}
	if e.Stats().Messages != before {
		t.Fatal("Tick changed the message counter")
	}
	// Reset restores the full population.
	e.Reset(Options{Seed: 3})
	if e.NumAlive() != n || !e.Alive(10) || !e.Alive(63) {
		t.Fatalf("Reset did not restore the alive set: NumAlive=%d", e.NumAlive())
	}
	// The static crash model keeps at least one node alive even at
	// extreme CrashFrac, via InitialCrashSet's keep-one rule.
	e.Reset(Options{Seed: 5, CrashFrac: 0.999999})
	if e.NumAlive() < 1 {
		t.Fatal("keep-one-alive rule violated")
	}
	if ids := InitialCrashSet(n, Options{Seed: 5, CrashFrac: 0.999999}); len(ids) != n-e.NumAlive() {
		t.Fatalf("InitialCrashSet inconsistent with Reset: %d crashed, %d alive", len(ids), e.NumAlive())
	}
}
