package async

import (
	"math"
	"testing"

	"drrgossip/internal/faults"
	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// The heap's order must be total on (time, node, seq): equal timestamps
// dispatch by node id, and a node's co-timed events (impossible under
// exponential clocks, but the heap must not care) by schedule order.
func TestHeapTieBreak(t *testing.T) {
	var h eventHeap
	in := []event{
		{at: 2.0, node: 1, seq: 5},
		{at: 1.0, node: 3, seq: 2},
		{at: 1.0, node: 0, seq: 7},
		{at: 1.0, node: 3, seq: 9},
		{at: 0.5, node: 9, seq: 1},
		{at: 1.0, node: 3, seq: 4},
	}
	for _, ev := range in {
		h.push(ev)
	}
	want := []event{
		{at: 0.5, node: 9, seq: 1},
		{at: 1.0, node: 0, seq: 7},
		{at: 1.0, node: 3, seq: 2},
		{at: 1.0, node: 3, seq: 4},
		{at: 1.0, node: 3, seq: 9},
		{at: 2.0, node: 1, seq: 5},
	}
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d: got %+v, want %+v", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

// Randomized heap order check: pops must come out sorted under before()
// for any push order, including bursts of duplicate timestamps.
func TestHeapTotalOrder(t *testing.T) {
	rng := xrand.Derive(0xA5, 0x7E57)
	var h eventHeap
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		// Coarse timestamps force many exact ties.
		at := float64(rng.Intn(50)) / 8
		h.push(event{at: at, node: int32(rng.Intn(7)), seq: uint64(i)})
	}
	prev := h.pop()
	for h.len() > 0 {
		cur := h.pop()
		if cur.before(prev) {
			t.Fatalf("heap order violated: %+v popped after %+v", cur, prev)
		}
		prev = cur
	}
}

// Crashing a node must not change anyone's clock draws: the dispatched
// (time, node) sequence is identical with and without the crash, the
// dead node's ticks are reported not-alive, and a revived node resumes
// on its own next tick.
func TestCrashKeepsClockSequence(t *testing.T) {
	const n, events = 8, 400
	type tick struct {
		at   float64
		node int
	}
	run := func(crash bool) ([]tick, []bool) {
		e := NewEngine(n, sim.Options{Seed: 21})
		ticks := make([]tick, 0, events)
		alives := make([]bool, 0, events)
		for i := 0; i < events; i++ {
			if crash && i == 50 {
				e.Crash(2)
			}
			if crash && i == 300 {
				e.Revive(2)
			}
			node, alive, ok := e.Step()
			if !ok {
				t.Fatal("ran out of events")
			}
			ticks = append(ticks, tick{at: e.Now(), node: node})
			alives = append(alives, alive)
		}
		return ticks, alives
	}
	healthyTicks, healthyAlive := run(false)
	faultyTicks, faultyAlive := run(true)
	crashedSeen, revivedSeen := false, false
	for i := range healthyTicks {
		if healthyTicks[i] != faultyTicks[i] {
			t.Fatalf("tick %d diverged: healthy %+v faulty %+v", i, healthyTicks[i], faultyTicks[i])
		}
		if !healthyAlive[i] {
			t.Fatalf("tick %d: healthy run reported a dead node", i)
		}
		if faultyTicks[i].node == 2 {
			if i >= 50 && i < 300 {
				if faultyAlive[i] {
					t.Fatalf("tick %d: crashed node reported alive", i)
				}
				crashedSeen = true
			} else if i >= 300 {
				if !faultyAlive[i] {
					t.Fatalf("tick %d: revived node reported dead", i)
				}
				revivedSeen = true
			}
		}
	}
	if !crashedSeen || !revivedSeen {
		t.Fatalf("crash window not exercised: crashed=%v revived=%v (raise events?)", crashedSeen, revivedSeen)
	}
}

// Exchange billing: every attempt is 2 messages on success, and a dead
// partner fails the handshake after the request leg (1 message).
func TestExchangeBilling(t *testing.T) {
	e := NewEngine(4, sim.Options{Seed: 31})
	if !e.Exchange(0, 1) {
		t.Fatal("lossless exchange failed")
	}
	st := e.Stats()
	if st.Messages != 2 || st.Calls != 1 || st.Drops != 0 {
		t.Fatalf("lossless exchange billed %+v", st)
	}
	e.Crash(1)
	if e.Exchange(0, 1) {
		t.Fatal("exchange with dead partner succeeded")
	}
	st = e.Stats()
	if st.Messages != 3 || st.Calls != 2 {
		t.Fatalf("dead-partner exchange billed %+v", st)
	}
}

// Simultaneous fault ticks: a hook keyed at tick k fires exactly once,
// in order, before the event that crossed the boundary — even when one
// event crosses several boundaries at once (slow clocks, fine ticks).
func TestFaultTickMonotone(t *testing.T) {
	// At n=1 consecutive events are ~1 time unit apart, so each one
	// crosses ~TicksPerUnit boundaries.
	e := NewEngine(1, sim.Options{Seed: 41})
	var ticks []int
	e.SetRoundHook(func(tick int) { ticks = append(ticks, tick) })
	for i := 0; i < 3; i++ {
		if _, _, ok := e.Step(); !ok {
			t.Fatal("ran out of events")
		}
	}
	if len(ticks) == 0 {
		t.Fatal("no fault ticks fired")
	}
	for i, k := range ticks {
		if k != i+1 {
			t.Fatalf("tick sequence has gaps or repeats: %v", ticks[:i+1])
		}
	}
	if want := int(e.Now() * TicksPerUnit); ticks[len(ticks)-1] != want {
		t.Fatalf("last tick %d, want floor(now*%d) = %d", ticks[len(ticks)-1], TicksPerUnit, want)
	}
}

// Fault-plan parity: one faults.Plan spec, bound once per engine with
// the same horizon, must replay the identical crash/revive sequence on
// the synchronous engine (hook = rounds) and the asynchronous engine
// (hook = fault ticks) — the whole point of the Host interface. The
// async transition schedule is additionally pinned as a golden: the
// plan's timing arithmetic must not drift silently.
func TestFaultPlanParity(t *testing.T) {
	const n, horizon = 16, 2048
	plan, err := faults.Parse("crash:0.25@0.5;rejoin@0.75")
	if err != nil {
		t.Fatal(err)
	}

	type transition struct {
		when  int // sync: round; async: fault tick
		node  int
		alive bool
	}

	// Synchronous replay: drive a bare engine Tick by Tick.
	syncEng := sim.NewEngine(n, sim.Options{Seed: 7})
	var syncTrans []transition
	syncRound := 0
	syncEng.SetMembershipObserver(func(node int, alive bool) {
		syncTrans = append(syncTrans, transition{when: syncRound, node: node, alive: alive})
	})
	sb, err := plan.Bind(n, 7, horizon)
	if err != nil {
		t.Fatal(err)
	}
	sr := sb.Attach(syncEng)
	for syncRound = 1; syncRound <= horizon; syncRound++ {
		syncEng.Tick()
	}

	// Asynchronous replay: same plan, same seed, same horizon read in
	// fault ticks; run past horizon/TicksPerUnit time units.
	asyncEng := NewEngine(n, sim.Options{Seed: 7})
	var asyncTrans []transition
	asyncEng.SetMembershipObserver(func(node int, alive bool) {
		asyncTrans = append(asyncTrans, transition{when: asyncEng.tick, node: node, alive: alive})
	})
	ab, err := plan.Bind(n, 7, horizon)
	if err != nil {
		t.Fatal(err)
	}
	ar := ab.Attach(asyncEng)
	for asyncEng.Now() < float64(horizon)/TicksPerUnit+1 {
		if _, _, ok := asyncEng.Step(); !ok {
			t.Fatal("ran out of events")
		}
	}

	if len(syncTrans) == 0 {
		t.Fatal("plan fired no transitions")
	}
	if len(asyncTrans) != len(syncTrans) {
		t.Fatalf("transition counts diverged: sync %d async %d", len(syncTrans), len(asyncTrans))
	}
	for i := range syncTrans {
		if syncTrans[i] != asyncTrans[i] {
			t.Fatalf("transition %d diverged: sync %+v async %+v", i, syncTrans[i], asyncTrans[i])
		}
	}
	if ar.Fired() != sr.Fired() || ar.Crashed() != sr.Crashed() || ar.Revived() != sr.Revived() {
		t.Fatalf("bound accounting diverged: sync fired=%d c=%d r=%d, async fired=%d c=%d r=%d",
			sr.Fired(), sr.Crashed(), sr.Revived(), ar.Fired(), ar.Crashed(), ar.Revived())
	}

	// Golden pin: crash:0.25 at the 50% mark of a 2048-tick horizon takes
	// 4 of 16 nodes down at tick 1024; rejoin@0.75 brings them back at
	// tick 1536. The node choice is the plan's selection stream on seed 7.
	want := []transition{
		{1024, 8, false}, {1024, 9, false}, {1024, 12, false}, {1024, 13, false},
		{1536, 8, true}, {1536, 9, true}, {1536, 12, true}, {1536, 13, true},
	}
	if len(asyncTrans) != len(want) {
		t.Fatalf("golden length drifted: got %d transitions %+v", len(asyncTrans), asyncTrans)
	}
	for i := range want {
		if asyncTrans[i] != want[i] {
			t.Fatalf("golden transition %d drifted: got %+v want %+v (full: %+v)",
				i, asyncTrans[i], want[i], asyncTrans)
		}
	}
}

// Loss decisions hash the transmission sequence number, so the drop
// pattern is reproducible and loss actually bites at the configured
// rate.
func TestLossDeterministic(t *testing.T) {
	run := func() (sim.Counters, int) {
		e := NewEngine(64, sim.Options{Seed: 51, Loss: 0.3})
		okCount := 0
		for i := 0; i < 500; i++ {
			u := i % 64
			if e.Exchange(u, (u+1)%64) {
				okCount++
			}
		}
		return e.Stats(), okCount
	}
	st1, ok1 := run()
	st2, ok2 := run()
	if st1 != st2 || ok1 != ok2 {
		t.Fatalf("loss pattern not reproducible: %+v/%d vs %+v/%d", st1, ok1, st2, ok2)
	}
	if st1.Drops == 0 || ok1 == 0 || ok1 == 500 {
		t.Fatalf("loss rate implausible: %d/500 exchanges, %d drops", ok1, st1.Drops)
	}
	// At δ=0.3 per leg, an exchange commits with probability ~0.49.
	if frac := float64(ok1) / 500; math.Abs(frac-0.49) > 0.1 {
		t.Fatalf("commit fraction %.2f far from (1-δ)² = 0.49", frac)
	}
}

// The initial crash set must match the synchronous engine's for the
// same (n, Seed, CrashFrac) — sync and async answers describe the same
// surviving population.
func TestInitialCrashParity(t *testing.T) {
	const n = 128
	opts := sim.Options{Seed: 61, CrashFrac: 0.2}
	syncEng := sim.NewEngine(n, opts)
	asyncEng := NewEngine(n, sim.Options{Seed: 61, CrashFrac: 0.2})
	if syncEng.NumAlive() != asyncEng.NumAlive() {
		t.Fatalf("alive counts diverged: sync %d async %d", syncEng.NumAlive(), asyncEng.NumAlive())
	}
	for i := 0; i < n; i++ {
		if syncEng.Alive(i) != asyncEng.Alive(i) {
			t.Fatalf("node %d: sync alive=%v async alive=%v", i, syncEng.Alive(i), asyncEng.Alive(i))
		}
	}
}
