package sim

import (
	"math"
	"testing"
	"unsafe"
)

func TestSendDeliversNextTick(t *testing.T) {
	e := NewEngine(4, Options{Seed: 1})
	e.Send(0, 2, Payload{Kind: 7, A: 3.5})
	if got := len(e.Inbox(2)); got != 0 {
		t.Fatalf("message visible before Tick: %d", got)
	}
	e.Tick()
	in := e.Inbox(2)
	if len(in) != 1 || in[0].From != 0 || in[0].Pay.Kind != 7 || in[0].Pay.A != 3.5 {
		t.Fatalf("bad delivery: %+v", in)
	}
	e.Tick()
	if len(e.Inbox(2)) != 0 {
		t.Fatal("message redelivered on second Tick")
	}
	if e.Stats().Messages != 1 {
		t.Fatalf("Messages = %d, want 1", e.Stats().Messages)
	}
}

func TestSendViaCostsTwoMessages(t *testing.T) {
	e := NewEngine(5, Options{Seed: 2})
	e.SendVia(0, 3, 4, Payload{X: 9})
	if e.Stats().Messages != 2 {
		t.Fatalf("Messages = %d, want 2", e.Stats().Messages)
	}
	e.Tick()
	in := e.Inbox(4)
	if len(in) != 1 || in[0].Pay.X != 9 {
		t.Fatalf("relay delivery failed: %+v", in)
	}
	if len(e.Inbox(3)) != 0 {
		t.Fatal("relay node should not keep the message")
	}
}

func TestSendViaSelfRelay(t *testing.T) {
	e := NewEngine(3, Options{Seed: 3})
	e.SendVia(0, 2, 2, Payload{})
	if e.Stats().Messages != 1 {
		t.Fatalf("Messages = %d, want 1 when relay==dst", e.Stats().Messages)
	}
	e.Tick()
	if len(e.Inbox(2)) != 1 {
		t.Fatal("self-relay message not delivered")
	}
}

func TestSendRoutedTiming(t *testing.T) {
	e := NewEngine(6, Options{Seed: 4})
	path := []int{1, 2, 3}
	e.SendRouted(0, path, Payload{Y: 11})
	if e.Stats().Messages != 3 {
		t.Fatalf("Messages = %d, want 3", e.Stats().Messages)
	}
	for r := 0; r < 2; r++ {
		e.Tick()
		if len(e.Inbox(3)) != 0 {
			t.Fatalf("routed message arrived early at round %d", e.Round())
		}
	}
	e.Tick()
	in := e.Inbox(3)
	if len(in) != 1 || in[0].Pay.Y != 11 || in[0].From != 0 {
		t.Fatalf("routed delivery wrong: %+v", in)
	}
	if !e.PendingEmpty() {
		t.Fatal("pending queue not drained")
	}
}

func TestLossZeroNeverDrops(t *testing.T) {
	e := NewEngine(10, Options{Seed: 5, Loss: 0})
	for i := 0; i < 1000; i++ {
		e.Send(0, 1, Payload{})
	}
	if e.Stats().Drops != 0 {
		t.Fatalf("Drops = %d with Loss=0", e.Stats().Drops)
	}
	e.Tick()
	if len(e.Inbox(1)) != 1000 {
		t.Fatalf("delivered %d/1000", len(e.Inbox(1)))
	}
}

func TestLossRateApproximate(t *testing.T) {
	e := NewEngine(2, Options{Seed: 6, Loss: 0.25})
	const n = 20000
	for i := 0; i < n; i++ {
		e.Send(0, 1, Payload{})
	}
	drops := float64(e.Stats().Drops)
	if drops < 0.2*n || drops > 0.3*n {
		t.Fatalf("drop rate %v, want ~0.25", drops/n)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() (int64, int) {
		e := NewEngine(2, Options{Seed: 7, Loss: 0.5})
		for i := 0; i < 500; i++ {
			e.Send(0, 1, Payload{})
		}
		e.Tick()
		return e.Stats().Drops, len(e.Inbox(1))
	}
	d1, g1 := run()
	d2, g2 := run()
	if d1 != d2 || g1 != g2 {
		t.Fatalf("loss not deterministic: (%d,%d) vs (%d,%d)", d1, g1, d2, g2)
	}
}

func TestResolveCalls(t *testing.T) {
	e := NewEngine(4, Options{Seed: 8})
	calls := []Call{{From: 1, To: 3, Pay: Payload{A: 5}}, {From: 2, To: 3, Pay: Payload{A: 6}}}
	var handled []int
	var replies []float64
	e.ResolveCalls(calls,
		func(callee, caller int, req Payload) (Payload, bool) {
			if callee != 3 {
				t.Fatalf("unexpected callee %d", callee)
			}
			handled = append(handled, caller)
			return Payload{A: req.A * 10}, true
		},
		func(caller int, resp Payload) {
			replies = append(replies, resp.A)
		})
	if len(handled) != 2 || handled[0] != 1 || handled[1] != 2 {
		t.Fatalf("handled order %v", handled)
	}
	if len(replies) != 2 || replies[0] != 50 || replies[1] != 60 {
		t.Fatalf("replies %v", replies)
	}
	if e.Stats().Calls != 2 || e.Stats().Messages != 4 {
		t.Fatalf("stats %+v", e.Stats())
	}
}

func TestResolveCallsNoReply(t *testing.T) {
	e := NewEngine(2, Options{Seed: 9})
	calls := []Call{{From: 0, To: 1}}
	e.ResolveCalls(calls,
		func(callee, caller int, req Payload) (Payload, bool) { return Payload{}, false },
		func(caller int, resp Payload) { t.Fatal("unexpected reply") })
	if e.Stats().Messages != 1 {
		t.Fatalf("Messages = %d, want 1 for unanswered call", e.Stats().Messages)
	}
}

func TestCrashFraction(t *testing.T) {
	e := NewEngine(10000, Options{Seed: 10, CrashFrac: 0.2})
	alive := e.NumAlive()
	if alive < 7500 || alive > 8500 {
		t.Fatalf("alive = %d with CrashFrac 0.2", alive)
	}
	if got := len(e.AliveIDs()); got != alive {
		t.Fatalf("AliveIDs len %d != NumAlive %d", got, alive)
	}
	// Crashed nodes never receive.
	var dead int
	for i := 0; i < e.N(); i++ {
		if !e.Alive(i) {
			dead = i
			break
		}
	}
	e.Send(0, dead, Payload{})
	e.Tick()
	if len(e.Inbox(dead)) != 0 {
		t.Fatal("crashed node received a message")
	}
	if e.Stats().Messages != 1 {
		t.Fatal("send to crashed node must still count as a message")
	}
}

func TestCrashedSenderSilent(t *testing.T) {
	e := NewEngine(100, Options{Seed: 11, CrashFrac: 0.5})
	var dead int
	for i := 0; i < e.N(); i++ {
		if !e.Alive(i) {
			dead = i
			break
		}
	}
	e.Send(dead, 0, Payload{})
	e.SendVia(dead, 1, 2, Payload{})
	e.SendRouted(dead, []int{1, 2}, Payload{})
	if e.Stats().Messages != 0 {
		t.Fatal("crashed sender generated traffic")
	}
}

func TestCrashSetDeterministic(t *testing.T) {
	a := NewEngine(1000, Options{Seed: 12, CrashFrac: 0.3})
	b := NewEngine(1000, Options{Seed: 12, CrashFrac: 0.3})
	for i := 0; i < 1000; i++ {
		if a.Alive(i) != b.Alive(i) {
			t.Fatalf("crash set differs at node %d", i)
		}
	}
}

func TestAllCrashedKeepsOne(t *testing.T) {
	e := NewEngine(5, Options{Seed: 13, CrashFrac: 0.9999999})
	if e.NumAlive() < 1 {
		t.Fatal("engine must keep at least one node alive")
	}
}

func TestRNGPerNodeIndependentAndStable(t *testing.T) {
	e1 := NewEngine(4, Options{Seed: 14})
	e2 := NewEngine(4, Options{Seed: 14})
	if e1.RNG(2).Uint64() != e2.RNG(2).Uint64() {
		t.Fatal("per-node RNG not seed-stable")
	}
	if e1.RNG(0).Uint64() == e1.RNG(1).Uint64() {
		t.Fatal("distinct nodes share RNG output")
	}
	// Same stream on repeated calls.
	r := e1.RNG(3)
	if r != e1.RNG(3) {
		t.Fatal("RNG(i) must return a stable stream")
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{Rounds: 10, Messages: 100, Drops: 5, Calls: 20}
	b := Counters{Rounds: 4, Messages: 30, Drops: 1, Calls: 8}
	d := a.Sub(b)
	if d.Rounds != 6 || d.Messages != 70 || d.Drops != 4 || d.Calls != 12 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestEngineValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEngine(0, Options{}) },
		func() { NewEngine(3, Options{Loss: 1.0}) },
		func() { NewEngine(3, Options{Loss: -0.1}) },
		func() { NewEngine(3, Options{Loss: math.NaN()}) },
		func() {
			e := NewEngine(3, Options{})
			e.ResolveCalls(make([]Call, 2), nil, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid configuration did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRoutedLossStopsForwarding(t *testing.T) {
	// With very high loss almost all routed sends die mid-path; the ones
	// that die must not be delivered and must count only traversed hops.
	e := NewEngine(4, Options{Seed: 15, Loss: 0.9})
	for i := 0; i < 200; i++ {
		e.SendRouted(0, []int{1, 2, 3}, Payload{})
	}
	delivered := 0
	for r := 0; r < 5; r++ {
		e.Tick()
		delivered += len(e.Inbox(3))
	}
	msgs := e.Stats().Messages
	if msgs >= 600 {
		t.Fatalf("all hops counted (%d) despite loss", msgs)
	}
	// P(survive 3 hops) = 0.001: expect ~0.2 deliveries in 200 tries.
	if delivered > 10 {
		t.Fatalf("delivered %d routed messages at loss 0.9", delivered)
	}
}

func BenchmarkSendTick(b *testing.B) {
	e := NewEngine(1024, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Send(i%1024, (i+1)%1024, Payload{})
		if i%1024 == 1023 {
			e.Tick()
		}
	}
}

func TestCharge(t *testing.T) {
	e := NewEngine(2, Options{Seed: 20})
	e.Charge(5)
	if e.Stats().Messages != 5 {
		t.Fatalf("Charge not accounted: %d", e.Stats().Messages)
	}
	if e.Stats().Drops != 0 {
		t.Fatal("Charge must not count drops")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Charge did not panic")
		}
	}()
	e.Charge(-1)
}

func TestPayloadRoundTripsAllFields(t *testing.T) {
	e := NewEngine(2, Options{Seed: 21})
	in := Payload{Kind: 9, A: 1.5, B: -2.5, C: 3.25, X: -7, Y: 11}
	e.Send(0, 1, in)
	e.Tick()
	got := e.Inbox(1)
	if len(got) != 1 || got[0].Pay != in {
		t.Fatalf("payload mangled: %+v", got)
	}
}

func TestInterleavedRoutedAndDirect(t *testing.T) {
	// A routed message (3 hops) and direct messages sent on consecutive
	// rounds must arrive at their own schedules without interference.
	e := NewEngine(5, Options{Seed: 22})
	e.SendRouted(0, []int{1, 2, 4}, Payload{X: 100})
	e.Send(0, 4, Payload{X: 200})
	e.Tick() // round 1: direct arrives
	in := e.Inbox(4)
	if len(in) != 1 || in[0].Pay.X != 200 {
		t.Fatalf("round 1 inbox: %+v", in)
	}
	e.Send(3, 4, Payload{X: 300})
	e.Tick() // round 2: second direct arrives
	in = e.Inbox(4)
	if len(in) != 1 || in[0].Pay.X != 300 {
		t.Fatalf("round 2 inbox: %+v", in)
	}
	e.Tick() // round 3: routed arrives
	in = e.Inbox(4)
	if len(in) != 1 || in[0].Pay.X != 100 {
		t.Fatalf("round 3 inbox: %+v", in)
	}
}

func TestManySendersOneReceiverOrdering(t *testing.T) {
	// Delivery order within a round follows send order (deterministic).
	e := NewEngine(8, Options{Seed: 23})
	for i := 1; i < 8; i++ {
		e.Send(i, 0, Payload{X: int64(i)})
	}
	e.Tick()
	in := e.Inbox(0)
	if len(in) != 7 {
		t.Fatalf("delivered %d of 7", len(in))
	}
	for k, m := range in {
		if m.Pay.X != int64(k+1) {
			t.Fatalf("delivery order broken at %d: %+v", k, in)
		}
	}
}

func TestCallToSelfCounts(t *testing.T) {
	// Protocols avoid self-calls, but the engine must handle them
	// gracefully if one occurs.
	e := NewEngine(2, Options{Seed: 24})
	calls := []Call{{From: 0, To: 0, Pay: Payload{A: 1}}}
	got := 0.0
	e.ResolveCalls(calls,
		func(callee, caller int, req Payload) (Payload, bool) {
			return Payload{A: req.A * 2}, true
		},
		func(caller int, resp Payload) { got = resp.A })
	if got != 2 {
		t.Fatalf("self-call reply = %v", got)
	}
	if e.Stats().Messages != 2 {
		t.Fatalf("self-call messages = %d", e.Stats().Messages)
	}
}

func TestSendViaToCrashedRelay(t *testing.T) {
	e := NewEngine(100, Options{Seed: 25, CrashFrac: 0.5})
	var dead, alive int = -1, -1
	for i := 1; i < 100; i++ {
		if !e.Alive(i) && dead < 0 {
			dead = i
		}
		if e.Alive(i) && alive < 0 {
			alive = i
		}
	}
	var src int = -1
	for i := 0; i < 100; i++ {
		if e.Alive(i) {
			src = i
			break
		}
	}
	before := e.Stats().Messages
	e.SendVia(src, dead, alive, Payload{})
	// First hop counted, second not attempted (relay dead).
	if e.Stats().Messages != before+1 {
		t.Fatalf("messages = %d, want %d", e.Stats().Messages, before+1)
	}
	e.Tick()
	if len(e.Inbox(alive)) != 0 {
		t.Fatal("message survived a dead relay")
	}
}

func TestPayloadStaysBounded(t *testing.T) {
	// §2 of the paper bounds message length to O(log n + log s) bits; the
	// simulator enforces it structurally with a fixed-size payload. Guard
	// against accidental growth (5 words of content + kind, padded).
	if sz := unsafe.Sizeof(Payload{}); sz > 48 {
		t.Fatalf("Payload grew to %d bytes; the bounded-message discipline caps it at 48", sz)
	}
}

func TestSendRoutedEmptyPath(t *testing.T) {
	e := NewEngine(4, Options{Seed: 41})
	e.SendRouted(0, nil, Payload{})
	e.SendRouted(0, []int{}, Payload{})
	if e.Stats().Messages != 0 {
		t.Fatalf("empty-path SendRouted cost %d messages, want 0", e.Stats().Messages)
	}
	e.Tick()
	for i := 0; i < 4; i++ {
		if len(e.Inbox(i)) != 0 {
			t.Fatalf("empty-path SendRouted delivered to %d", i)
		}
	}
}

func TestSendRoutedDeadRelayAccounting(t *testing.T) {
	// A crashed mid-path relay consumes the hops up to and including the
	// attempt that reaches it; the remaining hops are never transmitted
	// and nothing is delivered.
	e := NewEngine(100, Options{Seed: 42, CrashFrac: 0.3})
	var dead int
	for i := 1; i < e.N(); i++ {
		if !e.Alive(i) {
			dead = i
			break
		}
	}
	var alive []int
	for i := 0; i < e.N() && len(alive) < 4; i++ {
		if e.Alive(i) && i != dead {
			alive = append(alive, i)
		}
	}
	path := []int{alive[1], dead, alive[2], alive[3]}
	e.SendRouted(alive[0], path, Payload{})
	if got := e.Stats().Messages; got != 2 {
		t.Fatalf("dead-relay SendRouted cost %d messages, want 2 (alive hop + dead hop)", got)
	}
	if e.Stats().Drops != 0 {
		t.Fatal("dead relay must not count as a link drop")
	}
	for r := 0; r < len(path)+1; r++ {
		e.Tick()
		if len(e.Inbox(alive[3])) != 0 {
			t.Fatal("message past a dead relay was delivered")
		}
	}
}

func TestSendRoutedLossAccounting(t *testing.T) {
	// Under certain loss every hop attempt is paid for until the first
	// drop; summed over many paths, messages - drops = successful hops.
	e := NewEngine(8, Options{Seed: 43, Loss: 0.5})
	const trials = 200
	for i := 0; i < trials; i++ {
		e.SendRouted(0, []int{1, 2, 3}, Payload{})
	}
	st := e.Stats()
	if st.Drops == 0 || st.Drops == st.Messages {
		t.Fatalf("expected a mix of drops and successes, got %+v", st)
	}
	if st.Messages > 3*trials || st.Messages < trials {
		t.Fatalf("messages %d out of range for %d 3-hop sends", st.Messages, trials)
	}
}

func TestSendViaRelayEqualsDstLossAccounting(t *testing.T) {
	// relay == dst degenerates to a single hop: exactly one attempt is
	// paid per send, so drops can never exceed sends.
	e := NewEngine(3, Options{Seed: 44, Loss: 0.4})
	const trials = 300
	for i := 0; i < trials; i++ {
		e.SendVia(0, 2, 2, Payload{})
	}
	st := e.Stats()
	if st.Messages != trials {
		t.Fatalf("relay==dst sends cost %d messages, want %d (one hop each)", st.Messages, trials)
	}
	if st.Drops == 0 || st.Drops >= st.Messages {
		t.Fatalf("loss accounting off: %+v", st)
	}
	delivered := 0
	e.Tick()
	delivered += len(e.Inbox(2))
	if int64(delivered) != st.Messages-st.Drops {
		t.Fatalf("delivered %d, want messages-drops = %d", delivered, st.Messages-st.Drops)
	}
}

func TestSendViaDeadRelayConsumesMessage(t *testing.T) {
	e := NewEngine(100, Options{Seed: 45, CrashFrac: 0.3})
	var dead int
	for i := 2; i < e.N(); i++ {
		if !e.Alive(i) {
			dead = i
			break
		}
	}
	var src, dst int = -1, -1
	for i := 0; i < e.N(); i++ {
		if e.Alive(i) {
			if src < 0 {
				src = i
			} else if dst < 0 && i != src {
				dst = i
			}
		}
	}
	e.SendVia(src, dead, dst, Payload{})
	if e.Stats().Messages != 1 {
		t.Fatalf("dead relay cost %d messages, want 1 (second hop never sent)", e.Stats().Messages)
	}
	e.Tick()
	if len(e.Inbox(dst)) != 0 {
		t.Fatal("message via dead relay delivered")
	}
}

func TestSendRoutedReliableNoLossMatchesSendRouted(t *testing.T) {
	e := NewEngine(5, Options{Seed: 46})
	if !e.SendRoutedReliable(0, []int{1, 2, 3}, Payload{X: 5}) {
		t.Fatal("lossless reliable send failed")
	}
	if e.Stats().Messages != 3 {
		t.Fatalf("lossless reliable send cost %d, want 3", e.Stats().Messages)
	}
	e.Tick()
	e.Tick()
	e.Tick()
	in := e.Inbox(3)
	if len(in) != 1 || in[0].Pay.X != 5 || in[0].From != 0 {
		t.Fatalf("reliable delivery wrong: %+v", in)
	}
}

func TestSendRoutedReliableRetransmitsThroughLoss(t *testing.T) {
	e := NewEngine(5, Options{Seed: 47, Loss: 0.4})
	const trials = 100
	delivered := 0
	for i := 0; i < trials; i++ {
		if e.SendRoutedReliable(0, []int{1, 2}, Payload{}) {
			delivered++
		}
		e.Tick()
		e.Tick()
	}
	if delivered < trials*9/10 {
		t.Fatalf("reliable sends delivered %d/%d at δ=0.4", delivered, trials)
	}
	st := e.Stats()
	if st.Messages <= 2*trials {
		t.Fatalf("retransmissions unpaid: %d messages for %d 2-hop sends", st.Messages, trials)
	}
}

func TestSendRoutedReliableDeadRelayFails(t *testing.T) {
	e := NewEngine(100, Options{Seed: 48, CrashFrac: 0.2})
	var dead int
	for i := 2; i < e.N(); i++ {
		if !e.Alive(i) {
			dead = i
			break
		}
	}
	var src, hop1, dst int = -1, -1, -1
	for i := 0; i < e.N(); i++ {
		if e.Alive(i) && i != dead {
			switch {
			case src < 0:
				src = i
			case hop1 < 0:
				hop1 = i
			case dst < 0:
				dst = i
			}
		}
	}
	if e.SendRoutedReliable(src, []int{hop1, dead, dst}, Payload{}) {
		t.Fatal("reliable send through dead relay claims delivery")
	}
	// Empty path is a no-op.
	if e.SendRoutedReliable(src, nil, Payload{}) {
		t.Fatal("empty-path reliable send claims delivery")
	}
}
