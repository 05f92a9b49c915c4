package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"drrgossip/internal/xrand"
)

// trafficRun drives e through a fixed, seed-derived traffic pattern —
// direct, relayed, routed (one long enough to grow the delivery ring)
// and reliable-routed sends, message loss, mid-run crashes and revives,
// and crashes of a receiver with a message in flight — and returns a digest of everything observable: every inbox
// of every round, the drained routed tail, and the final counters. The
// pattern depends only on the test stream and e.N().
func trafficRun(e *Engine) string {
	n := e.N()
	h := sha256.New()
	rng := xrand.Derive(99, 0x7e57)
	for round := 0; round < 60; round++ {
		if round%7 == 3 {
			e.Crash(rng.Intn(n))
		}
		if round%11 == 5 {
			e.Revive(rng.Intn(n))
		}
		var to int
		for k := 0; k < 40; k++ {
			from := rng.Intn(n)
			to = rng.IntnOther(n, from)
			switch k % 4 {
			case 0:
				e.Send(from, to, Payload{Kind: 1, X: int64(k)})
			case 1:
				e.SendVia(from, rng.Intn(n), to, Payload{Kind: 2, X: int64(k)})
			case 2:
				path := []int{rng.Intn(n), rng.Intn(n), to}
				if k == 2 && round == 30 {
					path = make([]int, 20) // past the initial 16-slot ring
					for j := range path {
						path[j] = (to + j) % n
					}
				}
				e.SendRouted(from, path, Payload{Kind: 3, X: int64(k)})
			default:
				sendReliable3(e, from, to, Payload{Kind: 4, X: int64(k)})
			}
		}
		if round%5 == 2 {
			e.Crash(to) // its message from this round is dropped at Tick
		}
		e.Tick()
		for i := 0; i < n; i++ {
			for _, m := range e.Inbox(i) {
				fmt.Fprintf(h, "%d:%d<-%d/%d/%d;", round, i, m.From, m.Pay.Kind, m.Pay.X)
			}
		}
	}
	for !e.PendingEmpty() {
		e.Tick()
		for i := 0; i < n; i++ {
			for _, m := range e.Inbox(i) {
				fmt.Fprintf(h, "T:%d<-%d/%d/%d;", i, m.From, m.Pay.Kind, m.Pay.X)
			}
		}
	}
	fmt.Fprintf(h, "%+v", e.Stats())
	return hex.EncodeToString(h.Sum(nil))
}

// sendReliable3 is a one-hop SendRoutedReliable with a budget of 3
// attempts instead of 8. trafficRun's digest was recorded while the
// budget was an argument and this pattern passed 3, so it replays that
// budget to keep the recorded trace.
func sendReliable3(e *Engine, from, to int, p Payload) {
	if !e.alive.Test(from) {
		return
	}
	for t := 0; t < 3; t++ {
		if e.Attempt(from, to) {
			e.scheduleAt(e.c.Rounds+1, Message{From: from, To: to, Pay: p})
			return
		}
	}
}

// deliveryTraceDigest pins trafficRun's inboxes and counters on a fresh
// 200-node engine. It was recorded before Tick's delivery queues lost
// their former per-destination partitioning, so it is the differential
// check on the single-queue ring: filing order, lazy inbox clearing,
// the queue pool and ring growth must all reproduce it bit for bit.
const deliveryTraceDigest = "9bc800825d22f0ad631d8ec6301938f09681b5f088c54301afa9b6f571851a40"

func TestDeliveryTraceDigest(t *testing.T) {
	const n = 200
	opts := Options{Seed: 11, Loss: 0.05}
	if got := trafficRun(NewEngine(n, opts)); got != deliveryTraceDigest {
		t.Fatalf("fresh engine: delivery trace digest %s, want %s", got, deliveryTraceDigest)
	}
	// A dirty engine Reset into the same options must replay it too:
	// leftover inboxes, in-flight queues and a crashed node are cleared.
	e := NewEngine(n, Options{Seed: 3})
	for i := 0; i < n; i++ {
		e.Send(i, (i+1)%n, Payload{Kind: 9})
	}
	e.SendRouted(0, []int{1, 2, 3, 4}, Payload{Kind: 9})
	e.Tick()
	e.Crash(5)
	e.Reset(opts)
	if got := trafficRun(e); got != deliveryTraceDigest {
		t.Fatalf("reset engine: delivery trace digest %s, want %s", got, deliveryTraceDigest)
	}
}
