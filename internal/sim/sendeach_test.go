package sim

import (
	"reflect"
	"sort"
	"testing"
)

// TestSendEachMatchesSends drives two engines with equal options: one
// issues SendEach(s, to, …) followed by one Send per sender, the other
// len(to)+1 Sends. The counters must agree after every sender, the
// trailing Send must share its loss outcome (so SendEach advances the
// loss sequence exactly like Send), and the receipts handed to deliver
// must be exactly the messages the Send path files into inboxes.
func TestSendEachMatchesSends(t *testing.T) {
	const n = 64
	cases := []struct {
		name  string
		opts  Options
		fault LinkFault
	}{
		{name: "lossless", opts: Options{Seed: 1}},
		{name: "lossy", opts: Options{Seed: 2, Loss: 0.3}},
		{name: "crashes", opts: Options{Seed: 3, Loss: 0.1, CrashFrac: 0.25}},
		{name: "link-fault", opts: Options{Seed: 4, Loss: 0.1}, fault: func(from, to int) float64 {
			switch (from + to) % 3 {
			case 0:
				return 1 // severed
			case 1:
				return 0.5 // burst
			}
			return 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewEngine(n, tc.opts), NewEngine(n, tc.opts)
			a.SetLinkFault(tc.fault)
			b.SetLinkFault(tc.fault)
			type receipt struct{ from, to int }
			var got []receipt
			extra := func(s int) int { return (s + n/2) % n }
			for s := 0; s < n; s++ {
				// A few distinct receivers, one repeat, and (under
				// crashes) possibly dead ones.
				to := []int{(s + 1) % n, (s + 5) % n, (s + 17) % n, (s + 5) % n, (s + 40) % n}
				a.SendEach(s, to, func(r int) { got = append(got, receipt{s, r}) })
				a.Send(s, extra(s), Payload{Kind: 2, X: int64(s)})
				for _, r := range to {
					b.Send(s, r, Payload{Kind: 1, X: int64(s)})
				}
				b.Send(s, extra(s), Payload{Kind: 2, X: int64(s)})
				if a.Stats() != b.Stats() {
					t.Fatalf("sender %d: stats %+v, want %+v", s, a.Stats(), b.Stats())
				}
			}
			a.Tick()
			b.Tick()
			if a.Stats() != b.Stats() {
				t.Fatalf("stats after Tick %+v, want %+v", a.Stats(), b.Stats())
			}
			var want []receipt
			for i := 0; i < n; i++ {
				var extraA []int64
				for _, m := range a.Inbox(i) {
					extraA = append(extraA, m.Pay.X)
				}
				var extraB []int64
				for _, m := range b.Inbox(i) {
					if m.Pay.Kind == 1 {
						want = append(want, receipt{m.From, m.To})
					} else {
						extraB = append(extraB, m.Pay.X)
					}
				}
				if !reflect.DeepEqual(extraA, extraB) {
					t.Fatalf("node %d: trailing Sends delivered %v, want %v", i, extraA, extraB)
				}
			}
			// Inboxes are grouped by receiver; deliver runs in send order.
			sort.SliceStable(got, func(i, j int) bool { return got[i].to < got[j].to })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SendEach receipts %v, want %v", got, want)
			}
			if !a.PendingEmpty() {
				t.Fatal("SendEach queued messages")
			}
		})
	}
}

func TestSendEachDeadSenderNoop(t *testing.T) {
	a, b := NewEngine(8, Options{Seed: 5, Loss: 0.2}), NewEngine(8, Options{Seed: 5, Loss: 0.2})
	a.Crash(3)
	b.Crash(3)
	a.SendEach(3, []int{0, 1, 2}, func(int) { t.Fatal("dead sender delivered") })
	if a.Stats() != (Counters{}) {
		t.Fatalf("dead sender billed: %+v", a.Stats())
	}
	// The loss sequence did not move: later sends match a fresh engine.
	for i := 0; i < 20; i++ {
		a.Send(0, 1, Payload{})
		b.Send(0, 1, Payload{})
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("dead-sender SendEach shifted the loss sequence: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestSendEachAllocFree(t *testing.T) {
	e := NewEngine(256, Options{Seed: 6, Loss: 0.1})
	to := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}
	heard := make([]int, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < 256; s++ {
			e.SendEach(s, to, func(r int) { heard[r]++ })
		}
		e.Tick()
	})
	if allocs != 0 {
		t.Fatalf("SendEach round allocates %.1f objects, want 0", allocs)
	}
}
