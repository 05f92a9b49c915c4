package faults

import (
	"testing"

	"drrgossip/internal/sim"
)

// predHost records the link predicate a Bound installs on its engine.
type predHost struct {
	*sim.Engine
	pred sim.LinkFault
}

func (h *predHost) SetLinkFault(f sim.LinkFault) {
	h.pred = f
	h.Engine.SetLinkFault(f)
}

// A Bound installs a link predicate only while a link-level fault is
// active, and the one it installs equals the full per-link check on
// every link: overlapping bursts, a flaky region, a partition and a
// severed link each open and close.
func TestLinkPredicateOnlyWhileActive(t *testing.T) {
	const n = 24
	p, err := Parse("loss:0.1@2r..6r;loss:0.3@4r..10r;flaky:0.2:0.5@8r..12r;part:2@14r..16r;link:3-5@18r..20r")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(n, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &predHost{Engine: sim.NewEngine(n, sim.Options{Seed: 9})}
	rp := b.Attach(h)
	quiet := map[int]bool{1: true, 12: true, 13: true, 16: true, 17: true, 20: true, 21: true}
	for r := 1; r <= 21; r++ {
		h.Tick()
		if !h.Faulty() {
			t.Fatalf("round %d: engine not faulty while a Bound is attached", r)
		}
		if (h.pred == nil) != quiet[r] {
			t.Fatalf("round %d: predicate installed = %v, want %v", r, h.pred != nil, !quiet[r])
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				want := rp.linkFault(from, to)
				got := 0.0
				if h.pred != nil {
					got = h.pred(from, to)
				}
				if got != want {
					t.Fatalf("round %d: link %d->%d: installed predicate %v, full check %v", r, from, to, got, want)
				}
			}
		}
	}
}

// Opening and closing a link-level window — a loss burst, a flaky
// region, a partition or a severed link — swaps the engine's predicate
// without allocating once the replay's window lists and the engine's
// queues are warm.
func TestBurstWindowAllocatesNothing(t *testing.T) {
	const n, windows = 64, 200
	for _, row := range []struct {
		name string
		ev   Event
	}{
		{"burst", Event{Kind: LossBurst, Loss: 0.1}},
		{"flaky", Event{Kind: Flaky, Frac: 0.25, Loss: 0.5}},
		{"partition", Event{Kind: Partition, Groups: 2}},
		{"link", Event{Kind: LinkDown, A: 0, B: 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var p Plan
			for k := 0; k < windows; k++ {
				ev := row.ev
				ev.At, ev.End = At(2*k+1), At(2*k+2)
				p.Events = append(p.Events, ev)
			}
			b, err := p.Bind(n, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine(n, sim.Options{Seed: 1, Loss: 0.02})
			rp := b.Attach(eng)
			allocs := testing.AllocsPerRun(windows-1, func() { // plus one warm-up call
				for i := 0; i < n; i++ {
					eng.Send(i, (i+1)%n, sim.Payload{})
				}
				eng.Tick() // a window opens
				eng.Tick() // and closes
			})
			if allocs != 0 {
				t.Fatalf("a %s window allocates %v objects", row.name, allocs)
			}
			if rp.Fired() != 2*windows || eng.Stats().Drops == 0 {
				t.Fatalf("fired %d actions with %d drops, want %d and some", rp.Fired(), eng.Stats().Drops, 2*windows)
			}
		})
	}
}
