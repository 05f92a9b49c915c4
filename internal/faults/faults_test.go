package faults

import (
	"errors"
	"math"
	"testing"

	"drrgossip/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		spec   string
		events int
		kinds  []Kind
	}{
		{"crash:0.2@0.5", 1, []Kind{Crash}},
		{"crash:5@100r", 1, []Kind{Crash}},
		{"rack:0.1@0.25..0.75", 1, []Kind{Crash}},
		{"rejoin@0.8", 1, []Kind{Rejoin}},
		{"rejoin:0.5@0.8", 1, []Kind{Rejoin}},
		{"churn:0.3", 1, []Kind{ChurnKind}},
		{"churn:0.3:40", 1, []Kind{ChurnKind}},
		{"loss:0.25@0.2..0.6", 1, []Kind{LossBurst}},
		{"part:2@0.25..0.75", 1, []Kind{Partition}},
		{"flaky:0.2:0.5@0.1..0.9", 1, []Kind{Flaky}},
		{"link:3-9@10..200", 1, []Kind{LinkDown}},
		{"crash:0.2@0.5;rejoin@0.8", 2, []Kind{Crash, Rejoin}},
		{"part:2@0.25..0.5 ; loss:0.2@0.5..0.9", 2, []Kind{Partition, LossBurst}},
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if len(p.Events) != c.events {
			t.Fatalf("Parse(%q): %d events, want %d", c.spec, len(p.Events), c.events)
		}
		for i, k := range c.kinds {
			if p.Events[i].Kind != k {
				t.Fatalf("Parse(%q): event %d kind %v, want %v", c.spec, i, p.Events[i].Kind, k)
			}
		}
		if p.String() != c.spec {
			t.Fatalf("String() = %q, want the original spec %q", p.String(), c.spec)
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	for _, empty := range []string{"", "  ", "none", "NONE"} {
		p, err := Parse(empty)
		if err != nil || !p.Empty() {
			t.Fatalf("Parse(%q) = (%v, %v), want empty plan", empty, p, err)
		}
	}
	bad := []string{
		"meteor:0.5",          // unknown kind
		"crash",               // missing amount
		"crash:0.2@1.5",       // fraction above 1
		"crash:0.2@-3",        // negative round
		"crash:2.5",           // non-integer count
		"churn:0.3@0.5",       // churn cannot be windowed
		"churn:x",             // bad rate
		"link:5",              // missing endpoint
		"link:a-b@1..2",       // non-numeric endpoints
		"flaky:0.2@0.1..0.9",  // missing loss arg
		"loss:0.2@0.6..0.0",   // zero window end
		";;",                  // no events at all
		"part:two@0.25..0.75", // bad group count
		"loss:1.5@0.2..0.8",   // burst loss above 1
		"loss:NaN@0.2..0.8",   // NaN burst loss
	}
	for _, spec := range bad {
		if _, err := Parse(spec); !errors.Is(err, ErrBadPlan) {
			t.Fatalf("Parse(%q) error = %v, want ErrBadPlan", spec, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	n := 16
	bad := []Plan{
		{Events: []Event{{Kind: Crash}}},                                    // no set
		{Events: []Event{{Kind: Crash, Nodes: []int{n}}}},                   // out of range
		{Events: []Event{{Kind: Crash, Frac: 1.5}}},                         // frac > 1
		{Events: []Event{{Kind: LossBurst, Loss: 0}}},                       // zero loss
		{Events: []Event{{Kind: LossBurst, Loss: 1}}},                       // total loss
		{Events: []Event{{Kind: Partition, Groups: 1}}},                     // one group
		{Events: []Event{{Kind: LinkDown, A: 3, B: 3}}},                     // self link
		{Events: []Event{{Kind: ChurnKind, Rate: 0}}},                       // zero rate
		{Events: []Event{{Kind: ChurnKind, Rate: 0.5, Down: -1}}},           // negative down
		{Events: []Event{{Kind: Flaky, Loss: 0.5}}},                         // no region
		{Events: []Event{{Kind: Crash, Frac: 0.5, At: AtFrac(2)}}},          // time out of range
		{Events: []Event{{Kind: Crash, Frac: 0.5, At: At(-1)}}},             // negative round
		{Events: []Event{{Kind: Kind(250), Frac: 0.5}}},                     // unknown kind
		{Events: []Event{{Kind: LossBurst, Loss: math.NaN()}}},              // NaN loss
		{Events: []Event{{Kind: Flaky, Loss: math.NaN(), Frac: 0.5}}},       // NaN flaky loss
		{Events: []Event{{Kind: ChurnKind, Rate: math.NaN()}}},              // NaN rate
		{Events: []Event{{Kind: Crash, Frac: math.NaN()}}},                  // NaN node fraction
		{Events: []Event{{Kind: Crash, Frac: 0.5, At: AtFrac(math.NaN())}}}, // NaN time
	}
	for i := range bad {
		if err := bad[i].Validate(n); !errors.Is(err, ErrBadPlan) {
			t.Fatalf("case %d: Validate = %v, want ErrBadPlan", i, err)
		}
	}
	// NaN parses as a float, so the range checks must reject it.
	for _, spec := range []string{"loss:nan@0.2..0.8", "loss:NaN@0.1..0.9", "flaky:0.2:nan@0.1..0.9", "churn:nan:10"} {
		p, err := Parse(spec)
		if err == nil {
			err = p.Validate(n)
		}
		if !errors.Is(err, ErrBadPlan) {
			t.Fatalf("%q: Parse+Validate = %v, want ErrBadPlan", spec, err)
		}
	}
}

func TestBindRequiresHorizonForFractions(t *testing.T) {
	p, err := Parse("crash:0.2@0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.NeedsHorizon() {
		t.Fatal("fractional plan should need a horizon")
	}
	if _, err := p.Bind(64, 1, 0); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("Bind without horizon: %v, want ErrBadPlan", err)
	}
	if _, err := p.Bind(64, 1, 200); err != nil {
		t.Fatalf("Bind with horizon: %v", err)
	}
	abs, err := Parse("crash:0.2@100r")
	if err != nil {
		t.Fatal(err)
	}
	if abs.NeedsHorizon() {
		t.Fatal("absolute-round plan should not need a horizon")
	}
	if _, err := abs.Bind(64, 1, 0); err != nil {
		t.Fatalf("absolute Bind: %v", err)
	}
	inverted := Plan{Events: []Event{{Kind: LossBurst, Loss: 0.5, At: At(100), End: At(50)}}}
	if _, err := inverted.Bind(64, 1, 0); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("inverted window: %v, want ErrBadPlan", err)
	}
}

func TestCrashAndRejoinDriveEngine(t *testing.T) {
	n := 32
	p, err := Parse("crash:0.25@10r;rejoin@20r")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(n, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 7})
	rp := b.Attach(eng)
	for eng.Round() < 9 {
		eng.Tick()
	}
	if eng.NumAlive() != n {
		t.Fatalf("round 9: %d alive, want %d", eng.NumAlive(), n)
	}
	eng.Tick() // round 10: crash fires
	if eng.NumAlive() != n-8 {
		t.Fatalf("round 10: %d alive, want %d", eng.NumAlive(), n-8)
	}
	if rp.Crashed() != 8 {
		t.Fatalf("Crashed() = %d, want 8", rp.Crashed())
	}
	for eng.Round() < 20 {
		eng.Tick()
	}
	if eng.NumAlive() != n || rp.Revived() != 8 {
		t.Fatalf("round 20: %d alive (revived %d), want all back", eng.NumAlive(), rp.Revived())
	}
	if rp.Fired() == 0 {
		t.Fatal("no actions fired")
	}
}

// rejoin:F must revive F of the nodes actually dead at fire time (a
// fraction of the dead population, or an absolute count) — not an
// independent random subset that mostly misses the crashed set.
func TestRejoinFractionRevivesDeadNodes(t *testing.T) {
	n := 100
	run := func(spec string, seed uint64) (*Replay, *sim.Engine) {
		t.Helper()
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Bind(n, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(n, sim.Options{Seed: seed})
		rp := b.Attach(eng)
		for eng.Round() < 10 {
			eng.Tick()
		}
		return rp, eng
	}
	// A bare rejoin brings every dead node back.
	rp, eng := run("crash:0.25@5r;rejoin@10r", 13)
	if eng.NumAlive() != 100 || rp.Revived() != 25 {
		t.Fatalf("bare rejoin: alive %d (revived %d), want 100 (25)", eng.NumAlive(), rp.Revived())
	}
	// A fractional rejoin revives that share of the dead: 25 dead,
	// rejoin:0.2 → ceil(0.2·25) = 5 revived.
	rp, eng = run("crash:0.25@5r;rejoin:0.2@10r", 13)
	if eng.NumAlive() != 80 || rp.Revived() != 5 {
		t.Fatalf("rejoin:0.2: alive %d (revived %d), want 80 (5)", eng.NumAlive(), rp.Revived())
	}
	// A count rejoin revives exactly that many dead nodes.
	_, eng = run("crash:0.5@5r;rejoin:10@10r", 14)
	if eng.NumAlive() != 60 {
		t.Fatalf("rejoin:10: alive %d, want 60 (50 crashed, 10 revived)", eng.NumAlive())
	}
}

// Overlapping crash windows hold a node down until every window has
// expired: the end of a churn downtime must not resurrect a node that a
// permanent crash event still covers.
func TestOverlappingCrashHoldsRefcounted(t *testing.T) {
	n := 10
	p := &Plan{Events: []Event{
		{Kind: Crash, Nodes: []int{3}, At: At(2)},             // permanent hold
		{Kind: Crash, Nodes: []int{3}, At: At(4), End: At(6)}, // windowed hold
		{Kind: Crash, Nodes: []int{7}, At: At(4), End: At(6)}, // windowed only
		{Kind: Rejoin, Nodes: []int{3}, At: At(8)},            // explicit rejoin clears holds
	}}
	b, err := p.Bind(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 1})
	b.Attach(eng)
	for eng.Round() < 6 {
		eng.Tick()
	}
	// Round 6: both windows ended. Node 7 is back; node 3 is still held
	// by the permanent crash.
	if !eng.Alive(7) {
		t.Fatal("windowed-only node not revived at window end")
	}
	if eng.Alive(3) {
		t.Fatal("window end resurrected a node a permanent crash still covers")
	}
	for eng.Round() < 8 {
		eng.Tick()
	}
	if !eng.Alive(3) {
		t.Fatal("explicit rejoin did not clear the permanent hold")
	}
}

// Generator specs with integral fractional timings must survive a
// String -> Parse round trip as fractions, not absolute rounds.
func TestTimingStringRoundTrip(t *testing.T) {
	g := CrashFraction(0.2, AtFrac(1), Timing{})
	p, err := Parse(g.String())
	if err != nil {
		t.Fatalf("generated spec %q does not parse: %v", g.String(), err)
	}
	if got := p.Events[0].At; got.Frac != 1 || got.Round != 0 {
		t.Fatalf("spec %q re-parsed to timing %+v, want fraction 1", g.String(), got)
	}
	for _, tm := range []Timing{AtFrac(0.5), AtFrac(1), AtFrac(0.125), At(7), At(120)} {
		back, err := parseTiming(tm.String())
		if err != nil {
			t.Fatalf("%v: %v", tm, err)
		}
		if back != tm {
			t.Fatalf("timing %+v round-tripped to %+v via %q", tm, back, tm.String())
		}
	}
}

func TestBindDeterminism(t *testing.T) {
	p, err := Parse("churn:0.4:15;part:2@0.2..0.6;flaky:0.3:0.4@0.1..0.9")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (alive int, msgs, drops int64) {
		n := 64
		b, err := p.Bind(n, 42, 300)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(n, sim.Options{Seed: 42, Loss: 0.05})
		b.Attach(eng)
		for r := 0; r < 300; r++ {
			for i := 0; i < n; i++ {
				if eng.Alive(i) {
					eng.Send(i, (i+1)%n, sim.Payload{})
				}
			}
			eng.Tick()
		}
		st := eng.Stats()
		return eng.NumAlive(), st.Messages, st.Drops
	}
	a1, m1, d1 := run()
	a2, m2, d2 := run()
	if a1 != a2 || m1 != m2 || d1 != d2 {
		t.Fatalf("bound runs differ: (%d,%d,%d) vs (%d,%d,%d)", a1, m1, d1, a2, m2, d2)
	}
	if d1 == 0 {
		t.Fatal("flaky+loss run recorded no drops")
	}
}

func TestPartitionSeversAndHeals(t *testing.T) {
	n := 16
	p := PartitionNetwork(2, At(5), At(10))
	b, err := p.Bind(n, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 3})
	b.Attach(eng)
	// Find two nodes in different groups by probing the fault predicate
	// once the partition is active.
	for eng.Round() < 5 {
		eng.Tick()
	}
	blockedPair := -1
	base := eng.Stats().Blocked
	for j := 1; j < n; j++ {
		eng.Send(0, j, sim.Payload{})
		if eng.Stats().Blocked > base {
			blockedPair = j
			break
		}
		base = eng.Stats().Blocked
	}
	if blockedPair < 0 {
		t.Fatal("partition blocked no link from node 0")
	}
	for eng.Round() < 10 {
		eng.Tick()
	}
	before := eng.Stats().Blocked
	eng.Send(0, blockedPair, sim.Payload{})
	if eng.Stats().Blocked != before {
		t.Fatal("healed partition still blocks")
	}
}

func TestLinkDownBlocksBothDirections(t *testing.T) {
	n := 8
	p, err := Parse("link:2-5@1r..100r")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 1})
	b.Attach(eng)
	eng.Tick()
	eng.Send(2, 5, sim.Payload{})
	eng.Send(5, 2, sim.Payload{})
	eng.Send(2, 3, sim.Payload{})
	if got := eng.Stats().Blocked; got != 2 {
		t.Fatalf("Blocked = %d, want 2 (both directions of 2-5)", got)
	}
	eng.Tick()
	if len(eng.Inbox(3)) != 1 || len(eng.Inbox(5)) != 0 {
		t.Fatal("healthy link blocked or severed link delivered")
	}
}

func TestLossBurstRaisesEffectiveLoss(t *testing.T) {
	n := 4
	p := LossSpike(0.5, At(1), At(1001))
	b, err := p.Bind(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 1})
	b.Attach(eng)
	eng.Tick()
	for k := 0; k < 2000; k++ {
		eng.Send(0, 1, sim.Payload{})
	}
	frac := float64(eng.Stats().Drops) / 2000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("burst drop rate %.3f, want ≈ 0.5", frac)
	}
}

func TestChurnExpansion(t *testing.T) {
	p := PoissonChurn(0.5, 10)
	n, horizon := 100, 400
	b, err := p.Bind(n, 9, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rounds := b.Rounds()
	if len(rounds) == 0 {
		t.Fatal("churn expanded to nothing")
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 9})
	rp := b.Attach(eng)
	minAlive := n
	for r := 0; r < horizon; r++ {
		eng.Tick()
		if a := eng.NumAlive(); a < minAlive {
			minAlive = a
		}
	}
	// Expected 50 crash events with 10-round downtimes: membership must
	// actually dip, and with rejoins it must recover most of the way.
	if rp.Crashed() < 20 || rp.Crashed() > 100 {
		t.Fatalf("churn crashes = %d, want around 50", rp.Crashed())
	}
	if minAlive == n {
		t.Fatal("churn never removed a node")
	}
	if eng.NumAlive() < n-15 {
		t.Fatalf("final alive %d: downtime rejoins not applied", eng.NumAlive())
	}
}

func TestFromCrashFracMatchesEngine(t *testing.T) {
	n := 256
	opts := sim.Options{Seed: 11, CrashFrac: 0.3}
	want := sim.NewEngine(n, opts)
	p := FromCrashFrac(n, opts)
	b, err := p.Bind(n, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.NewEngine(n, sim.Options{Seed: 11})
	b.Attach(got)
	for i := 0; i < n; i++ {
		if want.Alive(i) != got.Alive(i) {
			t.Fatalf("node %d: CrashFrac alive=%v, plan alive=%v", i, want.Alive(i), got.Alive(i))
		}
	}
	if want.NumAlive() != got.NumAlive() {
		t.Fatalf("alive: %d vs %d", want.NumAlive(), got.NumAlive())
	}
	if empty := FromCrashFrac(n, sim.Options{Seed: 11}); !empty.Empty() {
		t.Fatal("zero CrashFrac should give the empty plan")
	}
}

func TestMergeAndGenerators(t *testing.T) {
	m := Merge(PoissonChurn(0.2, 0), RackFailure(0.1, AtFrac(0.5), AtFrac(0.8)),
		FlakyRegion(0.2, 0.3, AtFrac(0.1), AtFrac(0.9)), CrashFraction(0.1, AtFrac(0.3), Timing{}),
		&Plan{}, nil)
	if len(m.Events) != 4 {
		t.Fatalf("merged %d events, want 4", len(m.Events))
	}
	if err := m.Validate(64); err != nil {
		t.Fatal(err)
	}
	if !m.NeedsHorizon() {
		t.Fatal("merged plan should need a horizon")
	}
	if m.String() == "" || m.String() == "none" {
		t.Fatalf("merged String = %q", m.String())
	}
	// Spec strings produced by generators must parse back.
	for _, g := range []*Plan{
		PoissonChurn(0.2, 5), RackFailure(0.25, AtFrac(0.5), Timing{}),
		FlakyRegion(0.2, 0.3, AtFrac(0.1), AtFrac(0.9)),
		PartitionNetwork(3, AtFrac(0.2), AtFrac(0.6)),
		LossSpike(0.4, At(10), At(50)), CrashFraction(0.5, AtFrac(0.5), Timing{}),
	} {
		if _, err := Parse(g.String()); err != nil {
			t.Fatalf("generator spec %q does not re-parse: %v", g.String(), err)
		}
	}
}

func TestContiguousSelection(t *testing.T) {
	ev := Event{Kind: Crash, Frac: 0.25, Contiguous: true}
	nodes := ev.selectNodes(100, 5, 0)
	if len(nodes) != 25 {
		t.Fatalf("selected %d nodes, want 25", len(nodes))
	}
	// Contiguity modulo n: sorted ids form at most two runs.
	runs := 1
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[i-1]+1 {
			runs++
		}
	}
	if runs > 2 {
		t.Fatalf("contiguous selection has %d runs: %v", runs, nodes)
	}
	hashed := Event{Kind: Crash, Frac: 0.25}
	h := hashed.selectNodes(100, 5, 0)
	if len(h) != 25 {
		t.Fatalf("hashed selected %d", len(h))
	}
	again := hashed.selectNodes(100, 5, 0)
	for i := range h {
		if h[i] != again[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestTimingResolve(t *testing.T) {
	if r := AtFrac(0.5).resolve(801); r != 401 && r != 400 {
		t.Fatalf("0.5 of 801 = %d", r)
	}
	if r := At(77).resolve(10); r != 77 {
		t.Fatalf("absolute round resolved to %d", r)
	}
	if !(Timing{}).isZero() || (AtFrac(0.5)).isZero() || (At(3)).isZero() {
		t.Fatal("isZero misclassifies timings")
	}
}
