package sim

import (
	"math"
	"slices"
	"testing"
)

// The round observer is a read-only tap: it fires once per Tick with the
// new round number, sees the round fully formed (hook applied, messages
// delivered), and never makes the engine Faulty.
func TestRoundObserver(t *testing.T) {
	e := NewEngine(4, Options{Seed: 1})
	var rounds []int
	var alives []int
	e.SetRoundObserver(func(round int) {
		rounds = append(rounds, round)
		alives = append(alives, e.NumAlive())
	})
	if e.Faulty() {
		t.Fatal("observer must not make the engine faulty")
	}
	e.SetRoundHook(func(round int) {
		if round == 2 {
			e.Crash(3)
		}
	})
	for i := 0; i < 3; i++ {
		e.Tick()
	}
	if len(rounds) != 3 || rounds[0] != 1 || rounds[2] != 3 {
		t.Fatalf("observer rounds = %v", rounds)
	}
	// The hook crashes node 3 at the top of round 2; the observer runs at
	// the end of the same Tick and must already see it.
	if alives[0] != 4 || alives[1] != 3 || alives[2] != 3 {
		t.Fatalf("observer alive counts = %v", alives)
	}
	e.SetRoundObserver(nil)
	e.Tick()
	if len(rounds) != 3 {
		t.Fatal("removed observer still fired")
	}
}

// SetPhase records the label Phase reports.
func TestPhaseLabel(t *testing.T) {
	e := NewEngine(2, Options{Seed: 1})
	if e.Phase() != "" {
		t.Fatalf("fresh engine phase %q", e.Phase())
	}
	e.SetPhase("gossip")
	if e.Phase() != "gossip" {
		t.Fatalf("phase = %q", e.Phase())
	}
}

// The phase observer fires on label changes only, and never makes the
// engine faulty.
func TestPhaseObserver(t *testing.T) {
	e := NewEngine(2, Options{Seed: 1})
	var seen []string
	e.SetPhaseObserver(func(p string) { seen = append(seen, p) })
	if e.Faulty() {
		t.Fatal("phase observer must not make the engine faulty")
	}
	e.SetPhase("drr")
	e.SetPhase("drr") // same label: no event
	e.SetPhase("gossip")
	if len(seen) != 2 || seen[0] != "drr" || seen[1] != "gossip" {
		t.Fatalf("phase observer saw %v", seen)
	}
	e.SetPhaseObserver(nil)
	e.SetPhase("broadcast")
	if len(seen) != 2 {
		t.Fatal("removed phase observer still fired")
	}
}

// The ledger bills each phase between its label changes: unlabelled
// work before the first label gets a row of its own, repeating a label
// opens no new phase, the open phase is billed up to now, and the rows
// sum to Stats. Reset truncates it, and a warm engine runs a phased run
// and its Reset without allocating.
func TestPhaseLedger(t *testing.T) {
	e := NewEngine(4, Options{Seed: 1})
	if l := e.Ledger(); len(l) != 0 {
		t.Fatalf("fresh ledger %v", l)
	}
	e.Send(0, 1, Payload{})
	e.SetPhase("drr")
	e.Send(1, 2, Payload{})
	e.Tick()
	e.SetPhase("drr")
	e.SetPhase("gossip")
	e.Send(2, 3, Payload{})
	e.Send(3, 0, Payload{})
	e.Tick()
	e.Tick()
	want := []PhaseBill{
		{"", Counters{Messages: 1}},
		{"drr", Counters{Rounds: 1, Messages: 1}},
		{"gossip", Counters{Rounds: 2, Messages: 2}},
	}
	l := e.Ledger()
	if !slices.Equal(l, want) {
		t.Fatalf("ledger %v, want %v", l, want)
	}
	var sum Counters
	for _, b := range l {
		sum = sum.Add(b.Counters)
	}
	if sum != e.Stats() {
		t.Fatalf("ledger sums to %+v, Stats %+v", sum, e.Stats())
	}
	if got := e.Billed("gossip"); got != want[2].Counters {
		t.Fatalf("Billed(gossip) = %+v", got)
	}
	run := func() {
		e.Reset(Options{Seed: 1})
		for _, p := range []string{"drr", "aggregate", "gossip", "broadcast"} {
			e.SetPhase(p)
			e.Send(0, 1, Payload{})
			e.Tick()
		}
		if len(e.Ledger()) != 4 {
			t.Fatalf("ledger %v", e.Ledger())
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("phased run and Reset allocate %v times", allocs)
	}
	e.Reset(Options{Seed: 1})
	if l := e.Ledger(); len(l) != 0 {
		t.Fatalf("Reset left ledger %v", l)
	}
}

// The membership observer fires on actual transitions only: crashing a
// dead node or reviving a live one stays silent.
func TestMembershipObserver(t *testing.T) {
	e := NewEngine(4, Options{Seed: 1})
	type tr struct {
		node  int
		alive bool
	}
	var seen []tr
	e.SetMembershipObserver(func(node int, alive bool) { seen = append(seen, tr{node, alive}) })
	if e.Faulty() {
		t.Fatal("membership observer must not make the engine faulty")
	}
	e.Crash(2)
	e.Crash(2) // already dead: no event
	e.Revive(2)
	e.Revive(2) // already alive: no event
	want := []tr{{2, false}, {2, true}}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("membership observer saw %v, want %v", seen, want)
	}
}

// Residual is driver-reported observability state, NaN by default.
func TestResidual(t *testing.T) {
	e := NewEngine(2, Options{Seed: 1})
	if !math.IsNaN(e.Residual()) {
		t.Fatalf("fresh engine residual = %v, want NaN", e.Residual())
	}
	e.ReportResidual(0.5)
	if e.Residual() != 0.5 {
		t.Fatalf("residual = %v", e.Residual())
	}
}

// WantResidual is due only on rounds the stride will surface, and only
// while a round observer is installed.
func TestResidualStride(t *testing.T) {
	e := NewEngine(2, Options{Seed: 1})
	if e.WantResidual() {
		t.Fatal("unobserved engine must not want residuals")
	}
	e.SetRoundObserver(func(int) {})
	if !e.WantResidual() {
		t.Fatal("default stride must want a residual every round")
	}
	e.SetResidualStride(3)
	var due []int
	for r := 1; r <= 6; r++ {
		if e.WantResidual() {
			due = append(due, r) // upcoming round r
		}
		e.Tick()
	}
	if len(due) != 2 || due[0] != 3 || due[1] != 6 {
		t.Fatalf("due rounds = %v, want [3 6]", due)
	}
	e.SetResidualStride(0) // < 1 clamps to every round
	if !e.WantResidual() {
		t.Fatal("stride 0 must clamp to 1")
	}
}

// Regression for the pooled-engine contract: Reset must clear every
// piece of observability state — phase label, phase/membership/round
// observers, and the reported residual — so that a pooled engine cannot
// leak a previous run's telemetry into the next one.
func TestResetClearsObservabilityState(t *testing.T) {
	e := NewEngine(4, Options{Seed: 1})
	fired := 0
	e.SetPhase("gossip")
	e.SetPhaseObserver(func(string) { fired++ })
	e.SetMembershipObserver(func(int, bool) { fired++ })
	e.SetRoundObserver(func(int) { fired++ })
	e.ReportResidual(0.125)
	e.SetResidualStride(7)

	e.Reset(Options{Seed: 1})
	if e.Phase() != "" {
		t.Fatalf("Reset left phase %q", e.Phase())
	}
	if !math.IsNaN(e.Residual()) {
		t.Fatalf("Reset left residual %v", e.Residual())
	}
	// At the stride of 1 that Reset restores, a residual is due every
	// round exactly while a round observer is installed.
	if e.WantResidual() {
		t.Fatal("Reset left a round observer installed")
	}
	e.SetRoundObserver(func(int) {})
	if !e.WantResidual() {
		t.Fatal("Reset left a residual stride != 1")
	}
	e.SetRoundObserver(nil)
	e.SetPhase("drr")
	e.Crash(1)
	e.Tick()
	if fired != 0 {
		t.Fatalf("stale observers fired %d times after Reset", fired)
	}
}
