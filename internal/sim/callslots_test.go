package sim

import "testing"

// The engine-owned call buffer: every CallSlots call hands back the same
// n slots, all inactive — after a dirty call round and after Reset —
// and a warmed call allocates nothing.
func TestCallSlotsReuse(t *testing.T) {
	const n = 64
	e := NewEngine(n, Options{Seed: 3, Loss: 0.1})
	check := func(when string, calls []Call) {
		t.Helper()
		if len(calls) != n {
			t.Fatalf("%s: %d slots, want %d", when, len(calls), n)
		}
		for i, c := range calls {
			if c != (Call{}) {
				t.Fatalf("%s: slot %d = %+v, want inactive", when, i, c)
			}
		}
	}
	dirty := func(calls []Call) {
		for i := range calls {
			calls[i] = Call{Active: true, To: (i + 1) % n, Pay: Payload{Kind: 7, A: float64(i), X: int64(i)}}
		}
		e.ResolveCalls(calls,
			func(callee, caller int, req Payload) (Payload, bool) { return req, true },
			func(caller int, resp Payload) {})
		e.Tick()
	}
	first := e.CallSlots()
	check("fresh", first)
	dirty(first)
	again := e.CallSlots()
	check("after a call round", again)
	if &again[0] != &first[0] {
		t.Fatal("CallSlots reallocated between call rounds")
	}
	dirty(again)
	e.Reset(Options{Seed: 4})
	reset := e.CallSlots()
	check("after Reset", reset)
	if &reset[0] != &first[0] {
		t.Fatal("CallSlots reallocated across Reset")
	}
	if allocs := testing.AllocsPerRun(100, func() { e.CallSlots() }); allocs != 0 {
		t.Fatalf("warmed CallSlots allocates %v times, want 0", allocs)
	}
}
