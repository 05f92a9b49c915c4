package sim

import "testing"

// The engine-owned call buffer: every CallSlots call hands back the same
// backing array as an empty list with room for n calls — after a full
// call round and after Reset — and a warmed call allocates nothing.
func TestCallSlotsReuse(t *testing.T) {
	const n = 64
	e := NewEngine(n, Options{Seed: 3, Loss: 0.1})
	check := func(when string, calls []Call) {
		t.Helper()
		if len(calls) != 0 || cap(calls) != n {
			t.Fatalf("%s: len %d cap %d, want an empty list of capacity %d", when, len(calls), cap(calls), n)
		}
	}
	full := func(calls []Call) {
		for i := 0; i < n; i++ {
			calls = append(calls, Call{From: i, To: (i + 1) % n, Pay: Payload{Kind: 7, A: float64(i), X: int64(i)}})
		}
		e.ResolveCalls(calls,
			func(callee, caller int, req Payload) (Payload, bool) { return req, true },
			func(caller int, resp Payload) {})
		e.Tick()
	}
	first := e.CallSlots()
	check("fresh", first)
	full(first)
	again := e.CallSlots()
	check("after a call round", again)
	if &again[:1][0] != &first[:1][0] {
		t.Fatal("CallSlots reallocated between call rounds")
	}
	full(again)
	e.Reset(Options{Seed: 4})
	reset := e.CallSlots()
	check("after Reset", reset)
	if &reset[:1][0] != &first[:1][0] {
		t.Fatal("CallSlots reallocated across Reset")
	}
	if allocs := testing.AllocsPerRun(100, func() { e.CallSlots() }); allocs != 0 {
		t.Fatalf("warmed CallSlots allocates %v times, want 0", allocs)
	}
}

// ResolveCalls walks only the calls it is given, in order: callers that
// repeat or go backwards are rejected, dead callers are skipped without
// a bill, and each placed call bills one call and its messages.
func TestResolveCallsList(t *testing.T) {
	const n = 8
	e := NewEngine(n, Options{Seed: 5})
	e.Crash(3)
	var got []int
	e.ResolveCalls([]Call{{From: 1, To: 2}, {From: 3, To: 4}, {From: 6, To: 0}},
		func(callee, caller int, req Payload) (Payload, bool) {
			got = append(got, caller)
			return Payload{}, true
		}, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 6 {
		t.Fatalf("handled callers %v, want [1 6]", got)
	}
	if st := e.Stats(); st.Calls != 2 || st.Messages != 4 {
		t.Fatalf("bill %+v, want 2 calls and 4 messages", st)
	}
	for _, calls := range [][]Call{{{From: 2}, {From: 2}}, {{From: 5}, {From: 4}}, {{From: n}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ResolveCalls accepted callers %v", calls)
				}
			}()
			e.ResolveCalls(calls, func(int, int, Payload) (Payload, bool) { return Payload{}, false }, nil)
		}()
	}
}
