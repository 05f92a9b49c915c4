package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"drrgossip/internal/sim"
)

func mkEvent(run int, seq uint64, round int, kind Kind) *Event {
	return &Event{
		Run: run, Seq: seq, Round: round, Kind: kind, Op: "max",
		Phase: "gossip", Alive: 7, Node: -1,
		Counters: sim.Counters{Rounds: round, Messages: int64(10 * round), Drops: int64(round)},
		Delta:    sim.Counters{Rounds: 1, Messages: 10, Drops: 1},
		Residual: math.NaN(),
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindRunStart: "run_start", KindPhase: "phase", KindRound: "round",
		KindFault: "fault", KindRunEnd: "run_end", Kind(0): "kind(0)", Kind(99): "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Emit(mkEvent(1, uint64(i), i, KindRound))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first order)", i, ev.Seq, want)
		}
	}

	// Under capacity: all events, in order.
	r2 := NewRing(8)
	r2.Emit(mkEvent(1, 1, 1, KindRunStart))
	r2.Emit(mkEvent(1, 2, 2, KindRunEnd))
	if evs := r2.Events(); len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("partial ring events wrong: %+v", evs)
	}
}

func TestRingCopiesEvents(t *testing.T) {
	r := NewRing(2)
	ev := mkEvent(1, 1, 1, KindRound)
	r.Emit(ev)
	ev.Seq = 999 // emitter reuse must not retro-edit the stored copy
	if got := r.Events()[0].Seq; got != 1 {
		t.Fatalf("ring stored a reference, not a copy: Seq = %d", got)
	}
}

func TestBuffer(t *testing.T) {
	var b Buffer
	b.Emit(mkEvent(1, 1, 0, KindRunStart))
	b.Emit(mkEvent(1, 2, 3, KindRunEnd))
	if len(b.Events()) != 2 {
		t.Fatalf("buffer kept %d events, want 2", len(b.Events()))
	}
}

func TestMulti(t *testing.T) {
	var a, b Buffer
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	if Multi(&a, nil) != Sink(&a) {
		t.Error("Multi with one live sink should return it directly")
	}
	m := Multi(&a, nil, &b)
	m.Emit(mkEvent(1, 1, 0, KindRunStart))
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("multi did not fan out: %d / %d", len(a.Events()), len(b.Events()))
	}
}

func TestJSONLValidAndParseable(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(mkEvent(1, 1, 0, KindRunStart))
	fault := mkEvent(1, 2, 5, KindFault)
	fault.Node = 3
	fault.Crash = true
	fault.Residual = 0.25
	j.Emit(fault)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["kind"] != "run_start" || first["residual"] != nil {
		t.Errorf("line 0 fields wrong: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if second["node"] != float64(3) || second["crash"] != true || second["residual"] != 0.25 {
		t.Errorf("fault fields wrong: %v", second)
	}
	if c, ok := second["counters"].(map[string]any); !ok || c["messages"] != float64(50) {
		t.Errorf("counters wrong: %v", second["counters"])
	}
}

// TestEmitterDeltasSumToTotals pins the emitter's core invariant: the
// Deltas of a run's events sum exactly to the final Counters.
func TestEmitterDeltasSumToTotals(t *testing.T) {
	eng := sim.NewEngine(64, sim.Options{Seed: 7})
	var buf Buffer
	em := NewEmitter(Options{Sink: &buf, RoundEvery: 1})
	em.RunStart(1, "test", eng)
	for r := 0; r < 5; r++ {
		for i := 0; i < 64; i++ {
			eng.Send(i, (i+1)%64, sim.Payload{})
		}
		eng.Tick()
		em.Round(eng)
	}
	eng.SetPhase("gossip")
	em.Phase(eng)
	em.RunEnd(eng)

	evs := buf.Events()
	var sum sim.Counters
	for i, ev := range evs {
		if ev.Run != 1 || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: run/seq = %d/%d", i, ev.Run, ev.Seq)
		}
		sum.Rounds += ev.Delta.Rounds
		sum.Messages += ev.Delta.Messages
		sum.Drops += ev.Delta.Drops
		sum.Blocked += ev.Delta.Blocked
		sum.Calls += ev.Delta.Calls
	}
	final := evs[len(evs)-1]
	if final.Kind != KindRunEnd || sum != final.Counters {
		t.Fatalf("delta sum %+v != final counters %+v", sum, final.Counters)
	}
	if got := eng.Stats(); final.Counters != got {
		t.Fatalf("final counters %+v != engine stats %+v", final.Counters, got)
	}
}

func TestNilEmitterIsSafe(t *testing.T) {
	var em *Emitter
	if em.Enabled() || em.WantsRounds() || em.RoundEvery() != 0 {
		t.Fatal("nil emitter must report disabled")
	}
	eng := sim.NewEngine(4, sim.Options{Seed: 1})
	em.RunStart(1, "max", eng)
	em.Phase(eng)
	em.Round(eng)
	em.Fault(eng, 0, false)
	em.RunEnd(eng)
	em.Forward(&Event{})
	if NewEmitter(Options{}) != nil {
		t.Fatal("NewEmitter without sink must return nil")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	eng := sim.NewEngine(32, sim.Options{Seed: 3})
	var buf Buffer
	em := NewEmitter(Options{Sink: &buf})
	for run := 1; run <= 3; run++ {
		eng.Reset(sim.Options{Seed: 3})
		em.RunStart(run, "max", eng)
		eng.SetPhase("drr")
		em.Phase(eng)
		for r := 0; r < 4; r++ {
			eng.Send(0, 1, sim.Payload{})
			eng.Tick()
		}
		eng.SetPhase("gossip")
		em.Phase(eng)
		eng.Crash(5)
		em.Fault(eng, 5, false)
		for r := 0; r < 3; r++ {
			eng.Tick()
		}
		em.RunEnd(eng)
	}

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	var runs, phases, instants int
	lastEnd := int64(-1)
	for _, te := range tr.TraceEvents {
		switch {
		case te.Ph == "X" && te.Tid == traceTidRuns:
			runs++
			if te.Ts < lastEnd {
				t.Errorf("run span %q at ts=%d overlaps previous end %d", te.Name, te.Ts, lastEnd)
			}
			lastEnd = te.Ts + te.Dur
		case te.Ph == "X" && te.Tid == traceTidPhases:
			phases++
		case te.Ph == "i":
			instants++
		}
	}
	if runs != 3 {
		t.Errorf("run spans = %d, want 3", runs)
	}
	if phases < 6 { // at least drr+gossip per run
		t.Errorf("phase spans = %d, want >= 6", phases)
	}
	if instants != 3 {
		t.Errorf("fault instants = %d, want 3", instants)
	}
}

func TestMetricsAccumulateAndServe(t *testing.T) {
	m := NewMetrics()
	ev := mkEvent(1, 1, 0, KindRunStart)
	m.Emit(ev)
	ev.Kind = KindFault
	m.Emit(ev)
	ev.Kind = KindRunEnd
	m.Emit(ev)

	snap := m.Snapshot()
	if snap["runs_started"] != 1 || snap["runs_finished"] != 1 || snap["fault_events"] != 1 {
		t.Fatalf("run counters wrong: %v", snap)
	}
	if snap["messages"] != 30 || snap["rounds"] != 3 || snap["events"] != 3 {
		t.Fatalf("delta accumulation wrong: %v", snap)
	}
	if snap["alive_nodes"] != 7 {
		t.Fatalf("alive gauge = %d", snap["alive_nodes"])
	}

	var out bytes.Buffer
	m.WritePrometheus(&out)
	text := out.String()
	for _, want := range []string{
		"drrgossip_runs_started_total 1",
		"drrgossip_messages_total 30",
		"drrgossip_fault_events_total 1",
		"# TYPE drrgossip_rounds_total counter",
		"# TYPE drrgossip_alive_nodes gauge",
		"go_heap_alloc_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	srv, addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
