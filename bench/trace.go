package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// The four pipeline phases, in execution order (the labels the
// pipelines pass to sim.Engine.SetPhase).
var phases = []string{"drr", "aggregate", "gossip", "broadcast"}

// span is one timed interval of a traced query: the query itself (the
// RunAll call), one protocol run inside it, or one phase inside a run.
type span struct {
	id, parent, query int
	name, cat         string
	start, end        time.Duration // since the tracer's base time
	// alloc is the heap bytes allocated during the span; counters are
	// the engine's counters at the span's start (run and phase spans),
	// replaced by their delta when the span closes.
	alloc0, alloc uint64
	counters      sim.Counters
}

// tracer is the benchmark's telemetry.Sink. It stamps monotonic time and
// the runtime's allocated-bytes counter on every run_start, phase and
// run_end event and turns them into nested spans: query → run → phase.
// Spans stay in memory until writeChrome. Events outside a query opened
// by beginQuery (the warm-up) are ignored.
type tracer struct {
	base          time.Time
	spans         []span
	queryID       int
	query, run, p int // index of the open span of each level, -1 if none
	sample        []metrics.Sample
	heapPeak      uint64
}

func newTracer() *tracer {
	return &tracer{
		base: time.Now(), query: -1, run: -1, p: -1,
		sample: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		},
	}
}

// now returns the time since base and the cumulative allocated bytes,
// and folds the live heap into the run's peak.
func (t *tracer) now() (time.Duration, uint64) {
	metrics.Read(t.sample)
	if h := t.sample[1].Value.Uint64(); h > t.heapPeak {
		t.heapPeak = h
	}
	return time.Since(t.base), t.sample[0].Value.Uint64()
}

// open starts a span at (at, alloc) and returns its index.
func (t *tracer) open(cat, name string, parent int, at time.Duration, alloc uint64, c sim.Counters) int {
	t.spans = append(t.spans, span{
		id: len(t.spans), parent: parent, query: t.queryID,
		name: name, cat: cat, start: at, alloc0: alloc, counters: c,
	})
	return len(t.spans) - 1
}

// close ends span i (if any) at (at, alloc).
func (t *tracer) close(i int, at time.Duration, alloc uint64, c sim.Counters) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end, s.alloc = at, alloc-s.alloc0
	s.counters = c.Sub(s.counters)
}

func (t *tracer) beginQuery() {
	t.queryID++
	at, alloc := t.now()
	t.query = t.open("query", "query", -1, at, alloc, sim.Counters{})
}

func (t *tracer) endQuery() {
	at, alloc := t.now()
	t.close(t.query, at, alloc, sim.Counters{})
	t.query = -1
}

// Emit implements telemetry.Sink. One clock and counter reading serves
// every span an event closes and opens, so consecutive phases tile their
// run without gaps.
func (t *tracer) Emit(ev *telemetry.Event) {
	if t.query < 0 {
		return
	}
	switch ev.Kind {
	case telemetry.KindRunStart, telemetry.KindPhase, telemetry.KindRunEnd:
	default:
		return
	}
	at, alloc := t.now()
	c := ev.Counters
	switch ev.Kind {
	case telemetry.KindRunStart:
		t.run = t.open("run", "run:"+ev.Op, t.query, at, alloc, c)
	case telemetry.KindPhase:
		t.close(t.p, at, alloc, c)
		t.p = t.open("phase", ev.Phase, t.run, at, alloc, c)
	case telemetry.KindRunEnd:
		t.close(t.p, at, alloc, c)
		t.close(t.run, at, alloc, c)
		t.p, t.run = -1, -1
	}
}

// spanMetrics folds the spans of nq traced queries into per-query
// per-phase and facade metrics.
func (t *tracer) spanMetrics(nq int) map[string]float64 {
	out := map[string]float64{}
	q := float64(nq)
	var queryWall, runWall, phaseWall float64
	var phaseMsgs int64
	var runs int
	for _, s := range t.spans {
		d := (s.end - s.start).Seconds()
		switch s.cat {
		case "query":
			queryWall += d
		case "run":
			runWall += d
			runs++
		case "phase":
			p := "phase." + s.name
			out[p+".self_s"] += d / q
			out[p+".alloc_mb"] += float64(s.alloc) / 1e6 / q
			out[p+".msgs"] += float64(s.counters.Messages) / q
			out[p+".rounds"] += float64(s.counters.Rounds) / q
			phaseWall += d
			phaseMsgs += s.counters.Messages
		}
	}
	for _, p := range phases {
		wallShare := out["phase."+p+".self_s"] * q / phaseWall
		msgShare := out["phase."+p+".msgs"] * q / float64(phaseMsgs)
		out["phase."+p+".cost_skew"] = wallShare / msgShare
	}
	out["trace.query_s"] = queryWall / q
	out["facade.self_s"] = (queryWall - runWall) / q
	out["facade.runs_per_query"] = float64(runs) / q
	out["runtime.heap_objects_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which ui.perfetto.dev and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as a Chrome trace-event file; the args
// carry the span id, its parent's id and the shared query id.
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"span": s.id, "parent": s.parent, "query": s.query,
				"alloc_bytes": s.alloc, "msgs": s.counters.Messages, "rounds": s.counters.Rounds,
			},
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
