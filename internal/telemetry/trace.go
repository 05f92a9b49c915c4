package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// traceEvent is one Chrome trace-event object (the "trace event format"
// consumed by chrome://tracing and ui.perfetto.dev).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object form of the trace file.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Timeline rows (thread ids) of the exported trace.
const (
	traceTidRuns   = 1 // one span per engine pass, named by its first op
	traceTidPhases = 2 // one span per phase segment, plus fault instants
)

// WriteChromeTrace renders an event stream as Chrome trace-event JSON:
// a two-row flame-style timeline where row "runs" holds one span per
// run of the stream — an engine pass, named by its first operation —
// and row "phases" breaks each run into its drr/aggregate/gossip/
// broadcast segments, with fault events as instants. Simulated rounds
// map to microseconds (one round = 1µs) and runs are laid end to end,
// so a whole Quantile session — its bisection passes × phases —
// renders as one navigable timeline.
// Open the file at ui.perfetto.dev or chrome://tracing.
//
// Events must be in stream order (as captured by a Buffer or Ring from
// one session); truncated streams (a Ring that overwrote its oldest
// events) still render, starting at the first retained event.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "drrgossip session"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: traceTidRuns, Args: map[string]any{"name": "runs"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: traceTidPhases, Args: map[string]any{"name": "phases"}},
	}}

	var (
		offset    int64 // global timeline position of the current run's round 0
		curRun    = -1
		runStart  int64 // first observed round of the current run
		lastRound int64
		runOp     string
		segPhase  string
		segStart  int64
		segMsgs   int64
		segDrops  int64
	)
	closeSeg := func(end int64, msgs, drops int64) {
		if segPhase == "" || end <= segStart {
			segPhase = ""
			return
		}
		tr.TraceEvents = append(tr.TraceEvents, traceEvent{
			Name: segPhase, Ph: "X", Ts: offset + segStart, Dur: end - segStart,
			Pid: 1, Tid: traceTidPhases,
			Args: map[string]any{
				"rounds":   end - segStart,
				"messages": msgs - segMsgs,
				"drops":    drops - segDrops,
			},
		})
		segPhase = ""
	}
	closeRun := func(ev *Event) {
		if curRun < 0 {
			return
		}
		closeSeg(lastRound, ev.Counters.Messages, ev.Counters.Drops)
		args := map[string]any{
			"run": curRun, "op": runOp,
			"rounds": lastRound - runStart, "messages": ev.Counters.Messages,
			"drops": ev.Counters.Drops, "alive": ev.Alive,
		}
		if !math.IsNaN(ev.Residual) {
			args["residual"] = ev.Residual
		}
		tr.TraceEvents = append(tr.TraceEvents, traceEvent{
			Name: fmt.Sprintf("%s #%d", runOp, curRun), Ph: "X",
			Ts: offset + runStart, Dur: max64(lastRound-runStart, 1),
			Pid: 1, Tid: traceTidRuns, Args: args,
		})
		offset += max64(lastRound-runStart, 1)
		curRun = -1
	}

	for i := range events {
		ev := &events[i]
		round := int64(ev.Round)
		if ev.Run != curRun {
			if curRun >= 0 {
				// Truncated stream: the previous run never closed. End it
				// at its last observed position so the timeline stays
				// monotone.
				prev := events[i-1]
				closeRun(&prev)
			}
			curRun, runOp = ev.Run, ev.Op
			runStart, segStart, segMsgs, segDrops = round, round, ev.Counters.Messages, ev.Counters.Drops
			segPhase = ev.Phase
		}
		lastRound = round
		switch ev.Kind {
		case KindPhase:
			closeSeg(round, ev.Counters.Messages, ev.Counters.Drops)
			segPhase, segStart = ev.Phase, round
			segMsgs, segDrops = ev.Counters.Messages, ev.Counters.Drops
		case KindFault:
			action := "revive"
			if ev.Crash {
				action = "crash"
			}
			tr.TraceEvents = append(tr.TraceEvents, traceEvent{
				Name: fmt.Sprintf("%s node %d", action, ev.Node), Ph: "i",
				Ts: offset + round, Pid: 1, Tid: traceTidPhases, S: "t",
				Args: map[string]any{"alive": ev.Alive},
			})
		case KindRunEnd:
			closeRun(ev)
		}
	}
	if curRun >= 0 && len(events) > 0 {
		last := events[len(events)-1]
		closeRun(&last)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
