// Telemetry: the observability layer end to end. A datacenter of
// machines reports per-node request latency; the operator asks for the
// p99 in-network and watches the session run: structured events
// mirrored to four sinks at once (a live per-phase table, an in-memory
// buffer, a JSON Lines file, live counters), a per-phase cost bill on
// the answer, and finally the whole session exported as a Chrome
// trace-event timeline.
//
//	go run ./examples/telemetry
//	# then open telemetry_trace.json in chrome://tracing or ui.perfetto.dev
//
// See docs/OBSERVABILITY.md for the event schema and sink API.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"drrgossip"
	"drrgossip/internal/telemetry"
	"drrgossip/internal/xrand"
)

// phaseTable is the live view: it folds each event's counter delta into
// a per-run×phase row and prints the row when the run leaves the phase.
type phaseTable struct {
	cur *phaseRow
}

type phaseRow struct {
	run      int
	phase    string
	rounds   int
	messages int64
	residual float64
}

func (t *phaseTable) Emit(ev *telemetry.Event) {
	if t.cur != nil {
		t.cur.rounds += ev.Delta.Rounds
		t.cur.messages += ev.Delta.Messages
		if !math.IsNaN(ev.Residual) {
			t.cur.residual = ev.Residual
		}
	}
	switch ev.Kind {
	case telemetry.KindPhase:
		t.flush()
		t.cur = &phaseRow{run: ev.Run, phase: ev.Phase, residual: math.NaN()}
	case telemetry.KindRunEnd:
		t.flush()
	}
}

func (t *phaseTable) flush() {
	if t.cur == nil {
		return
	}
	res := "      —"
	if !math.IsNaN(t.cur.residual) {
		res = fmt.Sprintf("%7.1e", t.cur.residual)
	}
	fmt.Printf("  run %2d  %-10s %6d rounds %9d msgs  residual %s\n",
		t.cur.run, t.cur.phase, t.cur.rounds, t.cur.messages, res)
	t.cur = nil
}

func main() {
	const machines = 4096
	const seed = 2718

	// Latency model: log-normal-ish — a healthy bulk around 12ms with a
	// slow tail.
	rng := xrand.New(seed)
	latency := make([]float64, machines)
	for i := range latency {
		z := rng.Float64() + rng.Float64() + rng.Float64() - 1.5 // ~normal
		latency[i] = 12 * math.Exp(0.4*z)
	}

	// Four sinks tap the same event stream: a phaseTable prints the live
	// view, a Buffer retains every event for the Chrome trace, a JSONL
	// writer streams them to disk, and Metrics folds them into live
	// counters (the same aggregator the -http endpoints serve).
	// RoundEvery 1 asks for full per-round fidelity — file sinks want
	// every round, not a sampled stride. Sinks are read-only taps:
	// attaching them leaves every result and counter bit-identical.
	var buf telemetry.Buffer
	f, err := os.Create("telemetry_events.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	jsonl := telemetry.NewJSONL(f)
	metrics := telemetry.NewMetrics()

	cfg := drrgossip.Config{
		N:    machines,
		Seed: seed,
		Loss: 0.02,
		Telemetry: &telemetry.Options{
			Sink:       telemetry.Multi(&phaseTable{}, &buf, jsonl, metrics),
			RoundEvery: 1,
		},
	}
	net, err := drrgossip.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("p99 latency over %d machines (δ=0.02) — live phase trace:\n\n", machines)
	ans, err := net.Run(drrgossip.QuantileOf(latency, 0.99, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\np99 latency ≈ %.2f ms   (converged %v, %d machines alive)\n",
		ans.Value, ans.Converged, ans.Alive)

	// The answer carries its own per-phase bill: PhaseCosts partitions
	// Cost exactly (the rows sum to the totals), attributing rounds and
	// messages to drr / aggregate / gossip / broadcast.
	fmt.Printf("\nper-phase cost attribution (sums to the %d rounds / %d msgs billed):\n",
		ans.Cost.Rounds, ans.Cost.Messages)
	for _, pc := range ans.PhaseCosts {
		fmt.Printf("  %-10s %6d rounds %9d msgs %6.1f%% of traffic\n",
			pc.Phase, pc.Rounds, pc.Messages,
			100*float64(pc.Messages)/float64(ans.Cost.Messages))
	}

	// The Metrics sink kept live counters the whole time — the same
	// numbers an -http listener would serve on /metrics mid-run.
	snap := metrics.Snapshot()
	fmt.Printf("\nlive counters (telemetry.Metrics snapshot):\n")
	fmt.Printf("  runs %d started / %d finished, %d rounds, %d messages, %d events\n",
		snap["runs_started"], snap["runs_finished"],
		snap["rounds"], snap["messages"], snap["events"])

	// Export the buffered events as a Chrome trace-event timeline: run
	// spans on one track, phase spans on another, faults as instants.
	if err := jsonl.Close(); err != nil {
		log.Fatal(err)
	}
	tf, err := os.Create("telemetry_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	err = telemetry.WriteChromeTrace(tf, buf.Events())
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote telemetry_events.jsonl (%d events) and telemetry_trace.json\n", len(buf.Events()))
	fmt.Printf("open the trace in chrome://tracing or https://ui.perfetto.dev\n")
}
