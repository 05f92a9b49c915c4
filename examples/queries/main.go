// Queries: the session API end to end — one reusable drrgossip.Network
// answers a dashboard-style batch of typed queries (extrema, average,
// two quantiles, a histogram) over a Chord overlay while a fault plan
// churns the membership, with a telemetry sink streaming live
// progress. The point of the session: the overlay is built once and the
// fault plan is measured/bound once per pipeline shape, no matter how
// many Rank steps the quantiles and the histogram spend.
//
//	go run ./examples/queries
package main

import (
	"fmt"
	"log"
	"math"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/telemetry"
)

// progress prints a line per round event, with the number of fault
// events (crash/revive transitions) the run has seen so far.
type progress struct {
	faults int
}

func (p *progress) Emit(ev *telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindRunStart:
		p.faults = 0
	case telemetry.KindFault:
		p.faults++
	case telemetry.KindRound:
		fmt.Printf("  … run %2d round %6d [%-9s] alive %4d, %7d msgs, %d fault events\n",
			ev.Run, ev.Round, ev.Phase, ev.Alive, ev.Counters.Messages, p.faults)
	}
}

func main() {
	const n = 1024
	plan, err := drrgossip.ParseFaultPlan("crash:0.1@0.5;rejoin@0.9")
	if err != nil {
		log.Fatal(err)
	}
	// Live progress: one line every 2000 simulated rounds. Telemetry is a
	// read-only tap — results are bit-identical with or without it.
	cfg := drrgossip.Config{N: n, Seed: 7, Topology: drrgossip.Chord, Faults: plan,
		Telemetry: &telemetry.Options{Sink: &progress{}, RoundEvery: 2000}}

	// Per-node metric: request latencies, uniform in [0, 500) ms.
	latency := agg.GenUniform(n, 0, 500, 11)

	net, err := drrgossip.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("latency dashboard over %d nodes (chord overlay, faults %s)\n\n", n, plan)
	batch := []drrgossip.Query{
		drrgossip.MaxOf(latency),
		drrgossip.MinOf(latency),
		drrgossip.AverageOf(latency),
		drrgossip.QuantileOf(latency, 0.50, 1.0),
		drrgossip.QuantileOf(latency, 0.99, 1.0),
		drrgossip.HistogramOf(latency, []float64{100, 200, 300, 400}),
	}
	answers, bill, err := net.RunAll(batch)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nquery           answer                                     runs  rounds  msgs/node")
	fmt.Println("---------------------------------------------------------------------------------")
	for i, a := range answers {
		var rendered string
		switch a.Op {
		case drrgossip.OpQuantile:
			rendered = fmt.Sprintf("p%02.0f ≈ %.1f ms (converged %v)", batch[i].Arg*100, a.Value, a.Converged)
		case drrgossip.OpHistogram:
			rendered = fmt.Sprintf("buckets %v", trim(a.Counts))
		default:
			rendered = fmt.Sprintf("%.2f ms (consensus %v)", a.Value, a.Consensus)
		}
		fmt.Printf("%-15s %-42s %4d  %6d  %9.1f\n",
			a.Op, rendered, a.Cost.Runs, a.Cost.Rounds, float64(a.Cost.Messages)/n)
	}

	st := net.Stats()
	fmt.Printf("\nbatch bill: %d protocol runs, %d rounds, %.1f msgs/node, %d drops\n",
		bill.Runs, bill.Rounds, float64(bill.Messages)/n, bill.Drops)
	fmt.Printf("session:    %d queries, %d protocol runs total, %d horizon pre-runs, %d plan binds, overlay built once: %v\n",
		st.Queries, st.ProtocolRuns, st.HorizonRuns, st.PlanBinds, st.OverlayBuilt)
	fmt.Printf("exact p99 for reference: %.1f ms\n", agg.Quantile(latency, 0.99))
}

// trim rounds bucket counts for display.
func trim(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(math.Round(x))
	}
	return out
}
