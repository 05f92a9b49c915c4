package experiments

import (
	"fmt"
	"math"
	"time"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/tablefmt"
)

// RunQB1 measures what the session API amortizes: a Quantile (Min + Max
// + Count + bisection Rank steps) and a Histogram (one Rank per edge)
// run against one drrgossip.Network on a sparse overlay with a
// fractional-timing fault plan — the configuration where the pre-session
// facade paid one overlay build plus one horizon-measurement pre-run
// *per internal step*. The verdicts pin the amortized accounting: one
// overlay build per session, at most one horizon pre-run and one plan
// bind per pipeline shape, correct answers throughout. The table (and
// its BENCH_QB1.json form) tracks the cost trajectory over time.
func RunQB1(cfg Config) (*Report, error) {
	n := 512
	if cfg.Quick {
		n = 256
	}
	values := agg.GenUniform(n, 0, 1000, cfg.Seed+0xAB)
	plan, err := drrgossip.ParseFaultPlan("crash:0.15@0.5")
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "QB1", Title: "Session amortization: batched queries reuse overlay and fault horizon"}
	tb := tablefmt.New(fmt.Sprintf("QB1: session-amortized composite queries (n=%d, chord, crash:0.15@0.5)", n),
		"query", "runs", "rounds", "msg/n", "drops", "pre-runs", "binds", "elapsed")

	net, err := drrgossip.New(drrgossip.Config{N: n, Seed: cfg.Seed + 0xB1, Topology: drrgossip.Chord,
		Faults: plan, Telemetry: cfg.sessionTelemetry("QB1", 1000)})
	if err != nil {
		return nil, err
	}

	// The last edge sits above the whole value range, so the open bucket
	// must come out (approximately) empty — the sharpest consistency check
	// on the Count-measured population under a mid-run crash.
	edges := []float64{250, 500, 750, 1000}
	start := time.Now()
	hist, err := net.Run(drrgossip.HistogramOf(values, edges))
	if err != nil {
		return nil, fmt.Errorf("QB1 histogram: %w", err)
	}
	histStats := net.Stats()
	histElapsed := time.Since(start)
	tb.AddRow("histogram(4 edges)", float64(hist.Cost.Runs), float64(hist.Cost.Rounds),
		float64(hist.Cost.Messages)/float64(n), float64(hist.Cost.Drops),
		float64(histStats.HorizonRuns), float64(histStats.PlanBinds), histElapsed.Seconds())

	start = time.Now()
	quant, err := net.Run(drrgossip.QuantileOf(values, 0.9, 2.0))
	if err != nil {
		return nil, fmt.Errorf("QB1 quantile: %w", err)
	}
	finalStats := net.Stats()
	quantElapsed := time.Since(start)
	tb.AddRow("quantile(0.9, tol 2)", float64(quant.Cost.Runs), float64(quant.Cost.Rounds),
		float64(quant.Cost.Messages)/float64(n), float64(quant.Cost.Drops),
		float64(finalStats.HorizonRuns-histStats.HorizonRuns),
		float64(finalStats.PlanBinds-histStats.PlanBinds), quantElapsed.Seconds())
	tb.AddNote("pre-runs/binds are the session's horizon measurements and fault-plan bindings added by each query; the pre-session facade paid one of each per internal Rank step")
	rep.Tables = append(rep.Tables, tb.String())

	total := 0.0
	for _, c := range hist.Counts {
		total += c
	}
	openBucket := hist.Counts[len(hist.Counts)-1]
	wantQ := agg.Quantile(values, 0.9)

	// The same batch through RunAll's opt-in concurrency on a fresh
	// session: answers must be bit-identical to the sequential ones (the
	// parallel runner's determinism contract).
	parNet, err := drrgossip.New(drrgossip.Config{N: n, Seed: cfg.Seed + 0xB1, Topology: drrgossip.Chord,
		Faults: plan, Telemetry: cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	parAnswers, _, err := parNet.RunAll([]drrgossip.Query{
		drrgossip.HistogramOf(values, edges),
		drrgossip.QuantileOf(values, 0.9, 2.0),
	}, drrgossip.BatchOptions{Parallelism: 2})
	if err != nil {
		return nil, fmt.Errorf("QB1 parallel batch: %w", err)
	}
	parallelIdentical := parAnswers[0].Cost == hist.Cost && parAnswers[1].Cost == quant.Cost &&
		parAnswers[1].Value == quant.Value && len(parAnswers[0].Counts) == len(hist.Counts)
	if parallelIdentical {
		for i := range hist.Counts {
			if parAnswers[0].Counts[i] != hist.Counts[i] {
				parallelIdentical = false
			}
		}
	}

	// One pipeline shape for the histogram: the sum pipeline behind every
	// edge's rank and the count that measures the open bucket's
	// population.
	histOnce := histStats.HorizonRuns == 1 && histStats.PlanBinds == 1 &&
		histStats.ProtocolRuns == 1+len(edges)+1
	// Quantile adds the max shape (min and max) to the sum binding the
	// histogram already created: two pipeline shapes for the whole
	// session.
	quantAmortized := finalStats.HorizonRuns == 2 && finalStats.PlanBinds == 2
	rep.Verdicts = append(rep.Verdicts,
		verdictf("histogram binds the fault plan once per pipeline shape (rank and count share the sum pipeline), not per edge",
			histOnce, "pre-runs %d, binds %d, protocol runs %d for %d edges",
			histStats.HorizonRuns, histStats.PlanBinds, histStats.ProtocolRuns, len(edges)),
		verdictf("quantile reuses the session's sum binding (2 pipeline shapes total, not one per step)",
			quantAmortized, "session pre-runs %d, binds %d after %d quantile runs",
			finalStats.HorizonRuns, finalStats.PlanBinds, quant.Cost.Runs),
		verdictf("histogram buckets stay consistent under the mid-run crash (non-negative, empty open bucket)",
			nonNegative(hist.Counts) && math.Abs(openBucket) < 0.5,
			"counts %v (total %.0f, final alive %d)", hist.Counts, total, hist.Alive),
		verdictf("quantile converges within tolerance and tracks the exact 0.9-quantile",
			quant.Converged && math.Abs(quant.Value-wantQ) < 25,
			"value %.4g (exact %.4g), converged %v in %d runs", quant.Value, wantQ, quant.Converged, quant.Cost.Runs),
		verdictf("RunAll with Parallelism 2 returns answers bit-identical to sequential execution",
			parallelIdentical, "parallel quantile %.6g / cost %+v vs sequential %.6g / %+v",
			parAnswers[1].Value, parAnswers[1].Cost, quant.Value, quant.Cost),
	)
	return rep, nil
}

func nonNegative(xs []float64) bool {
	for _, x := range xs {
		if x < 0 {
			return false
		}
	}
	return true
}
