// AS1 — the asynchronous baseline study: DRR-gossip's synchronous
// message bill against the classical asynchronous pairwise-averaging
// family (Mode: Async) on the same populations. The comparison is the
// positioning argument of the paper made falsifiable: pairwise averaging
// needs Θ(n log n) exchanges to reach an ε-ball on well-mixing graphs
// (Boyd et al.), every exchange bills 2 messages in the shared
// accounting unit, and DRR-gossip computes the exact average for
// O(n log log n) messages — so the async family's bill must come out
// strictly higher on the complete graph. The sweep also ranks the
// peer-selection policies (uniform vs greedy-eavesdropping vs
// sample-greedy) on sparse overlays, where the greedy policies' larger
// per-exchange progress is the whole point of their papers.
package experiments

import (
	"fmt"
	"math"
	"time"

	facade "drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/metrics"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// as1Eps is the convergence ball for every async run: the spread of the
// alive estimates must close to within 1e-6 absolute (values are drawn
// from [0,1), so absolute and relative ε coincide up to a constant).
const as1Eps = 1e-6

// as1N returns the comparison size: 10^4 nodes at the full tier (the
// acceptance bar), 2048 in quick mode.
func as1N(cfg Config) int {
	if cfg.Quick {
		return 2048
	}
	return 10000
}

// as1Ladder returns the uniform-on-complete scaling ladder for the
// exchanges-per-node fit.
func as1Ladder(cfg Config) []int {
	if cfg.Quick {
		return []int{256, 1024, 4096}
	}
	return []int{256, 1024, 4096, 10000}
}

// as1Run executes one async average through the facade and checks its
// value against the exact mean of the population.
func as1Run(cfg Config, topo facade.Topology, peer string, n int, values []float64) (*facade.Answer, time.Duration, error) {
	fc := facade.Config{N: n, Seed: xrand.Hash(cfg.Seed, 0xA51, uint64(n)), Topology: topo,
		Mode: facade.Async, AsyncPeer: peer, AsyncEps: as1Eps,
		Telemetry: cfg.sessionTelemetry("AS1 "+topo.String()+"/"+peer, 10*n)}
	net, err := facade.New(fc)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	ans, err := net.Run(facade.AverageOf(values))
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	want := agg.Exact(agg.Average, values, 0)
	// A converged run sits inside the ε-ball; a capped run (slow-mixing
	// topologies) may legitimately be far out, but its mean must still be
	// intact — pairwise averaging conserves the population mean exactly.
	tol := 1e-4
	if ans.Converged {
		tol = 10 * as1Eps
	}
	if agg.RelError(ans.Value, want) > tol {
		return nil, 0, fmt.Errorf("AS1 %s/%s n=%d: mean drifted to %v (exact %v)", topo, peer, n, ans.Value, want)
	}
	return ans, elapsed, nil
}

// RunAS1 runs the asynchronous baseline study.
func RunAS1(cfg Config) (*Report, error) {
	rep := &Report{ID: "AS1", Title: "Async baseline: DRR vs pairwise averaging (uniform, GGE, sample-greedy)"}
	n := as1N(cfg)
	values := agg.GenUniform(n, 0, 1, xrand.Hash(cfg.Seed, 0xA52, uint64(n)))

	// Table 1: the head-to-head at fixed n. DRR runs the synchronous
	// pipeline; the async rows run pairwise averaging to the ε-ball (or
	// their event cap, reported honestly in the conv column).
	tb := tablefmt.New(fmt.Sprintf("AS1: messages to ε=%.0e at n=%d (async exchanges bill 2 messages each)", as1Eps, n),
		"topology", "protocol", "conv", "exchanges", "exch/n", "msgs", "msgs/n", "clock", "elapsed")

	topos := []facade.Topology{facade.Complete, facade.Chord, facade.SmallWorld, facade.Torus}
	// answers[topo][peer]; drr[topo] carries the synchronous reference row.
	answers := map[string]map[string]*facade.Answer{}
	for _, topo := range topos {
		answers[topo.String()] = map[string]*facade.Answer{}

		net, err := facade.New(facade.Config{N: n, Seed: xrand.Hash(cfg.Seed, 0xA51, uint64(n)),
			Topology: topo, Telemetry: cfg.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("AS1 drr %s: %w", topo, err)
		}
		start := time.Now()
		drr, err := net.Run(facade.AverageOf(values))
		if err != nil {
			return nil, fmt.Errorf("AS1 drr %s: %w", topo, err)
		}
		drrElapsed := time.Since(start)
		want := agg.Exact(agg.Average, values, 0)
		if agg.RelError(drr.Value, want) > 1e-6 {
			return nil, fmt.Errorf("AS1 drr %s: value %v drifted from exact %v", topo, drr.Value, want)
		}
		answers[topo.String()]["drr"] = drr
		tb.AddRow(topo.String(), "drr (sync)", "exact", "-", "-",
			float64(drr.Cost.Messages), float64(drr.Cost.Messages)/float64(n), "-", drrElapsed.Seconds())

		for _, peer := range []string{"uniform", "gge", "samplegreedy"} {
			if peer == "gge" && topo == facade.Complete {
				// GGE's eavesdrop cache is O(edges) — O(n²) here; the facade
				// rejects the combination, so the row is a dash, not a run.
				tb.AddRow(topo.String(), peer, "n/a", "-", "-", "-", "-", "-", "-")
				continue
			}
			ans, elapsed, err := as1Run(cfg, topo, peer, n, values)
			if err != nil {
				return nil, err
			}
			answers[topo.String()][peer] = ans
			conv := "yes"
			if !ans.Converged {
				conv = "cap"
			}
			tb.AddRow(topo.String(), peer, conv, float64(ans.Exchanges), float64(ans.Exchanges)/float64(n),
				float64(ans.Cost.Messages), float64(ans.Cost.Messages)/float64(n), ans.Cost.Clock, elapsed.Seconds())
		}
	}
	tb.AddNote("conv=cap rows hit the event cap before the ε-ball: pairwise averaging needs Θ(n²) exchanges on the 2-D torus (the geographic-gossip motivation), and uniform selection mixes too slowly on the small world; their exchange columns are a lower bound on the true cost")
	tb.AddNote("gge on complete is refused by construction: its eavesdrop cache is O(edges) = O(n²) there")
	tb.AddNote("elapsed is host-dependent; every other column is deterministic in the seed")
	rep.Tables = append(rep.Tables, tb.String())

	// Table 2: uniform-on-complete ladder — exchanges per node against
	// log n (the Θ(n log n) total of Boyd et al.).
	lt := tablefmt.New("AS1: uniform pairwise on complete, exchanges to ε vs n",
		"n", "exchanges", "exch/n", "msgs", "clock")
	ladder := as1Ladder(cfg)
	perNode := make([]float64, 0, len(ladder))
	for _, ln := range ladder {
		lv := agg.GenUniform(ln, 0, 1, xrand.Hash(cfg.Seed, 0xA52, uint64(ln)))
		ans, _, err := as1Run(cfg, facade.Complete, "uniform", ln, lv)
		if err != nil {
			return nil, err
		}
		if !ans.Converged {
			return nil, fmt.Errorf("AS1 ladder n=%d: uniform on complete failed to converge", ln)
		}
		perNode = append(perNode, float64(ans.Exchanges)/float64(ln))
		lt.AddRow(ln, float64(ans.Exchanges), float64(ans.Exchanges)/float64(ln),
			float64(ans.Cost.Messages), ans.Cost.Clock)
	}
	rep.Tables = append(rep.Tables, lt.String())

	// Determinism: the async engine is strictly sequential, so repeats are
	// bit-identical structurally — pinned here end to end through the
	// facade.
	det, _, err := as1Run(cfg, facade.Complete, "uniform", n, values)
	if err != nil {
		return nil, err
	}

	comp, sw := answers["complete"], answers["smallworld"]
	uni := comp["uniform"]
	detOK := sameAsyncAnswer(det, uni)
	rep.Verdicts = append(rep.Verdicts,
		verdictf(fmt.Sprintf("uniform pairwise converges to ε=%.0e on complete at n=%d, mean exact", as1Eps, n),
			uni.Converged && agg.RelError(uni.Value, agg.Exact(agg.Average, values, 0)) <= 10*as1Eps,
			"converged=%v after %d exchanges (%d events), value %.9g", uni.Converged, uni.Exchanges, uni.Cost.Rounds, uni.Value),
		verdictf("uniform on complete: exchanges/node grows like log n, not O(1) (the Θ(n log n) total)",
			metrics.CloserShape(floats(ladder), perNode, metrics.ShapeLogN, metrics.ShapeConst),
			"exch/n %v -> %v over n %v -> %v", perNode[0], perNode[len(perNode)-1], ladder[0], ladder[len(ladder)-1]),
		verdictf("smallworld: greedy policies beat uniform selection (strictly fewer exchanges to ε)",
			sw["gge"].Exchanges < sw["uniform"].Exchanges && sw["samplegreedy"].Exchanges < sw["uniform"].Exchanges,
			"uniform %d (conv=%v), gge %d (conv=%v), samplegreedy %d (conv=%v)",
			sw["uniform"].Exchanges, sw["uniform"].Converged, sw["gge"].Exchanges, sw["gge"].Converged,
			sw["samplegreedy"].Exchanges, sw["samplegreedy"].Converged),
		verdictf("complete: DRR's synchronous bill undercuts uniform pairwise averaging (O(n loglog n) vs Θ(n log n) messages)",
			comp["drr"].Cost.Messages < uni.Cost.Messages,
			"drr %d msgs (%.1f/n) vs uniform pairwise %d msgs (%.1f/n)",
			comp["drr"].Cost.Messages, float64(comp["drr"].Cost.Messages)/float64(n),
			uni.Cost.Messages, float64(uni.Cost.Messages)/float64(n)),
		verdictf("async runs are bit-identical across repeats",
			detOK, "repeat value %.9g cost %+v", det.Value, det.Cost),
	)
	return rep, nil
}

// sameAsyncAnswer reports whether two async runs produced bit-identical
// results in every deterministic field.
func sameAsyncAnswer(a, b *facade.Answer) bool {
	return a.Value == b.Value && a.Cost == b.Cost && a.Exchanges == b.Exchanges &&
		a.Converged == b.Converged && a.Alive == b.Alive && a.Consensus == b.Consensus &&
		math.Abs(a.Cost.Clock-b.Cost.Clock) == 0
}
