package experiments

import (
	"math"
	"strconv"

	"drrgossip/internal/agg"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/metrics"
	"drrgossip/internal/plot"
	"drrgossip/internal/sim"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// phase12 runs DRR + convergecast + root broadcast, the common setup of
// the Phase III experiments, and returns the forest, the tree-relay
// transport over it, the per-root max and sum vectors and the tree
// sizes by root slot.
func phase12(eng *sim.Engine, values []float64) (f *forest.Forest, tr gossip.Transport, covmax, sums, sizes []float64, err error) {
	dres, err := drr.Run(eng, drr.Options{})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	f = dres.Forest
	var cc convergecast.Scratch
	if covmax, err = cc.Max(eng, f, values); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if sums, sizes, err = cc.Sum(eng, f, values); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	rootTo, err := cc.BroadcastRootAddr(eng, f)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if tr, err = gossip.Relay(eng, f, rootTo); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return f, tr, covmax, sums, sizes, nil
}

// RunF5 validates Theorem 5: after the gossip procedure alone, a constant
// fraction of roots holds the true Max, across the paper's δ range.
func RunF5(cfg Config) (*Report, error) {
	n := 8192
	if cfg.Quick {
		n = 2048
	}
	trials := cfg.trials(3)
	losses := []float64{0, 0.05, 0.1, 0.125}
	tb := tablefmt.New("Theorem 5: fraction of roots holding Max after the gossip procedure",
		"delta", "fraction(mean)", "fraction(min)", "roots")
	var worstMean float64 = 1
	for _, loss := range losses {
		var fracs []float64
		roots := 0
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Hash(cfg.Seed, 0xF5, uint64(trial), math.Float64bits(loss))
			eng := sim.NewEngine(n, sim.Options{Seed: seed, Loss: loss})
			values := agg.GenUniform(n, 0, 1000, seed)
			f, tr, covmax, _, _, err := phase12(eng, values)
			if err != nil {
				return nil, err
			}
			res, err := gossip.Max(tr, covmax)
			if err != nil {
				return nil, err
			}
			want := agg.Exact(agg.Max, values, 0)
			have := 0
			for _, v := range res.AfterGossip {
				if v == want {
					have++
				}
			}
			fracs = append(fracs, float64(have)/float64(f.NumTrees()))
			roots = f.NumTrees()
		}
		mean := metrics.Mean(fracs)
		lo, _ := metrics.MinMax(fracs)
		tb.AddRow(loss, mean, lo, roots)
		if mean < worstMean {
			worstMean = mean
		}
	}
	verdicts := []Verdict{
		verdictf("a constant fraction of roots holds Max after gossip alone",
			worstMean >= 0.5,
			"worst mean fraction across δ: %v", worstMean),
	}
	return &Report{ID: "F5", Title: "Gossip procedure coverage", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}

// RunF6 validates Theorem 6: after the sampling procedure all roots hold
// Max, whp, across sizes and the δ range.
func RunF6(cfg Config) (*Report, error) {
	ns := cfg.sizes([]int{1024, 4096, 16384})
	trials := cfg.trials(3)
	losses := []float64{0, 0.125}
	tb := tablefmt.New("Theorem 6: roots holding Max after the sampling procedure",
		"n", "delta", "success runs", "total runs")
	allPass := true
	for _, n := range ns {
		for _, loss := range losses {
			success := 0
			for trial := 0; trial < trials; trial++ {
				seed := xrand.Hash(cfg.Seed, 0xF6, uint64(n), uint64(trial), math.Float64bits(loss))
				eng := sim.NewEngine(n, sim.Options{Seed: seed, Loss: loss})
				values := agg.GenUniform(n, 0, 1000, seed)
				_, tr, covmax, _, _, err := phase12(eng, values)
				if err != nil {
					return nil, err
				}
				res, err := gossip.Max(tr, covmax)
				if err != nil {
					return nil, err
				}
				want := agg.Exact(agg.Max, values, 0)
				ok := true
				for _, v := range res.Estimates {
					if v != want {
						ok = false
						break
					}
				}
				if ok {
					success++
				}
			}
			tb.AddRow(n, loss, success, trials)
			if success != trials {
				allPass = false
			}
		}
	}
	verdicts := []Verdict{
		verdictf("every run ends with all roots holding Max", allPass, "see table"),
	}
	return &Report{ID: "F6", Title: "Sampling procedure consensus", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}

// RunF7 validates Theorem 7/10 and Lemma 8: the relative error at the
// largest-tree root decays geometrically with gossip-ave rounds, as does
// the contribution potential Φ.
func RunF7(cfg Config) (*Report, error) {
	n := 4096
	if cfg.Quick {
		n = 1024
	}
	seed := xrand.Hash(cfg.Seed, 0xF7)
	eng := sim.NewEngine(n, sim.Options{Seed: seed})
	values := agg.GenUniform(n, 0, 100, seed)
	f, tr, _, sums, sizes, err := phase12(eng, values)
	if err != nil {
		return nil, err
	}
	z := f.LargestRoot()
	res, err := gossip.Ave(tr, sums, sizes,
		gossip.AveOptions{TrackRoot: z, TrackPotential: true})
	if err != nil {
		return nil, err
	}
	want := agg.Exact(agg.Average, values, 0)

	tb := tablefmt.New("Theorem 7 + Lemma 8: Gossip-ave convergence at the largest root",
		"round", "rel.err at z", "potential Φ")
	checkpoints := []int{0, 1, 2, 4, 8, 12, 16, 24, 32, len(res.Trajectory) - 1}
	seen := map[int]bool{}
	for _, t := range checkpoints {
		if t < 0 || t >= len(res.Trajectory) || seen[t] {
			continue
		}
		seen[t] = true
		tb.AddRow(t+1, agg.RelError(res.Trajectory[t], want), res.Potential[t])
	}

	// Render the decay curves alongside the checkpoint table.
	errs := make([]float64, len(res.Trajectory))
	for i, v := range res.Trajectory {
		errs[i] = agg.RelError(v, want)
	}
	chart := plot.New("Gossip-ave decay", true)
	chart.Add("rel.err@z", errs)
	chart.Add("potential", res.Potential)

	endErr := agg.RelError(res.Trajectory[len(res.Trajectory)-1], want)
	m := float64(f.NumTrees())
	phi0 := m - 1
	// Median per-round decay of Φ over the first half (before numerical
	// floor effects).
	var decays []float64
	half := len(res.Potential) / 2
	for t := 1; t <= half; t++ {
		prev := res.Potential[t-1]
		if prev > 0 {
			decays = append(decays, res.Potential[t]/prev)
		}
	}
	medDecay := metrics.Median(decays)
	verdicts := []Verdict{
		verdictf("relative error at z ends below n^-1",
			endErr < 1.0/float64(n),
			"end rel.err %v", endErr),
		verdictf("potential Φ decays geometrically (Lemma 8: E ratio < 1/2... median < 0.8 measured)",
			medDecay < 0.8,
			"median per-round Φ ratio %v", medDecay),
		verdictf("Φ falls by orders of magnitude from Φ0 = m-1",
			res.Potential[half] < phi0/64,
			"Φ0 %v -> Φ[%d] %v", phi0, half, res.Potential[half]),
	}
	return &Report{ID: "F7", Title: "Gossip-ave convergence", Tables: []string{tb.String(), chart.String()}, Verdicts: verdicts}, nil
}

// RunF8 reports the end-to-end per-phase cost breakdown of DRR-gossip-max
// and DRR-gossip-ave, with correctness at every node.
func RunF8(cfg Config) (*Report, error) {
	n := 8192
	if cfg.Quick {
		n = 2048
	}
	seed := xrand.Hash(cfg.Seed, 0xF8)
	values := agg.GenUniform(n, 0, 1000, seed)
	loss := 0.05

	maxEng := sim.NewEngine(n, sim.Options{Seed: seed, Loss: loss})
	maxRes, err := drrgossip.Run(maxEng, nil, drrgossip.Max, values)
	if err != nil {
		return nil, err
	}
	aveEng := sim.NewEngine(n, sim.Options{Seed: seed + 1, Loss: loss})
	aveRes, err := drrgossip.Run(aveEng, nil, drrgossip.Ave, values)
	if err != nil {
		return nil, err
	}

	tb := tablefmt.New("End-to-end DRR-gossip at n="+strconv.Itoa(n)+", δ=0.05: per-phase cost",
		"algorithm", "phase", "rounds", "messages")
	// Each row reads the engine's ledger by phase label.
	phases := []struct{ row, label string }{
		{"I DRR", drrgossip.PhaseDRR},
		{"II convergecast+bcast", drrgossip.PhaseAggregate},
		{"III gossip", drrgossip.PhaseGossip},
		{"final broadcast", drrgossip.PhaseBroadcast},
	}
	addPhases := func(name string, eng *sim.Engine) {
		for _, ph := range phases {
			c := eng.Billed(ph.label)
			tb.AddRow(name, ph.row, c.Rounds, c.Messages)
		}
		tb.AddRow(name, "total", eng.Stats().Rounds, eng.Stats().Messages)
	}
	addPhases("max", maxEng)
	addPhases("ave", aveEng)
	maxBill := maxEng.Stats()

	wantMax := agg.Exact(agg.Max, values, 0)
	wantAve := agg.Exact(agg.Average, values, 0)
	verdicts := []Verdict{
		verdictf("max correct and at consensus",
			maxRes.Value == wantMax && maxRes.Consensus,
			"value %v, want %v", maxRes.Value, wantMax),
		verdictf("ave within tolerance and at consensus",
			agg.RelError(aveRes.Value, wantAve) < 0.02 && aveRes.Consensus,
			"value %v, want %v", aveRes.Value, wantAve),
		// Phase I is the only superlinear-message phase (Θ(n loglog n) vs
		// Θ(n) for II/III — the growth itself is verified by T1/F4); here
		// we check the end-to-end totals stay within small multiples of
		// the paper's bounds at this size.
		verdictf("total messages stay within a small multiple of n loglog n",
			float64(maxBill.Messages) < 12*float64(n)*math.Log2(math.Log2(float64(n))),
			"total %d messages for n=%d", maxBill.Messages, n),
		verdictf("total rounds stay within a small multiple of log n",
			float64(maxBill.Rounds) < 20*math.Log2(float64(n)),
			"total %d rounds for n=%d", maxBill.Rounds, n),
	}
	return &Report{ID: "F8", Title: "End-to-end breakdown", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}
