package experiments

import (
	"math"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/drr"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/graph"
	"drrgossip/internal/kempe"
	"drrgossip/internal/metrics"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// RunF9 validates Theorem 11: Local-DRR trees have height O(log n) on
// arbitrary graphs.
func RunF9(cfg Config) (*Report, error) {
	ns := cfg.sizes([]int{1024, 4096, 16384})
	trials := cfg.trials(3)
	builders := []struct {
		name  string
		build func(n int, seed uint64) *graph.Graph
	}{
		{"ring", func(n int, _ uint64) *graph.Graph { return graph.Ring(n) }},
		{"torus", func(n int, _ uint64) *graph.Graph {
			side := int(math.Round(math.Sqrt(float64(n))))
			return graph.Torus(side, side)
		}},
		{"regular(d=8)", func(n int, seed uint64) *graph.Graph { return graph.MustRandomRegular(n, 8, seed) }},
		{"ba(m=3)", func(n int, seed uint64) *graph.Graph { return graph.BarabasiAlbert(n, 3, seed) }},
		{"chord", func(n int, seed uint64) *graph.Graph {
			return chord.MustNew(n, chord.Options{Bits: 40, Placement: chord.Hashed, Seed: seed}).Graph()
		}},
	}
	tb := tablefmt.New("Theorem 11: Local-DRR max tree height vs log n",
		"graph", "n", "height(mean)", "height(max)", "log n", "mean/log n")
	heightsByGraph := map[string][]float64{}
	worstRatio := 0.0
	for _, b := range builders {
		for _, n := range ns {
			var hs []float64
			for trial := 0; trial < trials; trial++ {
				seed := xrand.Hash(cfg.Seed, 0xF9, uint64(n), uint64(trial))
				g := b.build(n, seed)
				eng := sim.NewEngine(g.N(), sim.Options{Seed: seed})
				res, err := drr.RunLocal(eng, g, drr.Options{})
				if err != nil {
					return nil, err
				}
				hs = append(hs, float64(res.Forest.MaxHeight()))
			}
			mean := metrics.Mean(hs)
			_, worst := metrics.MinMax(hs)
			ref := math.Log2(float64(n))
			tb.AddRow(b.name, n, mean, worst, ref, mean/ref)
			heightsByGraph[b.name] = append(heightsByGraph[b.name], mean)
			if r := worst / ref; r > worstRatio {
				worstRatio = r
			}
		}
	}
	// Growth check: over a 16x increase in n, log n grows by a factor
	// ~1.4 and sqrt(n) by 4; require clearly sublinear growth on every
	// graph (the constant-times-log bound is the verdict above).
	sublinear := true
	detail := ""
	for _, b := range builders {
		hs := heightsByGraph[b.name]
		if len(hs) < 2 {
			continue
		}
		growth := hs[len(hs)-1] / math.Max(hs[0], 1)
		nGrowth := float64(ns[len(ns)-1]) / float64(ns[0])
		if growth*growth*growth > nGrowth { // growth > n^(1/3)
			sublinear = false
			detail += b.name + " "
		}
	}
	verdicts := []Verdict{
		verdictf("heights bounded by a constant times log n on every graph",
			worstRatio < 6, "worst height/log n = %v", worstRatio),
		verdictf("height growth is clearly sublinear on every graph",
			sublinear, "graphs over n^(1/3) growth: [%s]", detail),
	}
	return &Report{ID: "F9", Title: "Local-DRR heights", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}

// RunF10 validates Theorem 13: the Local-DRR tree count concentrates on
// Σ_i 1/(d_i + 1).
func RunF10(cfg Config) (*Report, error) {
	n := 8192
	if cfg.Quick {
		n = 2048
	}
	trials := cfg.trials(5)
	side := int(math.Round(math.Sqrt(float64(n))))
	builders := []struct {
		name  string
		build func(seed uint64) *graph.Graph
	}{
		{"ring", func(_ uint64) *graph.Graph { return graph.Ring(n) }},
		{"torus", func(_ uint64) *graph.Graph { return graph.Torus(side, side) }},
		{"regular(d=4)", func(seed uint64) *graph.Graph { return graph.MustRandomRegular(n, 4, seed) }},
		{"regular(d=16)", func(seed uint64) *graph.Graph { return graph.MustRandomRegular(n, 16, seed) }},
		{"gnp", func(seed uint64) *graph.Graph { return graph.ErdosRenyi(n, 8/float64(n), seed) }},
		// Heavy-tailed degrees: Theorem 13's Σ 1/(d_i+1) still predicts
		// the tree count exactly, well beyond the regular case.
		{"ba(m=4)", func(seed uint64) *graph.Graph { return graph.BarabasiAlbert(n, 4, seed) }},
	}
	tb := tablefmt.New("Theorem 13: Local-DRR tree count vs Σ 1/(d_i+1)",
		"graph", "trees(mean)", "Σ 1/(d+1)", "ratio")
	allClose := true
	for _, b := range builders {
		var trees []float64
		expect := 0.0
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Hash(cfg.Seed, 0xFA, uint64(trial))
			g := b.build(seed)
			expect = g.HarmonicDegreeSum()
			eng := sim.NewEngine(g.N(), sim.Options{Seed: seed})
			res, err := drr.RunLocal(eng, g, drr.Options{})
			if err != nil {
				return nil, err
			}
			trees = append(trees, float64(res.Forest.NumTrees()))
		}
		mean := metrics.Mean(trees)
		ratio := mean / expect
		tb.AddRow(b.name, mean, expect, ratio)
		if ratio < 0.9 || ratio > 1.1 {
			allClose = false
		}
	}
	verdicts := []Verdict{
		verdictf("tree counts within 10% of Σ 1/(d_i+1) on every graph",
			allClose, "see table"),
	}
	return &Report{ID: "F10", Title: "Local-DRR tree count", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}

// RunF11 validates Theorem 14 and the Chord corollary: on Chord,
// DRR-gossip takes O(log^2 n) time and O(n log n) messages, while uniform
// gossip takes O(log^2 n) time and O(n log^2 n) messages.
func RunF11(cfg Config) (*Report, error) {
	ns := cfg.sizes([]int{256, 512, 1024, 2048})
	trials := cfg.trials(2)
	tb := tablefmt.New("Theorem 14 (Chord): DRR-gossip vs uniform gossip",
		"n", "alg", "rounds", "msgs/n", "correct")
	var drrMsgs, kemMsgs, drrRounds, kemRounds []float64
	for _, n := range ns {
		var dm, km, dr, kr []float64
		okAll := true
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Hash(cfg.Seed, 0xFB, uint64(n), uint64(trial))
			ring, err := chord.New(n, chord.Options{Bits: 40})
			if err != nil {
				return nil, err
			}
			values := agg.GenUniform(n, 0, 1000, seed)
			want := agg.Exact(agg.Max, values, 0)

			deng := sim.NewEngine(n, sim.Options{Seed: seed})
			dres, err := drrgossip.Run(deng, overlay.NewChord(ring), drrgossip.Max, values)
			if err != nil {
				return nil, err
			}
			dm = append(dm, float64(deng.Stats().Messages)/float64(n))
			dr = append(dr, float64(deng.Stats().Rounds))
			if dres.Value != want || !dres.Consensus {
				okAll = false
			}

			keng := sim.NewEngine(n, sim.Options{Seed: seed + 1})
			kres, err := kempe.PushMaxOnChord(keng, ring, values)
			if err != nil {
				return nil, err
			}
			km = append(km, float64(keng.Stats().Messages)/float64(n))
			kr = append(kr, float64(keng.Stats().Rounds))
			for _, v := range kres.Estimates {
				if v != want {
					okAll = false
					break
				}
			}
		}
		tb.AddRow(n, "drr-gossip", metrics.Mean(dr), metrics.Mean(dm), okAll)
		tb.AddRow(n, "uniform", metrics.Mean(kr), metrics.Mean(km), okAll)
		drrMsgs = append(drrMsgs, metrics.Mean(dm))
		kemMsgs = append(kemMsgs, metrics.Mean(km))
		drrRounds = append(drrRounds, metrics.Mean(dr))
		kemRounds = append(kemRounds, metrics.Mean(kr))
	}
	nf := floats(ns)
	last := len(ns) - 1
	verdicts := []Verdict{
		verdictf("drr-gossip messages/n grow like log n, not log^2 n",
			metrics.CloserShape(nf, drrMsgs, metrics.ShapeLogN, metrics.ShapeLog2N),
			"msgs/n %v -> %v", drrMsgs[0], drrMsgs[last]),
		verdictf("uniform gossip messages/n grow like log^2 n, not log n",
			metrics.CloserShape(nf, kemMsgs, metrics.ShapeLog2N, metrics.ShapeLogN),
			"msgs/n %v -> %v", kemMsgs[0], kemMsgs[last]),
		// The sweep range is too narrow to separate log^2 from log by
		// fitting (additive constants dominate at n <= 2048), so assert
		// the defining property instead: rounds per log n increase with n
		// (super-logarithmic), within a constant-times-log^2 envelope.
		verdictf("both algorithms' time is super-logarithmic within an O(log^2 n) envelope",
			drrRounds[last]/math.Log2(float64(ns[last])) > drrRounds[0]/math.Log2(float64(ns[0])) &&
				kemRounds[last]/math.Log2(float64(ns[last])) > kemRounds[0]/math.Log2(float64(ns[0])) &&
				drrRounds[last] < 30*math.Pow(math.Log2(float64(ns[last])), 2) &&
				kemRounds[last] < 30*math.Pow(math.Log2(float64(ns[last])), 2),
			"rounds/log n: drr %v -> %v, uniform %v -> %v",
			drrRounds[0]/math.Log2(float64(ns[0])), drrRounds[last]/math.Log2(float64(ns[last])),
			kemRounds[0]/math.Log2(float64(ns[0])), kemRounds[last]/math.Log2(float64(ns[last]))),
		verdictf("drr-gossip wins messages at every size by a growing factor",
			kemMsgs[0] > drrMsgs[0] && kemMsgs[last] > drrMsgs[last] &&
				kemMsgs[last]/drrMsgs[last] > kemMsgs[0]/drrMsgs[0],
			"uniform/drr message ratio %v -> %v", kemMsgs[0]/drrMsgs[0], kemMsgs[last]/drrMsgs[last]),
	}
	return &Report{ID: "F11", Title: "Chord comparison", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}
