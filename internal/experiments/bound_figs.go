package experiments

import (
	"strconv"

	"drrgossip/internal/agg"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/karp"
	"drrgossip/internal/metrics"
	"drrgossip/internal/oblivious"
	"drrgossip/internal/sim"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// RunF12 exhibits the Theorem 15 separation: address-oblivious aggregate
// computation costs Θ(n log n) messages (measured against the proof's
// knowledge criterion with the best oblivious protocol), while
// single-rumor spreading (Karp et al.) and non-address-oblivious
// DRR-gossip both cost Θ(n loglog n).
func RunF12(cfg Config) (*Report, error) {
	ns := cfg.sizes([]int{512, 1024, 2048, 4096, 8192})
	trials := cfg.trials(3)
	tb := tablefmt.New("Theorem 15: per-node messages to compute Max",
		"n", "oblivious(half)", "oblivious(all)", "karp rumor", "drr-gossip")
	var obl, oblAll, rumor, drrm []float64
	for _, n := range ns {
		var o, oa, ru, dg []float64
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Hash(cfg.Seed, 0xFC, uint64(n), uint64(trial))

			// Address-oblivious aggregate computation: knowledge-set
			// push-pull against the adversary criterion.
			ores, err := oblivious.Run(n, oblivious.Options{Protocol: oblivious.PushPull, Seed: seed})
			if err != nil {
				return nil, err
			}
			if ores.RoundsHalf < 0 || ores.RoundsAll < 0 {
				return nil, errIncomplete(n)
			}
			o = append(o, float64(ores.MessagesHalf)/float64(n))
			oa = append(oa, float64(ores.MessagesAll)/float64(n))

			// Rumor spreading: one value to everyone.
			kres, err := karp.Spread(sim.NewEngine(n, sim.Options{Seed: seed + 1}), 0)
			if err != nil {
				return nil, err
			}
			ru = append(ru, float64(kres.Transmissions)/float64(n))

			// Non-address-oblivious aggregate computation: DRR-gossip.
			values := agg.GenUniform(n, 0, 100, seed)
			deng := sim.NewEngine(n, sim.Options{Seed: seed + 2})
			if _, err := drrgossip.Run(deng, nil, drrgossip.Max, values); err != nil {
				return nil, err
			}
			dg = append(dg, float64(deng.Stats().Messages)/float64(n))
		}
		tb.AddRow(n, metrics.Mean(o), metrics.Mean(oa), metrics.Mean(ru), metrics.Mean(dg))
		obl = append(obl, metrics.Mean(o))
		oblAll = append(oblAll, metrics.Mean(oa))
		rumor = append(rumor, metrics.Mean(ru))
		drrm = append(drrm, metrics.Mean(dg))
	}
	nf := floats(ns)
	last := len(ns) - 1
	verdicts := []Verdict{
		verdictf("oblivious aggregate messages grow like log n, not loglog n",
			metrics.CloserShape(nf, obl, metrics.ShapeLogN, metrics.ShapeLogLogN),
			"msgs/n %v -> %v", obl[0], obl[last]),
		verdictf("rumor spreading grows like loglog n, not log n",
			metrics.CloserShape(nf, rumor, metrics.ShapeLogLogN, metrics.ShapeLogN),
			"msgs/n %v -> %v", rumor[0], rumor[last]),
		verdictf("drr-gossip grows like loglog n, not log n",
			metrics.CloserShape(nf, drrm, metrics.ShapeLogLogN, metrics.ShapeLogN),
			"msgs/n %v -> %v", drrm[0], drrm[last]),
		verdictf("aggregation strictly harder than rumor spreading obliviously: gap widens",
			obl[last]-rumor[last] > obl[0]-rumor[0],
			"oblivious-rumor gap %v -> %v msgs/node", obl[0]-rumor[0], obl[last]-rumor[last]),
	}
	return &Report{ID: "F12", Title: "Lower-bound separation", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}

type incompleteError int

func (e incompleteError) Error() string {
	return "experiments: oblivious run never met the criterion at n=" + strconv.Itoa(int(e))
}

func errIncomplete(n int) error { return incompleteError(n) }
