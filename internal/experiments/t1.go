package experiments

import (
	"drrgossip/internal/agg"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/kashyap"
	"drrgossip/internal/kempe"
	"drrgossip/internal/metrics"
	"drrgossip/internal/sim"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// algoRun is one algorithm's measured cost for computing Ave.
type algoRun struct {
	rounds   float64
	messages float64
	relErr   float64
}

// billed is the run eng carried out, as an algoRun with the given error.
func billed(eng *sim.Engine, relErr float64) algoRun {
	c := eng.Stats()
	return algoRun{rounds: float64(c.Rounds), messages: float64(c.Messages), relErr: relErr}
}

// add accumulates another run into the receiver.
func (a *algoRun) add(o algoRun) {
	a.rounds += o.rounds
	a.messages += o.messages
	a.relErr += o.relErr
}

// RunT1 reproduces Table 1: all three algorithms compute the Average at
// every size; we report rounds, messages and messages/node, then verify
// the complexity shapes the table claims.
func RunT1(cfg Config) (*Report, error) {
	ns := cfg.sizes([]int{256, 512, 1024, 2048, 4096, 8192, 16384})
	trials := cfg.trials(3)

	series := map[string][]algoRun{}
	for _, n := range ns {
		values := agg.GenUniform(n, 0, 100, xrand.Hash(cfg.Seed, uint64(n)))
		want := agg.Exact(agg.Average, values, 0)
		// Trials are independent replications: fan them across workers
		// (each on its own engines, seeded per trial) and reduce the
		// per-trial slots in trial order, so the float accumulation — and
		// with it the whole report — is bit-identical for any worker count.
		type trialOut struct {
			drr, kas, kem algoRun
			err           error
		}
		outs := make([]trialOut, trials)
		sim.ForEachRun(trials, cfg.workers(), func(trial int) {
			o := &outs[trial]
			seed := xrand.Hash(cfg.Seed, 0x71, uint64(n), uint64(trial))

			deng := sim.NewEngine(n, sim.Options{Seed: seed})
			dres, err := drrgossip.Run(deng, nil, drrgossip.Ave, values)
			if err != nil {
				o.err = err
				return
			}
			o.drr = billed(deng, agg.RelError(dres.Value, want))

			keng := sim.NewEngine(n, sim.Options{Seed: seed + 1})
			kres, err := drrgossip.RunForest(keng, kashyap.BuildForest, drrgossip.Ave, values)
			if err != nil {
				o.err = err
				return
			}
			o.kas = billed(keng, agg.RelError(kres.Value, want))

			meng := sim.NewEngine(n, sim.Options{Seed: seed + 2})
			mres, err := kempe.PushSum(meng, values)
			if err != nil {
				o.err = err
				return
			}
			worst := 0.0
			for _, v := range mres.Estimates {
				if e := agg.RelError(v, want); e > worst {
					worst = e
				}
			}
			o.kem = billed(meng, worst)
		})
		var drrAcc, kasAcc, kemAcc algoRun
		for _, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			drrAcc.add(o.drr)
			kasAcc.add(o.kas)
			kemAcc.add(o.kem)
		}
		for name, acc := range map[string]algoRun{"drr": drrAcc, "kashyap": kasAcc, "kempe": kemAcc} {
			series[name] = append(series[name], algoRun{
				rounds:   acc.rounds / float64(trials),
				messages: acc.messages / float64(trials),
				relErr:   acc.relErr / float64(trials),
			})
		}
	}

	tb := tablefmt.New("Table 1 (measured): computing Ave, mean over trials",
		"n", "alg", "rounds", "messages", "msgs/n", "rel.err")
	for i, n := range ns {
		for _, alg := range []string{"drr", "kashyap", "kempe"} {
			r := series[alg][i]
			tb.AddRow(n, alg, r.rounds, r.messages, r.messages/float64(n), r.relErr)
		}
	}

	nf := floats(ns)
	perNode := func(alg string) []float64 {
		out := make([]float64, len(ns))
		for i := range ns {
			out[i] = series[alg][i].messages / float64(ns[i])
		}
		return out
	}
	rounds := func(alg string) []float64 {
		out := make([]float64, len(ns))
		for i := range ns {
			out[i] = series[alg][i].rounds
		}
		return out
	}

	drrMsg, kasMsg, kemMsg := perNode("drr"), perNode("kashyap"), perNode("kempe")
	drrRnd, kasRnd, kemRnd := rounds("drr"), rounds("kashyap"), rounds("kempe")

	last := len(ns) - 1
	verdicts := []Verdict{
		verdictf("drr messages are n loglog n, not n log n",
			metrics.CloserShape(nf, drrMsg, metrics.ShapeLogLogN, metrics.ShapeLogN),
			"msgs/n %v -> %v over n %d -> %d", drrMsg[0], drrMsg[last], ns[0], ns[last]),
		verdictf("kashyap messages are n loglog n, not n log n",
			metrics.CloserShape(nf, kasMsg, metrics.ShapeLogLogN, metrics.ShapeLogN),
			"msgs/n %v -> %v", kasMsg[0], kasMsg[last]),
		verdictf("kempe messages are n log n, not n loglog n",
			metrics.CloserShape(nf, kemMsg, metrics.ShapeLogN, metrics.ShapeLogLogN),
			"msgs/n %v -> %v", kemMsg[0], kemMsg[last]),
		verdictf("drr time is log n, not log n loglog n",
			metrics.CloserShape(nf, drrRnd, metrics.ShapeLogN, metrics.ShapeLogNLogL),
			"rounds %v -> %v", drrRnd[0], drrRnd[last]),
		verdictf("kempe time is log n",
			metrics.CloserShape(nf, kemRnd, metrics.ShapeLogN, metrics.ShapeLogNLogL),
			"rounds %v -> %v", kemRnd[0], kemRnd[last]),
		verdictf("kashyap time is log n loglog n, not log n",
			metrics.CloserShape(nf, kasRnd, metrics.ShapeLogNLogL, metrics.ShapeLogN),
			"rounds %v -> %v", kasRnd[0], kasRnd[last]),
		verdictf("message winner at largest n: drr & kashyap beat kempe",
			drrMsg[last] < kemMsg[last] && kasMsg[last] < kemMsg[last],
			"msgs/n at n=%d: drr %v, kashyap %v, kempe %v", ns[last], drrMsg[last], kasMsg[last], kemMsg[last]),
		verdictf("time winner at largest n: drr & kempe beat kashyap",
			drrRnd[last] < kasRnd[last] && kemRnd[last] < kasRnd[last],
			"rounds at n=%d: drr %v, kempe %v, kashyap %v", ns[last], drrRnd[last], kemRnd[last], kasRnd[last]),
	}
	return &Report{ID: "T1", Title: "Table 1 reproduction", Tables: []string{tb.String()}, Verdicts: verdicts}, nil
}
