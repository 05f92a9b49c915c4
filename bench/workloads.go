package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"drrgossip"
	"drrgossip/internal/agg"
)

// A workload is one fixed configuration and query mix. Its inputs are
// generated from the run's seed alone: agg.GenUniform(n, 0, 1000, seed)
// values and Config.Seed = seed, so the program only ever sees the
// generated values and config. One "query" is one RunAll call, timed
// from call to return.
type workload struct {
	name string
	// why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json).
	why string
	n   int
	// procs is the GOMAXPROCS the workload runs at.
	procs int
	// parallelism is the RunAll BatchOptions.Parallelism of an untraced
	// query. Traced queries always run sequentially: a concurrent batch
	// buffers its workers' telemetry and replays it after the batch, so
	// its events carry no real time.
	parallelism int
	config      func(n int, seed uint64) (drrgossip.Config, error)
	queries     func(values []float64) []drrgossip.Query
	// faulted selects the checks for answers under faults (see
	// checker.answerOK) instead of the exact ones.
	faulted bool
}

// Fault plan of sparse-faults-batch: a loss burst over the middle of
// every run. It has no crash event because crashes make answers fail the
// faulted check on some seeds (see README, "Failure accounting"), and a
// benchmark workload must pass on every seed.
const faultPlan = "loss:0.1@0.2..0.8"

var workloads = []workload{
	{
		name:  "dense-ave",
		why:   "Complete N=2^15 AverageOf, 1 proc: the headline pipeline; engine, drr, convergecast, gossip do all work; control for overlay and facade changes",
		n:     1 << 15,
		procs: 1,
		config: func(n int, seed uint64) (drrgossip.Config, error) {
			return drrgossip.Config{N: n, Seed: seed, Workers: 1}, nil
		},
		queries: func(v []float64) []drrgossip.Query { return []drrgossip.Query{drrgossip.AverageOf(v)} },
	},
	{
		name:  "chord-ave",
		why:   "Chord 40-bit even N=2^13 AverageOf, 1 proc: Section 4 sparse pipeline; finger routing and the Local-DRR rank burst dominate CPU and bytes",
		n:     1 << 13,
		procs: 1,
		config: func(n int, seed uint64) (drrgossip.Config, error) {
			return drrgossip.Config{N: n, Seed: seed, Topology: drrgossip.Chord}, nil
		},
		queries: func(v []float64) []drrgossip.Query { return []drrgossip.Query{drrgossip.AverageOf(v)} },
	},
	{
		name:  "quantile-bisect",
		why:   "Complete N=2^12 QuantileOf(0.9) by bisection, 1 proc: 24 short runs per query, so per-run set-up, Reset and facade assembly dominate",
		n:     1 << 12,
		procs: 1,
		config: func(n int, seed uint64) (drrgossip.Config, error) {
			return drrgossip.Config{N: n, Seed: seed}, nil
		},
		queries: func(v []float64) []drrgossip.Query { return []drrgossip.Query{drrgossip.QuantileOf(v, 0.9, 0)} },
	},
	{
		name:        "sparse-faults-batch",
		why:         "SmallWorld N=2^12, loss 0.02 plus a loss-burst fault plan, RunAll of 5 ops at Parallelism 2, 2 procs: lossy path, fault round hook, landmark routing, worker fan-out",
		n:           1 << 12,
		procs:       2,
		parallelism: 2,
		faulted:     true,
		config: func(n int, seed uint64) (drrgossip.Config, error) {
			plan, err := drrgossip.ParseFaultPlan(faultPlan)
			if err != nil {
				return drrgossip.Config{}, err
			}
			return drrgossip.Config{N: n, Seed: seed, Topology: drrgossip.SmallWorld, Loss: 0.02, Faults: plan}, nil
		},
		queries: func(v []float64) []drrgossip.Query {
			return []drrgossip.Query{
				drrgossip.MaxOf(v), drrgossip.SumOf(v), drrgossip.CountOf(v),
				drrgossip.AverageOf(v), drrgossip.RankOf(v, 500),
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// checker validates answers against references computed once, outside
// the timed region, and folds every answer into the run's digest.
type checker struct {
	faulted bool
	queries []drrgossip.Query
	exact   []float64 // ExactOf per query, over the fault-free population
	tol     []float64 // quantile tolerance per query (0 for other ops)
	sorted  []float64 // the inputs, sorted, for the Max membership test
	// digest is the FNV-64 of the first query's answers; every later
	// query must reproduce it bit for bit.
	digest    uint64
	haveFirst bool
	// msgs and rounds are the first query's bill, summed over its
	// answers (the digest pins every later query to the same bill).
	msgs, rounds int64
	relErr       []float64 // relative error per query op of the last query
}

func newChecker(w workload, cfg drrgossip.Config, values []float64, queries []drrgossip.Query) (*checker, error) {
	c := &checker{faulted: w.faulted, queries: queries, relErr: make([]float64, len(queries))}
	c.sorted = append([]float64(nil), values...)
	sort.Float64s(c.sorted)
	for _, q := range queries {
		ref, err := drrgossip.ExactOf(cfg, q)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", q.Op, err)
		}
		tol := 0.0
		if q.Op == drrgossip.OpQuantile {
			tol = q.Tol
			if tol <= 0 {
				// The facade's default: the measured value range / 2^20.
				tol = (c.sorted[len(c.sorted)-1] - c.sorted[0]) / (1 << 20)
			}
		}
		c.exact = append(c.exact, ref)
		c.tol = append(c.tol, tol)
	}
	return c, nil
}

// check validates one query's answers and returns how many of them
// failed. A batch error fails every answer; a digest mismatch with the
// first query fails the whole query too.
func (c *checker) check(answers []*drrgossip.Answer, err error) int {
	if err != nil || len(answers) != len(c.queries) {
		return len(c.queries)
	}
	failed := 0
	for i, a := range answers {
		c.relErr[i] = agg.RelError(a.Value, c.exact[i])
		if !c.answerOK(i, a) {
			failed++
		}
	}
	d := answerDigest(answers)
	if !c.haveFirst {
		c.digest, c.haveFirst = d, true
		for _, a := range answers {
			c.msgs += a.Cost.Messages
			c.rounds += int64(a.Cost.Rounds)
		}
	} else if d != c.digest {
		return len(c.queries)
	}
	return failed
}

func (c *checker) answerOK(i int, a *drrgossip.Answer) bool {
	q := c.queries[i]
	if a == nil || a.Quality.Partial || math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
		return false
	}
	if c.faulted {
		if q.Op == drrgossip.OpMax {
			j := sort.SearchFloat64s(c.sorted, a.Value)
			return j < len(c.sorted) && c.sorted[j] == a.Value
		}
		return c.relErr[i] <= 0.10
	}
	switch q.Op {
	case drrgossip.OpQuantile:
		return a.Converged && math.Abs(a.Value-c.exact[i]) <= c.tol[i]
	default:
		return a.Consensus && c.relErr[i] <= 1e-9
	}
}

// answerDigest is the FNV-64 of every answer's Value bits, Cost and
// PhaseCosts: equal digests mean bit-identical answers.
func answerDigest(answers []*drrgossip.Answer) uint64 {
	h := fnv.New64a()
	for _, a := range answers {
		put(h, math.Float64bits(a.Value))
		put(h, uint64(a.Cost.Runs), uint64(a.Cost.Rounds), uint64(a.Cost.Messages),
			uint64(a.Cost.Drops), math.Float64bits(a.Cost.Clock))
		for _, pc := range a.PhaseCosts {
			h.Write([]byte(pc.Phase))
			put(h, uint64(pc.Rounds), uint64(pc.Messages), uint64(pc.Drops), uint64(pc.Calls))
		}
	}
	return h.Sum64()
}

func put(h hash.Hash64, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}
