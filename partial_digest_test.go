package drrgossip

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"drrgossip/internal/faults"
)

// outcomeDigest hashes everything a query hands back — every Answer
// field (nil answers included), the error's text and its
// cancellation-ness — together with the session's accounting after the
// query. It is the bit-identity spec of the run executor: Async runs,
// aborted runs and aborted horizon pre-runs all pass through it.
func outcomeDigest(a *Answer, err error, st SessionStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	i64 := func(x int64) { u64(uint64(x)) }
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag(err == nil)
	flag(errors.Is(err, context.Canceled))
	if err != nil {
		str(err.Error())
	}
	flag(a == nil)
	if a != nil {
		u64(uint64(a.Op))
		f64(a.Value)
		u64(uint64(len(a.PerNode)))
		for _, v := range a.PerNode {
			f64(v)
		}
		u64(uint64(len(a.SampleIDs)))
		for _, id := range a.SampleIDs {
			i64(int64(id))
		}
		flag(a.Consensus)
		i64(int64(a.Cost.Runs))
		i64(int64(a.Cost.Rounds))
		i64(a.Cost.Messages)
		i64(a.Cost.Drops)
		f64(a.Cost.Clock)
		u64(uint64(len(a.PhaseCosts)))
		for _, pc := range a.PhaseCosts {
			str(pc.Phase)
			i64(int64(pc.Rounds))
			i64(pc.Messages)
			i64(pc.Drops)
			i64(pc.Calls)
		}
		i64(int64(a.Trees))
		i64(int64(a.Alive))
		i64(int64(a.FaultEvents))
		i64(int64(a.FaultCrashes))
		i64(int64(a.FaultRevives))
		f64(a.Mean)
		f64(a.Variance)
		f64(a.Std)
		i64(a.Exchanges)
		u64(uint64(len(a.Counts)))
		for _, c := range a.Counts {
			f64(c)
		}
		flag(a.Converged)
		q := a.Quality
		flag(q.Partial)
		str(q.Reason)
		f64(q.AliveFraction)
		flag(q.Converged)
		f64(q.Residual)
		f64(q.SurvivorBound)
		i64(int64(q.Retries))
	}
	i64(int64(st.Queries))
	i64(int64(st.ProtocolRuns))
	i64(int64(st.HorizonRuns))
	i64(int64(st.PlanBinds))
	flag(st.OverlayBuilt)
	return h.Sum64()
}

// TestAsyncAndPartialDigests pins the answers that leave the run
// executor by its less travelled exits: every Async-mode shape
// (selectors, loss and static crashes, sparse overlays, a horizon
// pre-run, SampleNodes) and every partial answer (round-budget aborts
// mid-run and inside a horizon pre-run, pre-cancelled contexts) in both
// modes, plus the complete Sync exits no other table pins (composite
// queries, a sampled Moments run, a retried query). Each row runs its query twice on one session, so the digests
// also cover the cached fault bindings and the SessionStats after each
// query; a batch row runs the pair through RunAll at Parallelism 2.
func TestAsyncAndPartialDigests(t *testing.T) {
	const n = 256
	mustPlan := func(spec string) *faults.Plan {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	crash10 := mustPlan("crash:0.1@0.5")
	crash20 := mustPlan("crash:0.2@0.5")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	average := func(v []float64) Query { return AverageOf(v) }
	quantile := func(v []float64) Query { return QuantileOf(v, 0.9, 0) }
	maxOf := func(v []float64) Query { return MaxOf(v) }
	histogram := func(v []float64) Query { return HistogramOf(v, []float64{250, 500, 750}) }
	moments := func(v []float64) Query { return MomentsOf(v) }
	type row struct {
		name   string
		cfg    Config
		query  func([]float64) Query
		ctx    context.Context
		batch  bool
		digest [2]uint64
	}
	rows := []row{
		{name: "async/complete-uniform", query: average,
			cfg:    Config{Seed: 11, Mode: Async, AsyncPeer: "uniform", SampleNodes: AllNodes},
			digest: [2]uint64{0xe0fe0ed70d9152eb, 0x47bab8f33db4f8cb}},
		{name: "async/lossy-crashed-samplegreedy", query: average,
			cfg:    Config{Seed: 12, Mode: Async, AsyncPeer: "samplegreedy", Loss: 0.05, CrashFraction: 0.1, SampleNodes: AllNodes},
			digest: [2]uint64{0x3d2f68791a105398, 0xd672be5ce9ecadb8}},
		{name: "async/smallworld-gge", query: average,
			cfg:    Config{Seed: 13, Mode: Async, AsyncPeer: "gge", Topology: SmallWorld, SampleNodes: AllNodes},
			digest: [2]uint64{0x9ab0799aa1bc34f, 0x3de105ee3a86b4ef}},
		{name: "async/horizon-plan-sampled", query: average,
			cfg:    Config{Seed: 14, Mode: Async, Faults: crash10, SampleNodes: 16},
			digest: [2]uint64{0xabc4a9aeb5a44d43, 0x3a5699c53f942661}},
		{name: "async/horizon-plan-batch", query: average, batch: true,
			cfg:    Config{Seed: 14, Mode: Async, Faults: crash10, SampleNodes: 16},
			digest: [2]uint64{0x3a5699c53f942661, 0x3a5699c53f942661}},
		{name: "async/round-budget", query: average,
			cfg:    Config{Seed: 15, Mode: Async, RoundBudget: 2000, SampleNodes: AllNodes},
			digest: [2]uint64{0x3e72379909c6e725, 0xa3c3944795bf585}},
		{name: "async/round-budget-aborts-prerun", query: average,
			cfg:    Config{Seed: 16, Mode: Async, Faults: crash10, RoundBudget: 2000, SampleNodes: AllNodes},
			digest: [2]uint64{0x342065d6a0c6d853, 0x9add0ff2d0ea7e33}},
		{name: "async/cancelled", query: average, ctx: cancelled,
			cfg:    Config{Seed: 17, Mode: Async, SampleNodes: AllNodes},
			digest: [2]uint64{0x4a16f4caa905f30e, 0xab7aec003633586d}},
		{name: "async/rejects-max", query: maxOf,
			cfg:    Config{Seed: 18, Mode: Async},
			digest: [2]uint64{0x5b5bb8410985e0a0, 0x372fd2a061fdb083}},
		{name: "sync/round-budget-average", query: average,
			cfg:    Config{Seed: 21, RoundBudget: 20, SampleNodes: AllNodes},
			digest: [2]uint64{0x3465553462a3b94c, 0xcda8ab183280136c}},
		{name: "sync/round-budget-quantile", query: quantile,
			cfg:    Config{Seed: 22, RoundBudget: 100},
			digest: [2]uint64{0x1f4a400c880712f3, 0xf5c5a7853d88a255}},
		{name: "sync/round-budget-aborts-prerun", query: average,
			cfg:    Config{Seed: 23, Faults: crash20, RoundBudget: 20, SampleNodes: AllNodes},
			digest: [2]uint64{0x342065d6a0c6d853, 0x9add0ff2d0ea7e33}},
		{name: "sync/cancelled", query: average, ctx: cancelled,
			cfg:    Config{Seed: 24, SampleNodes: AllNodes},
			digest: [2]uint64{0x4a16f4caa905f30e, 0xab7aec003633586d}},
		// Complete Sync exits of the composite and sampled queries: both
		// quantile drivers (HMS certified, and HMS falling back to
		// bisection under a plan), histograms with and without a plan's
		// population Count, a sampled Moments run, and a retried query
		// whose third attempt completes.
		{name: "sync/quantile-bisect", query: quantile,
			cfg:    Config{Seed: 31},
			digest: [2]uint64{0xad5ce798a62fde2b, 0x51d992d894ce1a60}},
		{name: "sync/quantile-hms", query: quantile,
			cfg:    Config{Seed: 32, QuantileMethod: QuantileHMS},
			digest: [2]uint64{0x3cc4fbf17632629a, 0x88c6278c7786c5f5}},
		{name: "sync/quantile-hms-fallback", query: quantile,
			cfg:    Config{Seed: 33, QuantileMethod: QuantileHMS, Faults: crash20},
			digest: [2]uint64{0x5b0fa2a76fe4baed, 0x68984d8b4f020feb}},
		{name: "sync/histogram", query: histogram,
			cfg:    Config{Seed: 34},
			digest: [2]uint64{0xa66148162bb60146, 0x1f906c9229ccd860}},
		{name: "sync/histogram-plan", query: histogram,
			cfg:    Config{Seed: 35, Faults: crash20},
			digest: [2]uint64{0x8c7d837606288f51, 0x4d1bc1bf10e8887e}},
		{name: "sync/moments-sampled", query: moments,
			cfg:    Config{Seed: 36, SampleNodes: 16},
			digest: [2]uint64{0xf1e6796253647645, 0xbdb07b0dc2f984a5}},
		{name: "sync/retry-completes", query: average,
			cfg:    Config{Seed: 43, RoundBudget: 208, Retry: &RetryPolicy{Attempts: 3}},
			digest: [2]uint64{0xa0d143e20c00b3ba, 0x44c5ff9321c98edc}},
	}
	for _, r := range rows {
		cfg := r.cfg
		cfg.N = n
		nw, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		ctx := r.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		q := r.query(uniformValues(n, cfg.Seed+100))
		var got [2]uint64
		if r.batch {
			answers, _, err := nw.RunAllContext(ctx, []Query{q, q}, BatchOptions{Parallelism: 2})
			if len(answers) != 2 || err != nil {
				t.Fatalf("%s: batch returned %d answers, err %v", r.name, len(answers), err)
			}
			for i, a := range answers {
				got[i] = outcomeDigest(a, nil, nw.Stats())
			}
		} else {
			for i := range got {
				a, err := nw.RunContext(ctx, q)
				got[i] = outcomeDigest(a, err, nw.Stats())
			}
		}
		if got != r.digest {
			t.Errorf("%s: got digests {%#x, %#x}, want {%#x, %#x}", r.name, got[0], got[1], r.digest[0], r.digest[1])
		}
	}
}
