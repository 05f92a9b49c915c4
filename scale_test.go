package drrgossip

import (
	"errors"
	"math"
	"testing"
)

// Config.SampleNodes edge cases: 0 materializes nothing, k > N clamps,
// AllNodes keeps the historical full vector, and a sample is a pure
// function of (Seed, N, k) — identical across sessions.
func TestSampleNodesEdgeCases(t *testing.T) {
	const n = 256
	values := uniformValues(n, 105)

	run := func(sample int) *Answer {
		nw, err := New(Config{N: n, Seed: 107, SampleNodes: sample})
		if err != nil {
			t.Fatal(err)
		}
		a, err := nw.Run(AverageOf(values))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// Default (0): no per-node copy at all.
	if a := run(0); a.PerNode != nil || a.SampleIDs != nil {
		t.Fatalf("SampleNodes=0 materialized state: PerNode %d, SampleIDs %d", len(a.PerNode), len(a.SampleIDs))
	}

	// AllNodes: the full vector, no sample ids.
	full := run(AllNodes)
	if len(full.PerNode) != n || full.SampleIDs != nil {
		t.Fatalf("AllNodes: PerNode %d, SampleIDs %v", len(full.PerNode), full.SampleIDs)
	}

	// k > 0: k sorted distinct ids whose values agree with the full run.
	k := 17
	sampled := run(k)
	if len(sampled.PerNode) != k || len(sampled.SampleIDs) != k {
		t.Fatalf("SampleNodes=%d: PerNode %d, SampleIDs %d", k, len(sampled.PerNode), len(sampled.SampleIDs))
	}
	for i, id := range sampled.SampleIDs {
		if id < 0 || id >= n {
			t.Fatalf("sample id %d out of range", id)
		}
		if i > 0 && id <= sampled.SampleIDs[i-1] {
			t.Fatal("sample ids not strictly increasing")
		}
		if sampled.PerNode[i] != full.PerNode[id] {
			t.Fatalf("sampled value for node %d = %v, full run has %v", id, sampled.PerNode[i], full.PerNode[id])
		}
	}

	// Deterministic across sessions.
	again := run(k)
	if len(again.SampleIDs) != k {
		t.Fatalf("second session: sample size %d", len(again.SampleIDs))
	}
	for i := range again.SampleIDs {
		if again.SampleIDs[i] != sampled.SampleIDs[i] || again.PerNode[i] != sampled.PerNode[i] {
			t.Fatalf("second session: sample drifted at %d", i)
		}
	}

	// k > N clamps to N (every node, still sorted ids).
	clamped := run(10 * n)
	if len(clamped.PerNode) != n || len(clamped.SampleIDs) != n {
		t.Fatalf("SampleNodes>n: PerNode %d, SampleIDs %d", len(clamped.PerNode), len(clamped.SampleIDs))
	}
	for i, id := range clamped.SampleIDs {
		if id != i {
			t.Fatalf("clamped sample must cover every node: ids[%d] = %d", i, id)
		}
		if clamped.PerNode[i] != full.PerNode[i] {
			t.Fatalf("clamped value %d drifted", i)
		}
	}

	// Validation: below AllNodes is rejected, as is a negative (and
	// otherwise ignored) Workers.
	if _, err := New(Config{N: n, Seed: 1, SampleNodes: -2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SampleNodes=-2 accepted: %v", err)
	}
	if _, err := New(Config{N: n, Seed: 1, Workers: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Workers=-1 accepted: %v", err)
	}

	// Answers own their SampleIDs: mutating one answer's slice must not
	// skew another answer from the same session.
	nw, err := New(Config{N: n, Seed: 107, SampleNodes: k})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := nw.Run(SumOf(values))
	if err != nil {
		t.Fatal(err)
	}
	a1.SampleIDs[0] = -999
	if a2.SampleIDs[0] == -999 {
		t.Fatal("answers share one SampleIDs backing array")
	}
	a3, err := nw.Run(CountOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if a3.SampleIDs[0] == -999 {
		t.Fatal("session sample cache was corrupted through an answer")
	}
}

// Moments is push-sum with a Σv² component, so it runs over the routed
// Section 4 transport unchanged: on a sparse overlay its mean is the
// Average answer bit for bit and its variance converges like the mean.
// The concurrent batch path (which binds fault plans through dispatch
// directly) answers it identically to sequential execution.
func TestMomentsOnSparseOverlays(t *testing.T) {
	const n = 512
	values := uniformValues(n, 109)
	mean := mustExact(t, Config{N: n}, AverageOf(values))
	s2 := 0.0
	for _, v := range values {
		s2 += v * v
	}
	wantVar := s2/n - mean*mean
	for _, topo := range []Topology{Chord, SmallWorld} {
		cfg := Config{N: n, Seed: 111, Topology: topo}
		mom := mustRun(t, cfg, MomentsOf(values))
		ave := mustRun(t, cfg, AverageOf(values))
		if mom.Mean != ave.Value || mom.Value != ave.Value {
			t.Fatalf("%s: Moments mean %v != Average %v", topo, mom.Mean, ave.Value)
		}
		if rel := math.Abs(mom.Variance-wantVar) / wantVar; rel > 0.01 {
			t.Fatalf("%s: Variance %v, want %v (rel err %v)", topo, mom.Variance, wantVar, rel)
		}
		if !mom.Consensus || mom.Std != math.Sqrt(mom.Variance) {
			t.Fatalf("%s: incomplete moments answer %+v", topo, mom)
		}
	}

	faulted := Config{N: n, Seed: 111, Topology: Chord, Faults: mustPlan(t, "loss:0.1@0.2..0.6")}
	seq := mustRun(t, faulted, MomentsOf(values))
	nw, err := New(faulted)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := nw.RunAll([]Query{MomentsOf(values), AverageOf(values)}, BatchOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := batch[0]; got.Mean != seq.Mean || got.Variance != seq.Variance || got.Cost != seq.Cost {
		t.Fatalf("parallel batch moments %+v differs from sequential %+v", got, seq)
	}
}
