package hms

import (
	"math"
	"sort"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

func TestEpochSizesCoverBatches(t *testing.T) {
	for _, batches := range []int{1, 2, 3, 5, 13, 14, 15, 24, 44, 64, 101} {
		sizes := epochSizes(batches)
		sum := 0
		for _, s := range sizes {
			if s <= 0 {
				t.Fatalf("batches=%d: non-positive epoch %v", batches, sizes)
			}
			sum += s
		}
		if sum != batches {
			t.Fatalf("batches=%d: epochs %v sum to %d", batches, sizes, sum)
		}
	}
}

func TestMergeSorted(t *testing.T) {
	cases := [][2][]float64{
		{{}, {}},
		{{1, 3, 5}, {}},
		{{}, {2, 4}},
		{{1, 3, 5}, {2, 3, 6}},
		{{1, 1, 1}, {1, 1}},
	}
	for _, c := range cases {
		want := append(append([]float64{}, c[0]...), c[1]...)
		sort.Float64s(want)
		got := merge(append([]float64{}, c[0]...), c[1])
		if len(got) != len(want) {
			t.Fatalf("merge(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("merge(%v, %v) = %v, want %v", c[0], c[1], got, want)
			}
		}
	}
}

// TestShrinkKeepsDuplicatePile is the regression for the extreme-target
// pruning bug: when the boundary value's duplicate pile extends past the
// 4σ margin index (typical for φ near 1/m, where the minimum appears
// dozens of times in the multiset), the lower cut must step down to the
// previous distinct value instead of dropping the pile — otherwise the
// target itself is pruned out of the candidate interval.
func TestShrinkKeepsDuplicatePile(t *testing.T) {
	s := &Summary{
		Lo: math.Inf(-1), Hi: math.Inf(1),
		Target: 1, Count: 100,
	}
	// 40 copies of the minimum (the target), then a spread tail.
	for i := 0; i < 40; i++ {
		s.In = append(s.In, 12.13)
	}
	for i := 0; i < 160; i++ {
		s.In = append(s.In, 20+float64(i))
	}
	s.Total = len(s.In)
	s.shrink()
	if len(s.In) == 0 || s.In[0] != 12.13 {
		t.Fatalf("shrink pruned the duplicate pile holding the target: In[0]=%v Lo=%v Below=%d",
			first(s.In), s.Lo, s.Below)
	}
	if s.Below+len(s.In)+s.Above != s.Total {
		t.Fatalf("accounting broken: Below=%d In=%d Above=%d Total=%d",
			s.Below, len(s.In), s.Above, s.Total)
	}
}

func first(in []float64) float64 {
	if len(in) == 0 {
		return math.NaN()
	}
	return in[0]
}

// TestShrinkMaxTarget covers the mirror extreme: t == m, where the
// estimated target index sits at the top of the multiset and a naive
// lower cut at In[loIdx] could empty the interval entirely.
func TestShrinkMaxTarget(t *testing.T) {
	s := &Summary{
		Lo: math.Inf(-1), Hi: math.Inf(1),
		Target: 100, Count: 100,
	}
	for i := 0; i < 150; i++ {
		s.In = append(s.In, float64(i))
	}
	for i := 0; i < 30; i++ {
		s.In = append(s.In, 999.5) // the maximum, duplicated
	}
	s.Total = len(s.In)
	s.shrink()
	if len(s.In) == 0 || s.In[len(s.In)-1] != 999.5 {
		t.Fatalf("shrink pruned the maximum: In=%v..%v", first(s.In), s.In[len(s.In)-1])
	}
	if s.Below+len(s.In)+s.Above != s.Total {
		t.Fatalf("accounting broken: Below=%d In=%d Above=%d Total=%d",
			s.Below, len(s.In), s.Above, s.Total)
	}
}

func TestShrinkAccountingMidTarget(t *testing.T) {
	s := &Summary{
		Lo: math.Inf(-1), Hi: math.Inf(1),
		Target: 50, Count: 100,
	}
	for i := 0; i < 1000; i++ {
		s.In = append(s.In, float64(i%100))
	}
	sort.Float64s(s.In)
	s.Total = len(s.In)
	s.shrink()
	if s.Below+len(s.In)+s.Above != s.Total {
		t.Fatalf("accounting broken: Below=%d In=%d Above=%d Total=%d",
			s.Below, len(s.In), s.Above, s.Total)
	}
	if len(s.In) >= 1000 {
		t.Fatal("shrink retained the full multiset")
	}
	// The true target (rank 50 of values 0..99 each ×10 ⇒ value 4..5
	// region of the downsampled copy — here the 50th percentile of the
	// sample itself) must stay inside (Lo, Hi].
	target := s.In[0] // weakest check: interval is non-empty and ordered
	if !(target > s.Lo && target <= s.Hi) {
		t.Fatalf("retained samples outside interval: %v not in (%v, %v]", target, s.Lo, s.Hi)
	}
}

func sampleSummary(t *testing.T, n int, phi float64, seed uint64, sparse bool) (*Summary, []float64) {
	t.Helper()
	values := agg.GenUniform(n, 0, 1000, seed)
	eng := sim.NewEngine(n, sim.Options{Seed: seed})
	m := n
	target := int(math.Ceil(phi * float64(m)))
	if target < 1 {
		target = 1
	}
	var s *Summary
	var err error
	if sparse {
		ring, rerr := chord.New(n, chord.Options{Bits: 30})
		if rerr != nil {
			t.Fatal(rerr)
		}
		s, err = Sample(eng, overlay.NewChord(ring), values, Options{Target: target, Count: m})
	} else {
		s, err = Sample(eng, nil, values, Options{Target: target, Count: m})
	}
	if err != nil {
		t.Fatal(err)
	}
	return s, values
}

func exactQuantile(values []float64, target int) float64 {
	sorted := append([]float64{}, values...)
	sort.Float64s(sorted)
	return sorted[target-1]
}

func checkSummary(t *testing.T, s *Summary, values []float64, label string) {
	t.Helper()
	if !sort.Float64sAreSorted(s.In) {
		t.Fatalf("%s: retained multiset not sorted", label)
	}
	if s.Below+len(s.In)+s.Above != s.Total {
		t.Fatalf("%s: accounting broken: Below=%d In=%d Above=%d Total=%d",
			label, s.Below, len(s.In), s.Above, s.Total)
	}
	want := exactQuantile(values, s.Target)
	if !(want > s.Lo && want <= s.Hi) {
		t.Fatalf("%s: true quantile %v outside candidate interval (%v, %v]",
			label, want, s.Lo, s.Hi)
	}
	found := false
	for _, v := range s.In {
		if v == want {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("%s: true quantile %v not among %d retained samples", label, want, len(s.In))
	}
}

func TestSampleDenseLocalizesTarget(t *testing.T) {
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.99, 1.0} {
		s, values := sampleSummary(t, 600, phi, 11, false)
		checkSummary(t, s, values, "dense")
	}
}

func TestSampleSparseLocalizesTarget(t *testing.T) {
	for _, phi := range []float64{0.01, 0.5, 1.0} {
		s, values := sampleSummary(t, 512, phi, 12, true)
		checkSummary(t, s, values, "sparse")
	}
}

func TestSampleDeterministic(t *testing.T) {
	a, _ := sampleSummary(t, 400, 0.5, 21, false)
	b, _ := sampleSummary(t, 400, 0.5, 21, false)
	if a.Total != b.Total || a.Below != b.Below || a.Lo != b.Lo || a.Hi != b.Hi ||
		len(a.In) != len(b.In) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.In {
		if a.In[i] != b.In[i] {
			t.Fatalf("retained multiset diverged at %d: %v vs %v", i, a.In[i], b.In[i])
		}
	}
}

// walkWithOracle drives a Walk against an exact rank oracle
// (rank(q) = #{v : v <= q}) and returns the certified value.
func walkWithOracle(t *testing.T, s *Summary, values []float64) (float64, int) {
	t.Helper()
	w := NewWalk(s)
	for {
		q, ok := w.Next()
		if !ok {
			break
		}
		rank := 0
		for _, v := range values {
			if v <= q {
				rank++
			}
		}
		w.Observe(q, rank)
	}
	v, exact := w.Exact()
	if !exact {
		lo, loOK, hi, hiOK := w.Bracket()
		t.Fatalf("walk did not certify after %d probes (bracket %v/%v %v/%v)",
			w.Probes(), lo, loOK, hi, hiOK)
	}
	return v, w.Probes()
}

func TestWalkCertifiesExact(t *testing.T) {
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.99, 1.0} {
		s, values := sampleSummary(t, 600, phi, 31, false)
		got, probes := walkWithOracle(t, s, values)
		want := exactQuantile(values, s.Target)
		if got != want {
			t.Fatalf("phi=%v: walk certified %v, want %v", phi, got, want)
		}
		if probes > maxWalkProbes {
			t.Fatalf("phi=%v: %d probes exceeds cap", phi, probes)
		}
	}
}

func TestWalkDuplicateHeavy(t *testing.T) {
	n := 300
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 5)
	}
	for _, phi := range []float64{0.01, 0.2, 0.5, 0.8, 1.0} {
		eng := sim.NewEngine(n, sim.Options{Seed: 41})
		target := int(math.Ceil(phi * float64(n)))
		if target < 1 {
			target = 1
		}
		s, err := Sample(eng, nil, values, Options{Target: target, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := walkWithOracle(t, s, values)
		want := exactQuantile(values, target)
		if got != want {
			t.Fatalf("phi=%v: walk certified %v, want %v", phi, got, want)
		}
	}
}

func TestSampleValidation(t *testing.T) {
	eng := sim.NewEngine(8, sim.Options{Seed: 1})
	if _, err := Sample(eng, nil, make([]float64, 4), Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
