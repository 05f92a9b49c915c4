package agg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactBasics(t *testing.T) {
	vs := []float64{3, -1, 4, 1, 5, 9, 2, 6}
	cases := []struct {
		k    Kind
		arg  float64
		want float64
	}{
		{Min, 0, -1},
		{Max, 0, 9},
		{Sum, 0, 29},
		{Count, 0, 8},
		{Average, 0, 29.0 / 8},
		{Rank, 3, 4},  // -1,1,2,3
		{Rank, -5, 0}, // below all
		{Rank, 100, 8},
	}
	for _, c := range cases {
		if got := Exact(c.k, vs, c.arg); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%v(arg=%v) = %v, want %v", c.k, c.arg, got, c.want)
		}
	}
}

func TestExactEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact over empty slice did not panic")
		}
	}()
	Exact(Sum, nil, 0)
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Min: "Min", Max: "Max", Sum: "Sum",
		Count: "Count", Average: "Average", Rank: "Rank",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind %d String = %q", int(k), k.String())
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestRelError(t *testing.T) {
	if e := RelError(11, 10); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("RelError = %v", e)
	}
	// Near-zero reference falls back to absolute error.
	if e := RelError(0.5, 0); e != 0.5 {
		t.Fatalf("absolute fallback = %v", e)
	}
	if e := RelError(5, 5); e != 0 {
		t.Fatalf("exact RelError = %v", e)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{10, 20, 30, 40}
	cases := []struct {
		phi  float64
		want float64
	}{
		{0.25, 10}, {0.5, 20}, {0.75, 30}, {1.0, 40}, {0.1, 10},
	}
	for _, c := range cases {
		if got := Quantile(vs, c.phi); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.phi, got, c.want)
		}
	}
}

func TestQuantileValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, 0) },
		func() { Quantile([]float64{1}, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Quantile call did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestGenUniform(t *testing.T) {
	vs := GenUniform(10000, 2, 5, 42)
	if len(vs) != 10000 {
		t.Fatalf("len = %d", len(vs))
	}
	sum := 0.0
	for _, v := range vs {
		if v < 2 || v >= 5 {
			t.Fatalf("value %v out of [2,5)", v)
		}
		sum += v
	}
	if mean := sum / 10000; math.Abs(mean-3.5) > 0.05 {
		t.Fatalf("mean = %v, want ~3.5", mean)
	}
	// Deterministic for equal seeds.
	vs2 := GenUniform(10000, 2, 5, 42)
	for i := range vs {
		if vs[i] != vs2[i] {
			t.Fatal("GenUniform not deterministic")
		}
	}
}

func TestGenSpike(t *testing.T) {
	vs := GenSpike(1000, 7.5, 3)
	nonzero := 0
	for _, v := range vs {
		if v != 0 {
			nonzero++
			if v != 7.5 {
				t.Fatalf("spike value %v", v)
			}
		}
	}
	if nonzero != 1 {
		t.Fatalf("spike count = %d", nonzero)
	}
}

func TestGenLinear(t *testing.T) {
	vs := GenLinear(5)
	for i, v := range vs {
		if v != float64(i) {
			t.Fatalf("GenLinear[%d] = %v", i, v)
		}
	}
}

func TestGenZeroMean(t *testing.T) {
	for _, n := range []int{10, 11} {
		vs := GenZeroMean(n, 4, 9)
		if math.Abs(Exact(Average, vs, 0)) > 1e-12 {
			t.Fatalf("n=%d: GenZeroMean average = %v", n, Exact(Average, vs, 0))
		}
	}
}

func TestGenSignedRange(t *testing.T) {
	vs := GenSigned(5000, 3, 8)
	neg := 0
	for _, v := range vs {
		if v < -3 || v >= 3 {
			t.Fatalf("signed value %v out of range", v)
		}
		if v < 0 {
			neg++
		}
	}
	if neg < 2000 || neg > 3000 {
		t.Fatalf("sign balance off: %d negatives of 5000", neg)
	}
}

func TestSubset(t *testing.T) {
	vs := []float64{10, 20, 30, 40}
	out := Subset(vs, []int{3, 0})
	if len(out) != 2 || out[0] != 40 || out[1] != 10 {
		t.Fatalf("Subset = %v", out)
	}
}

// Property: Rank(q) is monotone in q and Rank(Max) = n; Rank is the Sum
// of the indicator [v <= q].
func TestRankProperties(t *testing.T) {
	f := func(seed uint16, sz uint8) bool {
		n := int(sz%50) + 1
		vs := GenUniform(n, -10, 10, uint64(seed))
		q1, q2 := vs[0], vs[n/2]
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		if Exact(Rank, vs, q1) > Exact(Rank, vs, q2) {
			return false
		}
		if Exact(Rank, vs, Exact(Max, vs, 0)) != float64(n) {
			return false
		}
		ind := make([]float64, n)
		for i, v := range vs {
			if v <= q2 {
				ind[i] = 1
			}
		}
		return Exact(Sum, ind, 0) == Exact(Rank, vs, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Min <= Average <= Max, and Sum = Average * Count.
func TestAggregateConsistency(t *testing.T) {
	f := func(seed uint16, sz uint8) bool {
		n := int(sz%60) + 1
		vs := GenSigned(n, 100, uint64(seed))
		mn := Exact(Min, vs, 0)
		mx := Exact(Max, vs, 0)
		av := Exact(Average, vs, 0)
		sm := Exact(Sum, vs, 0)
		ct := Exact(Count, vs, 0)
		if mn > av+1e-9 || av > mx+1e-9 {
			return false
		}
		return math.Abs(sm-av*ct) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile(phi) has rank >= ceil(phi*n) and is a value from the
// input.
func TestQuantileProperties(t *testing.T) {
	f := func(seed uint16, sz uint8) bool {
		n := int(sz%40) + 1
		vs := GenUniform(n, 0, 1, uint64(seed))
		for _, phi := range []float64{0.1, 0.5, 0.9, 1.0} {
			q := Quantile(vs, phi)
			found := false
			for _, v := range vs {
				if v == q {
					found = true
					break
				}
			}
			if !found {
				return false
			}
			if Exact(Rank, vs, q) < math.Ceil(phi*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
