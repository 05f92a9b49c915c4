package metrics

import (
	"math"
	"testing"

	"drrgossip/internal/xrand"
)

var testSizes = []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// checkPlanted draws y = c*f(n)*(1+noise) under 200 noise seeds and
// checks that the affine fitter recovers the planted shape: it is the
// best fit in more draws than any competitor, and its own fitted
// constant stays within 20% of c in every draw. A single draw cannot
// decide this, because the intercept costs the fit a degree of freedom
// on nine sizes: 5% noise makes affine n beat planted n loglog n in
// about one draw in five.
func checkPlanted(t *testing.T, c float64, planted Shape, competitors []Shape, noise float64) {
	t.Helper()
	const draws = 200
	wins := map[string]int{}
	ys := make([]float64, len(testSizes))
	for seed := uint64(0); seed < draws; seed++ {
		rng := xrand.New(seed)
		for i, n := range testSizes {
			ys[i] = c * planted.F(n) * (1 + noise*(2*rng.Float64()-1))
		}
		wins[FitAffineBest(testSizes, ys, competitors)[0].Shape.Name]++
		if f := FitAffine(testSizes, ys, planted); math.Abs(f.C-c)/c > 0.2 {
			t.Fatalf("seed %d: planted constant %v, recovered %v", seed, c, f.C)
		}
	}
	for _, s := range competitors {
		if s.Name != planted.Name && wins[s.Name] >= wins[planted.Name] {
			t.Fatalf("planted %q wins %d of %d draws, %q wins %d", planted.Name, wins[planted.Name], draws, s.Name, wins[s.Name])
		}
	}
}

func TestFitRecoversNLogLogN(t *testing.T) {
	checkPlanted(t, 3.5, ShapeNLogLogN, MessageShapes, 0.05)
}

func TestFitRecoversNLogN(t *testing.T) {
	checkPlanted(t, 2.0, ShapeNLogN, MessageShapes, 0.05)
}

func TestFitRecoversLogN(t *testing.T) {
	checkPlanted(t, 7.0, ShapeLogN, TimeShapes, 0.05)
}

func TestFitRecoversLogNLogLogN(t *testing.T) {
	checkPlanted(t, 4.0, ShapeLogNLogL, TimeShapes, 0.03)
}

func TestFitRecoversLog2N(t *testing.T) {
	checkPlanted(t, 1.5, ShapeLog2N, TimeShapes, 0.03)
}

func TestFitExact(t *testing.T) {
	ns := []float64{100, 200, 400}
	ys := []float64{500, 1000, 2000} // y = 5n
	f := FitAffine(ns, ys, ShapeN)
	if math.Abs(f.A) > 1e-9 || math.Abs(f.C-5) > 1e-9 {
		t.Fatalf("A, C = %v, %v, want 0, 5", f.A, f.C)
	}
	if f.RelRMSE > 1e-12 {
		t.Fatalf("RelRMSE = %v for exact fit", f.RelRMSE)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v for exact fit", f.R2)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := Std(xs); math.Abs(s-2.138089935) > 1e-6 {
		t.Fatalf("Std = %v", s)
	}
	if Std([]float64{3}) != 0 {
		t.Fatal("Std of single sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Fatalf("interpolated median = %v, want 15", got)
	}
	// Input must not be mutated.
	in := []float64{5, 1, 3}
	Quantile(in, 0.5)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{9, 1, 5}); m != 5 {
		t.Fatalf("Median = %v", m)
	}
}

// Property-style check: for any positive constant, fitting the noiseless
// planted shape yields RelRMSE near zero while a strictly faster-growing
// competitor fits worse.
func TestShapeSeparation(t *testing.T) {
	pairs := []struct{ slow, fast Shape }{
		{ShapeLogLogN, ShapeLogN},
		{ShapeLogN, ShapeLog2N},
		{ShapeNLogLogN, ShapeNLogN},
		{ShapeNLogN, ShapeNLog2N},
	}
	for _, p := range pairs {
		ys := make([]float64, len(testSizes))
		for i, n := range testSizes {
			ys[i] = 2.7 * p.slow.F(n)
		}
		slowFit := FitAffine(testSizes, ys, p.slow)
		fastFit := FitAffine(testSizes, ys, p.fast)
		if slowFit.RelRMSE >= fastFit.RelRMSE {
			t.Fatalf("%s data: slow fit %v not better than fast fit %v",
				p.slow.Name, slowFit.RelRMSE, fastFit.RelRMSE)
		}
	}
}

func TestFitAffineExact(t *testing.T) {
	// y = 7 + 3 log n recovered exactly.
	ns := []float64{256, 1024, 4096, 16384}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 7 + 3*math.Log2(n)
	}
	f := FitAffine(ns, ys, ShapeLogN)
	if math.Abs(f.A-7) > 1e-9 || math.Abs(f.C-3) > 1e-9 {
		t.Fatalf("affine fit = %v", f)
	}
	if f.RelRMSE > 1e-12 {
		t.Fatalf("RelRMSE = %v for exact affine fit", f.RelRMSE)
	}
}

func TestFitAffineDiscriminatesWithIntercept(t *testing.T) {
	// y = 50 + 2 loglog n: a pure one-parameter fit against log n could
	// win on such data, but the affine fit must pick loglog n.
	ns := testSizes
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 50 + 2*math.Log2(math.Log2(n))
	}
	best := FitAffineBest(ns, ys, TimeShapes)
	if best[0].Shape.Name != "loglog n" {
		t.Fatalf("best affine fit = %v", best[0])
	}
	if !CloserShape(ns, ys, ShapeLogLogN, ShapeLogN) {
		t.Fatal("CloserShape failed to prefer loglog n")
	}
}

func TestFitAffineBestOrdering(t *testing.T) {
	ns := testSizes
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 100 + 0.5*n*math.Log2(n)
	}
	fits := FitAffineBest(ns, ys, MessageShapes)
	for i := 1; i < len(fits); i++ {
		if fits[i-1].RelRMSE > fits[i].RelRMSE {
			t.Fatal("FitAffineBest not sorted")
		}
	}
	if fits[0].Shape.Name != "n log n" {
		t.Fatalf("best = %v", fits[0])
	}
}

func TestShapeNOverLogN(t *testing.T) {
	if v := ShapeNOverLogN.F(1024); math.Abs(v-102.4) > 1e-9 {
		t.Fatalf("n/log n at 1024 = %v", v)
	}
}

func TestFitAffinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single sample accepted")
		}
	}()
	FitAffine([]float64{1}, []float64{1}, ShapeN)
}
