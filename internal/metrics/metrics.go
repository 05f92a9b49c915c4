// Package metrics provides summary statistics and complexity-shape fitting
// for the experiment harness.
//
// The paper's claims are asymptotic (e.g. DRR-gossip uses O(n log log n)
// messages while uniform gossip uses O(n log n)). The experiments verify
// such claims by measuring a quantity at several network sizes and asking
// which candidate growth shape A + C·f(n) explains the measurements best,
// via least squares. Absolute constants are reported but never asserted;
// only the winning shape is.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Shape is a candidate growth function f(n) for fits y ≈ A + C·f(n).
type Shape struct {
	Name string
	F    func(n float64) float64
}

// log2 returns the base-2 logarithm, the convention used throughout the
// paper (probe budgets of log n − 1, etc.).
func log2(x float64) float64 { return math.Log2(x) }

// Standard candidate shapes. Log-log terms require n ≥ 4 so that
// log2(log2 n) ≥ 1 > 0; the experiments use n ≥ 64.
var (
	ShapeConst    = Shape{"1", func(n float64) float64 { return 1 }}
	ShapeLogLogN  = Shape{"loglog n", func(n float64) float64 { return log2(log2(n)) }}
	ShapeLogN     = Shape{"log n", log2}
	ShapeLogNLogL = Shape{"log n loglog n", func(n float64) float64 { return log2(n) * log2(log2(n)) }}
	ShapeLog2N    = Shape{"log^2 n", func(n float64) float64 { l := log2(n); return l * l }}
	ShapeN        = Shape{"n", func(n float64) float64 { return n }}
	ShapeNLogLogN = Shape{"n loglog n", func(n float64) float64 { return n * log2(log2(n)) }}
	ShapeNLogN    = Shape{"n log n", func(n float64) float64 { return n * log2(n) }}
	ShapeNLog2N   = Shape{"n log^2 n", func(n float64) float64 { l := log2(n); return n * l * l }}
	ShapeN2       = Shape{"n^2", func(n float64) float64 { return n * n }}
	// ShapeNOverLogN is the Theorem 2 tree-count shape.
	ShapeNOverLogN = Shape{"n/log n", func(n float64) float64 { return n / log2(n) }}
)

// TimeShapes are the candidates used when fitting round counts.
var TimeShapes = []Shape{ShapeConst, ShapeLogLogN, ShapeLogN, ShapeLogNLogL, ShapeLog2N}

// MessageShapes are the candidates used when fitting message counts.
var MessageShapes = []Shape{ShapeN, ShapeNLogLogN, ShapeNLogN, ShapeNLog2N, ShapeN2}

// AffineFit is the result of fitting y ≈ A + C·f(n) — the form real
// measurements take when protocols add constant round/message overheads
// on top of the asymptotic term.
type AffineFit struct {
	Shape   Shape
	A, C    float64
	RelRMSE float64
	R2      float64
}

// String renders the fit as "A + C * shape (relRMSE r)".
func (f AffineFit) String() string {
	return fmt.Sprintf("%.4g + %.4g * %s (relRMSE %.3f)", f.A, f.C, f.Shape.Name, f.RelRMSE)
}

// FitAffine fits y ≈ A + C·f(n) by ordinary least squares.
func FitAffine(ns, ys []float64, s Shape) AffineFit {
	if len(ns) != len(ys) || len(ns) < 2 {
		panic("metrics: FitAffine needs at least two samples")
	}
	fs := make([]float64, len(ns))
	for i, n := range ns {
		fs[i] = s.F(n)
	}
	fMean, yMean := Mean(fs), Mean(ys)
	var cov, varF float64
	for i := range fs {
		cov += (fs[i] - fMean) * (ys[i] - yMean)
		varF += (fs[i] - fMean) * (fs[i] - fMean)
	}
	c := 0.0
	if varF > 0 {
		c = cov / varF
	}
	a := yMean - c*fMean
	var sse, sst, relSq float64
	for i := range ns {
		pred := a + c*fs[i]
		d := ys[i] - pred
		sse += d * d
		m := ys[i] - yMean
		sst += m * m
		if ys[i] != 0 {
			r := d / ys[i]
			relSq += r * r
		}
	}
	r2 := 1.0
	if sst > 0 {
		r2 = 1 - sse/sst
	}
	return AffineFit{Shape: s, A: a, C: c, RelRMSE: math.Sqrt(relSq / float64(len(ns))), R2: r2}
}

// FitAffineBest fits every candidate affinely and sorts by relative RMSE.
func FitAffineBest(ns, ys []float64, shapes []Shape) []AffineFit {
	fits := make([]AffineFit, 0, len(shapes))
	for _, s := range shapes {
		fits = append(fits, FitAffine(ns, ys, s))
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].RelRMSE < fits[j].RelRMSE })
	return fits
}

// CloserShape reports whether the claimed shape explains the data about
// as well as (or better than) the alternative under affine fitting — the
// form the experiment verdicts use ("messages/n grows like loglog n, not
// log n"). A 25% residual slack keeps the comparison robust on noisy or
// nearly-flat series, where both two-parameter fits are close; a genuine
// shape mismatch over a few doublings of n exceeds the slack easily.
func CloserShape(ns, ys []float64, claimed, alt Shape) bool {
	c := FitAffine(ns, ys, claimed).RelRMSE
	a := FitAffine(ns, ys, alt).RelRMSE
	return c <= a*1.25+1e-12
}

// Mean returns the arithmetic mean of xs. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MinMax returns the minimum and maximum of xs. It panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("metrics: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("metrics: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
