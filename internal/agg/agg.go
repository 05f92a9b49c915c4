// Package agg defines the aggregate functions of the paper (Min, Max,
// Sum, Count, Average, Rank), exact reference evaluation for verifying
// protocol output, error metrics, and deterministic workload generators
// for the experiments.
package agg

import (
	"fmt"
	"math"

	"drrgossip/internal/xrand"
)

// Kind identifies an aggregate function.
type Kind int

const (
	// Min is the smallest value.
	Min Kind = iota
	// Max is the largest value.
	Max
	// Sum is the total of the values.
	Sum
	// Count is the number of values.
	Count
	// Average is the arithmetic mean of the values.
	Average
	// Rank is parameterised: Rank(q) = |{i : v_i <= q}|.
	Rank
)

// String returns the aggregate name.
func (k Kind) String() string {
	switch k {
	case Min:
		return "Min"
	case Max:
		return "Max"
	case Sum:
		return "Sum"
	case Count:
		return "Count"
	case Average:
		return "Average"
	case Rank:
		return "Rank"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Exact computes the reference value of the aggregate over values. arg is
// the Rank threshold q and is ignored by the other kinds. It panics on an
// empty input (aggregates of zero nodes are undefined).
func Exact(k Kind, values []float64, arg float64) float64 {
	if len(values) == 0 {
		panic("agg: Exact over empty values")
	}
	switch k {
	case Min:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case Max:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case Sum:
		s := 0.0
		for _, v := range values {
			s += v
		}
		return s
	case Count:
		return float64(len(values))
	case Average:
		return Exact(Sum, values, 0) / float64(len(values))
	case Rank:
		r := 0
		for _, v := range values {
			if v <= arg {
				r++
			}
		}
		return float64(r)
	default:
		panic(fmt.Sprintf("agg: unknown kind %d", int(k)))
	}
}

// RelError returns |got-want| / max(|want|, eps): the relative error used
// by Theorem 7, falling back to absolute error near want == 0 (the paper's
// own convention for xave = 0).
func RelError(got, want float64) float64 {
	d := math.Abs(got - want)
	den := math.Abs(want)
	if den < 1e-12 {
		return d
	}
	return d / den
}

// Quantile returns the exact φ-quantile of values (0 < φ <= 1), defined as
// the smallest v in values with Rank(v) >= ceil(φ·n). Used as the
// reference for the binary-search quantile protocol.
func Quantile(values []float64, phi float64) float64 {
	if len(values) == 0 {
		panic("agg: Quantile over empty values")
	}
	if phi <= 0 || phi > 1 {
		panic("agg: Quantile needs phi in (0,1]")
	}
	target := int(math.Ceil(phi * float64(len(values))))
	// Selection by counting: exact and allocation-light for test sizes.
	best := math.Inf(1)
	for _, v := range values {
		if Exact(Rank, values, v) >= float64(target) && v < best {
			best = v
		}
	}
	return best
}

// --- Workload generators -------------------------------------------------

// GenUniform returns n values uniform in [lo, hi).
func GenUniform(n int, lo, hi float64, seed uint64) []float64 {
	rng := xrand.Derive(seed, 0xA60, 1)
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = lo + (hi-lo)*rng.Float64()
	}
	return vs
}

// GenSpike returns n values that are zero except a single spike of the
// given magnitude at a pseudo-random position — the adversarial placement
// for Max/rumor experiments.
func GenSpike(n int, magnitude float64, seed uint64) []float64 {
	rng := xrand.Derive(seed, 0xA60, 2)
	vs := make([]float64, n)
	vs[rng.Intn(n)] = magnitude
	return vs
}

// GenLinear returns values v_i = i (distinct, known aggregates).
func GenLinear(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i)
	}
	return vs
}

// GenSigned returns n values uniform in [-hi, hi), exercising the paper's
// mixed-sign analysis for Gossip-ave.
func GenSigned(n int, hi float64, seed uint64) []float64 {
	rng := xrand.Derive(seed, 0xA60, 3)
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = hi * (2*rng.Float64() - 1)
	}
	return vs
}

// GenZeroMean returns values whose exact average is 0 (the xave = 0 corner
// of Theorem 7): pairs (+x, -x), with a final 0 when n is odd.
func GenZeroMean(n int, hi float64, seed uint64) []float64 {
	rng := xrand.Derive(seed, 0xA60, 4)
	vs := make([]float64, n)
	for i := 0; i+1 < n; i += 2 {
		x := hi * rng.Float64()
		vs[i] = x
		vs[i+1] = -x
	}
	return vs
}

// Subset returns the values at the given indices (used to restrict
// workloads to alive nodes).
func Subset(values []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = values[j]
	}
	return out
}
