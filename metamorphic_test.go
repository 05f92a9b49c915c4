package drrgossip

import (
	"math"
	"testing"
)

// Metamorphic relations need no oracle: they compare two runs of the
// same session whose inputs differ by a transformation the aggregate
// commutes with. Max and Min move only values, never decisions, so a
// monotone map of the inputs (scaling by 8, which is exact in binary
// floating point, or √) maps the answer the same way; Rank depends only
// on comparisons, which scaling both sides by 8 preserves. Every
// relation holds bit for bit under loss, crashes and fault plans, and
// both runs pay the same bill: no protocol decision depends on the
// values beyond their order.
func TestMetamorphicRelations(t *testing.T) {
	const n = 1024
	configs := []struct {
		name string
		cfg  Config
	}{
		{"complete", Config{N: n, Seed: 41}},
		{"complete/loss", Config{N: n, Seed: 42, Loss: 0.05}},
		{"complete/loss+crash", Config{N: n, Seed: 43, Loss: 0.05, CrashFraction: 0.1}},
		{"chord/loss", Config{N: n, Seed: 44, Topology: Chord, Loss: 0.02}},
		{"smallworld/plan", Config{N: n, Seed: 45, Topology: SmallWorld,
			Faults: mustPlan(t, "crash:0.05@0.3..0.6;loss:0.1@0.2..0.8")}},
	}
	values := uniformValues(n, 47)
	scaled := make([]float64, n)
	roots := make([]float64, n)
	for i, v := range values {
		scaled[i] = 8 * v
		roots[i] = math.Sqrt(v)
	}
	const q = 400.0
	relations := []struct {
		name        string
		base, trans Query
		mapBase     func(float64) float64
	}{
		{"Max(8v) = 8 Max(v)", MaxOf(values), MaxOf(scaled), func(x float64) float64 { return 8 * x }},
		{"Max(√v) = √Max(v)", MaxOf(values), MaxOf(roots), math.Sqrt},
		{"Min(8v) = 8 Min(v)", MinOf(values), MinOf(scaled), func(x float64) float64 { return 8 * x }},
		{"Rank(8v, 8q) = Rank(v, q)", RankOf(values, q), RankOf(scaled, 8*q), func(x float64) float64 { return x }},
	}
	check := func(nw *Network, label, name string, base, trans Query, mapBase func(float64) float64) {
		t.Helper()
		b, err := nw.Run(base)
		if err != nil {
			t.Fatalf("%s %s: base run: %v", label, name, err)
		}
		tr, err := nw.Run(trans)
		if err != nil {
			t.Fatalf("%s %s: transformed run: %v", label, name, err)
		}
		if want := mapBase(b.Value); math.Float64bits(tr.Value) != math.Float64bits(want) {
			t.Errorf("%s: %s broken: transformed %v, mapped base %v", label, name, tr.Value, want)
		}
		if tr.Cost != b.Cost {
			t.Errorf("%s: %s: bill drifted: transformed %+v, base %+v", label, name, tr.Cost, b.Cost)
		}
	}
	for _, c := range configs {
		nw, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, r := range relations {
			check(nw, c.name, r.name, r.base, r.trans, r.mapBase)
		}
		// Quantile(8v, φ, 0) = 8·Quantile(v, φ, 0) under both drivers. The
		// smallworld plan row drives HMS into its fallback bisection, so
		// both bisection paths are covered.
		for _, method := range []QuantileMethod{QuantileBisect, QuantileHMS} {
			cfg := c.cfg
			cfg.QuantileMethod = method
			nw, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			check(nw, c.name+"/"+method.String(), "Quantile(8v, 0.9) = 8 Quantile(v, 0.9)",
				QuantileOf(values, 0.9, 0), QuantileOf(scaled, 0.9, 0), func(x float64) float64 { return 8 * x })
		}
	}
}
