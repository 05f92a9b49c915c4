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
	for _, c := range configs {
		nw, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, r := range relations {
			base, err := nw.Run(r.base)
			if err != nil {
				t.Fatalf("%s %s: base run: %v", c.name, r.name, err)
			}
			trans, err := nw.Run(r.trans)
			if err != nil {
				t.Fatalf("%s %s: transformed run: %v", c.name, r.name, err)
			}
			if want := r.mapBase(base.Value); math.Float64bits(trans.Value) != math.Float64bits(want) {
				t.Errorf("%s: %s broken: transformed %v, mapped base %v", c.name, r.name, trans.Value, want)
			}
			if trans.Cost != base.Cost {
				t.Errorf("%s: %s: bill drifted: transformed %+v, base %+v", c.name, r.name, trans.Cost, base.Cost)
			}
		}
	}
}
