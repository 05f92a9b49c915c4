package drrgossip

import (
	"math"
	"slices"
	"testing"

	"drrgossip/internal/agg"
	core "drrgossip/internal/drrgossip"
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

// TestValueIndependentBills pins the fact that value lanes build on: who
// sends to whom, and which messages are lost, depends on the session and
// the pipeline shape, never on the values. In one session every run of a
// shape — Max and Min; Sum, Count and Rank at three pivots; Average;
// Moments — has the same Cost and PhaseCosts, whatever values it
// carries, on dense and sparse topologies, lossless, lossy and under
// mid-run crash, loss-burst and rejoin plans.
func TestValueIndependentBills(t *testing.T) {
	const n = 256
	topologies := []Topology{Complete, Chord, SmallWorld, Torus, ScaleFree}
	regimes := []struct {
		name string
		loss float64
		plan string
	}{
		{"lossless", 0, ""},
		{"loss0.05", 0.05, ""},
		{"crash+burst", 0, "crash:0.05@0.3..0.6;loss:0.1@0.2..0.8"},
		{"crash+rejoin", 0, "crash:0.2@0.5;rejoin@0.9"},
	}
	inputs := map[string][]float64{
		"uniform": agg.GenUniform(n, 0, 1000, 61),
		"linear":  agg.GenLinear(n),
		"spike":   agg.GenSpike(n, 1e6, 62),
		"signed":  agg.GenSigned(n, 500, 63),
	}
	names := []string{"uniform", "linear", "spike", "signed"}
	for ti, topo := range topologies {
		for ri, r := range regimes {
			cfg := Config{N: n, Seed: uint64(100 + 10*ti + ri), Topology: topo, Loss: r.loss}
			if r.plan != "" {
				cfg.Faults = mustPlan(t, r.plan)
			}
			label := topo.String() + "/" + r.name
			nw, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// first holds the bill of each shape's first run.
			first := map[core.Kind]*Answer{}
			for _, name := range names {
				v := inputs[name]
				sorted := append([]float64(nil), v...)
				slices.Sort(sorted)
				queries := []Query{MaxOf(v), MinOf(v), SumOf(v), CountOf(v), AverageOf(v), MomentsOf(v)}
				for _, p := range []int{n / 10, n / 2, 9 * n / 10} {
					queries = append(queries, RankOf(v, sorted[p]))
				}
				for _, q := range queries {
					a, err := nw.Run(q)
					if err != nil {
						t.Fatalf("%s %s(%s): %v", label, q.Op, name, err)
					}
					shape := shapeOf(q.Op)
					ref, ok := first[shape]
					if !ok {
						first[shape] = a
						continue
					}
					if a.Cost != ref.Cost || !slices.Equal(a.PhaseCosts, ref.PhaseCosts) {
						t.Errorf("%s: %s(%s) billed %+v %+v, the first run of its shape, %s, billed %+v %+v",
							label, q.Op, name, a.Cost, a.PhaseCosts, ref.Op, ref.Cost, ref.PhaseCosts)
					}
				}
			}
		}
	}
}

// TestLaneRelations checks two linear relations through value lanes:
// each relation's queries run as one RunAll batch, so they share engine
// passes. Sum is additive under value splits, Sum(a) + Sum(b) =
// Sum(a + b), and Average is shift-equivariant, Ave(v + c) = Ave(v) + c,
// both within 1e-9 relative, with every run of a relation billed the
// same, on the configs of TestMetamorphicRelations.
func TestLaneRelations(t *testing.T) {
	const n = 1024
	configs := []struct {
		name string
		cfg  Config
	}{
		{"complete", Config{N: n, Seed: 51}},
		{"complete/loss", Config{N: n, Seed: 52, Loss: 0.05}},
		{"complete/loss+crash", Config{N: n, Seed: 53, Loss: 0.05, CrashFraction: 0.1}},
		{"chord/loss", Config{N: n, Seed: 54, Topology: Chord, Loss: 0.02}},
		{"smallworld/plan", Config{N: n, Seed: 55, Topology: SmallWorld,
			Faults: mustPlan(t, "crash:0.05@0.3..0.6;loss:0.1@0.2..0.8")}},
	}
	a := uniformValues(n, 57)
	b := agg.GenSigned(n, 300, 58)
	sum := make([]float64, n)
	shifted := make([]float64, n)
	const c = 12345.678
	for i := range a {
		sum[i] = a[i] + b[i]
		shifted[i] = a[i] + c
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, tc := range configs {
		nw, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		batch := []Query{SumOf(a), SumOf(b), SumOf(sum), AverageOf(a), AverageOf(shifted)}
		ans, _, err := nw.RunAll(batch)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := ans[0].Value+ans[1].Value, ans[2].Value; !near(got, want) {
			t.Errorf("%s: Sum(a) + Sum(b) = %v, Sum(a+b) = %v", tc.name, got, want)
		}
		if got, want := ans[4].Value, ans[3].Value+c; !near(got, want) {
			t.Errorf("%s: Ave(v+c) = %v, Ave(v) + c = %v", tc.name, got, want)
		}
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {3, 4}} {
			if x, y := ans[pair[0]], ans[pair[1]]; x.Cost != y.Cost {
				t.Errorf("%s: %s and %s billed %+v and %+v", tc.name, batch[pair[0]].Op, batch[pair[1]].Op, x.Cost, y.Cost)
			}
		}
		if st := nw.Stats(); st.Passes-st.HorizonRuns != 2 {
			t.Errorf("%s: %d passes for the Sum and Average shapes", tc.name, st.Passes-st.HorizonRuns)
		}
	}
}
