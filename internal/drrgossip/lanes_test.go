package drrgossip

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/faults"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// TestLaneInputs pins what each lane kind feeds the convergecast: a lone
// Max, Ave, Sum or Count lane its own values, untouched; Min the negated
// values; Rank the indicator [v <= q], 0 where v is NaN; Moments the
// values and then their squares; several lanes side by side.
func TestLaneInputs(t *testing.T) {
	v := []float64{1, 5, 3, 7, math.NaN()}
	n := len(v)
	var w Workspace
	for _, k := range []Kind{Max, Ave, Sum, Count} {
		if in := w.inputs([]Lane{{Kind: k, Values: v}}, n, 1); &in[0] != &v[0] {
			t.Fatalf("kind %d: a lone lane's values were copied", k)
		}
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s: %v, want %v", what, got, want)
			}
		}
	}
	nan := math.NaN()
	same("rank", w.inputs([]Lane{{Kind: Rank, Values: v, Arg: 3}}, n, 1), []float64{1, 0, 1, 0, 0})
	same("min", w.inputs([]Lane{{Kind: Min, Values: v}}, n, 1), []float64{-1, -5, -3, -7, nan})
	same("moments", w.inputs([]Lane{{Kind: Moments, Values: v}}, n, 2), []float64{1, 5, 3, 7, nan, 1, 25, 9, 49, nan})
	same("sum+rank+count", w.inputs([]Lane{{Kind: Sum, Values: v}, {Kind: Rank, Values: v, Arg: 5}, {Kind: Count, Values: v}}, n, 1),
		[]float64{1, 5, 3, 7, nan, 1, 1, 1, 0, 0, 1, 5, 3, 7, nan})
}

// TestLanesMatchSoloRuns is the lane spec at the pipeline: a run that
// folds several lanes of one shape returns, for every lane, the Result a
// run of that lane alone returns — value, variance, every per-node
// value, consensus and forest — and bills the engine exactly what the
// lone run does, phase by phase. Covered dense and sparse, lossless,
// lossy, with initial crashes and with mid-run crashes and rejoins.
func TestLanesMatchSoloRuns(t *testing.T) {
	const n = 512
	v1 := agg.GenUniform(n, 0, 1000, 3)
	v2 := agg.GenSigned(n, 50, 4)
	v3 := agg.GenLinear(n)
	shapes := map[string][]Lane{
		"max": {{Kind: Max, Values: v1}, {Kind: Min, Values: v2}, {Kind: Max, Values: v3}, {Kind: Min, Values: v1}},
		"sum": {{Kind: Sum, Values: v1}, {Kind: Count, Values: v2}, {Kind: Rank, Values: v1, Arg: 400},
			{Kind: Rank, Values: v3, Arg: 100}, {Kind: Sum, Values: v2}},
		"ave":     {{Kind: Ave, Values: v1}, {Kind: Ave, Values: v2}, {Kind: Ave, Values: v3}},
		"moments": {{Kind: Moments, Values: v1}, {Kind: Moments, Values: v3}},
	}
	chord, err := overlay.Build(overlay.Spec{Name: "chord"}, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	smallworld, err := overlay.Build(overlay.Spec{Name: "smallworld"}, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := faults.Parse("crash:0.1@12;rejoin:0.5@20")
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		ov   overlay.Overlay
		opts sim.Options
		plan *faults.Plan
	}{
		{"complete", nil, sim.Options{Seed: 11}, nil},
		{"complete/loss", nil, sim.Options{Seed: 12, Loss: 0.05}, nil},
		{"complete/crash", nil, sim.Options{Seed: 13, CrashFrac: 0.1}, nil},
		{"complete/churn", nil, sim.Options{Seed: 14, Loss: 0.02}, churn},
		{"chord/loss", chord, sim.Options{Seed: 15, Loss: 0.05}, nil},
		{"smallworld/churn", smallworld, sim.Options{Seed: 16}, churn},
	}
	for _, c := range configs {
		var b *faults.Bound
		if c.plan != nil {
			if b, err = c.plan.Bind(n, c.opts.Seed, 0); err != nil {
				t.Fatal(err)
			}
		}
		// run answers lanes on a fresh engine with the row's faults and
		// returns the results with the engine's bill and ledger.
		run := func(lanes []Lane) ([]Result, sim.Counters, []sim.PhaseBill) {
			eng := sim.NewEngine(n, c.opts)
			if b != nil {
				b.Attach(eng)
			}
			res, err := new(Workspace).Run(eng, c.ov, lanes...)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res, eng.Stats(), eng.Ledger()
		}
		for name, lanes := range shapes {
			label := fmt.Sprintf("%s/%s", c.name, name)
			got, stats, ledger := run(lanes)
			for j, ln := range lanes {
				want, soloStats, soloLedger := run(lanes[j : j+1])
				if stats != soloStats || !slices.Equal(ledger, soloLedger) {
					t.Fatalf("%s lane %d: bill %+v %v, alone %+v %v", label, j, stats, ledger, soloStats, soloLedger)
				}
				g, w := got[j], want[0]
				if !sameBits(g.Value, w.Value) || !sameBits(g.Variance, w.Variance) || g.Consensus != w.Consensus ||
					g.Forest.NumTrees() != w.Forest.NumTrees() {
					t.Fatalf("%s lane %d (kind %d): value %v variance %v consensus %v, alone %v %v %v",
						label, j, ln.Kind, g.Value, g.Variance, g.Consensus, w.Value, w.Variance, w.Consensus)
				}
				if !slices.EqualFunc(g.PerNode, w.PerNode, sameBits) {
					t.Fatalf("%s lane %d (kind %d): per-node values differ from the lane alone", label, j, ln.Kind)
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// A run folds only lanes that share a pipeline: no lanes, or kinds of two
// shapes, are rejected before Phase I sends a message.
func TestLanesOfOneShape(t *testing.T) {
	const n = 64
	v := agg.GenUniform(n, 0, 1, 9)
	for _, lanes := range [][]Lane{nil, {{Kind: Sum, Values: v}, {Kind: Ave, Values: v}}, {{Kind: Max, Values: v}, {Kind: Rank, Values: v}}} {
		eng := sim.NewEngine(n, sim.Options{Seed: 1})
		if _, err := new(Workspace).Run(eng, nil, lanes...); err == nil {
			t.Fatalf("lanes %v accepted", lanes)
		}
		if st := eng.Stats(); st.Messages != 0 {
			t.Fatalf("rejected lanes sent %d messages", st.Messages)
		}
	}
}
