package drrgossip

import (
	"math"
	"testing"
)

// The differential harness of the HMS quantile driver: on every cell of
// topologies × fault plans × φ, the HMS answer must agree with the
// bisection golden reference within 2·Tol, and on healthy sessions it
// must equal the true order statistic exactly (HMS certifies exactness;
// bisection only brackets to Tol).
func TestQuantileDifferential(t *testing.T) {
	const n = 512
	values := uniformValues(n, 91)
	topologies := []Topology{Complete, Chord, SmallWorld}
	plans := []struct {
		name    string
		faults  string
		loss    float64
		tol     float64
		healthy bool
	}{
		{name: "static", tol: 1.0, healthy: true},
		{name: "loss", loss: 0.05, tol: 1.0, healthy: true},
		{name: "crash", faults: "crash:0.2@0.5", tol: 25.0},
	}
	for _, topo := range topologies {
		for _, pl := range plans {
			t.Run(topo.String()+"/"+pl.name, func(t *testing.T) {
				cfg := Config{N: n, Seed: 92, Topology: topo, Loss: pl.loss}
				if pl.faults != "" {
					plan, err := ParseFaultPlan(pl.faults)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = plan
				}
				for _, phi := range []float64{0.01, 0.25, 0.5, 0.99} {
					q := QuantileOf(values, phi, pl.tol)

					bnw, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					bis, err := bnw.Run(q)
					if err != nil {
						t.Fatalf("phi=%v bisect: %v", phi, err)
					}
					hcfg := cfg
					hcfg.QuantileMethod = QuantileHMS
					hnw, err := New(hcfg)
					if err != nil {
						t.Fatal(err)
					}
					hms, err := hnw.Run(q)
					if err != nil {
						t.Fatalf("phi=%v hms: %v", phi, err)
					}
					if d := math.Abs(hms.Value - bis.Value); d > 2*pl.tol {
						t.Errorf("phi=%v: hms %v vs bisect %v differ by %v > 2·tol",
							phi, hms.Value, bis.Value, d)
					}
					if pl.healthy {
						want, err := ExactOf(cfg, q)
						if err != nil {
							t.Fatal(err)
						}
						if hms.Value != want {
							t.Errorf("phi=%v: healthy hms %v != exact %v",
								phi, hms.Value, want)
						}
						if !hms.Converged {
							t.Errorf("phi=%v: healthy hms did not converge", phi)
						}
						if hms.Cost.Runs >= bis.Cost.Runs {
							t.Errorf("phi=%v: hms spent %d runs, bisection %d — no win",
								phi, hms.Cost.Runs, bis.Cost.Runs)
						}
					}
				}
			})
		}
	}
}

// One pinned HMS answer per topology: the full cost signature must stay
// bit-identical across refactors (same contract as the bisection
// parity goldens — any drift here is a semantic change to the driver,
// not noise).
func TestQuantileHMSGoldens(t *testing.T) {
	const n = 512
	values := uniformValues(n, 91)
	goldens := []struct {
		topo  Topology
		value float64
		runs  int
	}{
		{Complete, 519.1457993108681, 5},
		{Chord, 519.1457993108681, 2},
		{SmallWorld, 519.1457993108681, 5},
	}
	for _, g := range goldens {
		cfg := Config{N: n, Seed: 92, Topology: g.topo, QuantileMethod: QuantileHMS}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := nw.Run(QuantileOf(values, 0.5, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		if ans.Value != g.value || ans.Cost.Runs != g.runs {
			t.Errorf("%s: got value=%v runs=%d, want value=%v runs=%d",
				g.topo, ans.Value, ans.Cost.Runs, g.value, g.runs)
		}
	}
}
