package main

import (
	"math"
	"runtime"
	"testing"
)

// TestSmoke runs every workload at N=512 for one cycle of timed queries,
// untraced and traced, and checks that the run answers correctly, that
// every metric BENCHMARK.json lists is measured with a finite value and
// the listed unit, and that the traced spans account for the query's
// wall time: phase self times plus facade self time equal it within 2%.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), want %q (%q)", i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
	}
	runtime.MemProfileRate = 64 << 10
	for _, w := range workloads {
		w.n = 512
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d answers failed (rel_err %v)", w.name, traced, res.Failed, res.Attempted, res.RelErr)
			}
			catalog, listed := endToEnd, sp.EndToEnd
			if traced {
				catalog, listed = traceMetrics, sp.PerLayer
			}
			units := map[string]string{}
			for _, d := range catalog {
				units[d.name] = d.unit
				if v, ok := res.Metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: %s = %v (measured %v)", w.name, traced, d.name, v, ok)
				}
			}
			for _, m := range listed {
				if units[m.Name] != m.Unit {
					t.Errorf("BENCHMARK.json %s has unit %q, the benchmark measures %q", m.Name, m.Unit, units[m.Name])
				}
			}
			if !traced {
				continue
			}
			sum := res.Metrics["facade.self_s"]
			for _, p := range phases {
				sum += res.Metrics["phase."+p+".self_s"]
			}
			if wall := res.Metrics["trace.query_s"]; math.Abs(sum-wall) > 0.02*wall {
				t.Errorf("%s: phase + facade self time %.6fs, traced query wall %.6fs", w.name, sum, wall)
			}
		}
	}
}
