package experiments

import (
	"fmt"
	"math"
	"strings"

	facade "drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/drrgossip"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// DefaultOverlaySpecs is the topology sweep OV1 runs when benchtab is
// not given an explicit -topology list.
func DefaultOverlaySpecs() []string {
	return []string{"chord", "torus", "hypercube", "regular:4", "smallworld", "scalefree"}
}

// RunOV1 compares the full sparse pipeline (Local-DRR → routed
// root-gossip → dissemination) across the default overlay families, with
// the Complete topology as the dense baseline.
func RunOV1(cfg Config) (*Report, error) {
	return RunOverlays(cfg, DefaultOverlaySpecs())
}

// RunOverlays runs the sparse pipeline cost table over the given overlay
// specs ("complete" is allowed and runs the dense pipeline). Verdicts
// check exact Max consensus, Ave/Sum convergence at the distinguished
// root, and Theorem 13's harmonic-degree-sum tree-count prediction.
// With cfg.FaultSpec set, the sweep instead runs every overlay under the
// fault plan and relaxes its verdicts to termination + bounded error.
func RunOverlays(cfg Config, specs []string) (*Report, error) {
	if cfg.FaultSpec != "" {
		return runOverlaysFaulted(cfg, specs)
	}
	return runOverlaysHealthy(cfg, specs)
}

func runOverlaysHealthy(cfg Config, specs []string) (*Report, error) {
	n := 1024
	if cfg.Quick {
		n = 256
	}
	values := agg.GenUniform(n, 0, 1000, cfg.Seed+1)
	wantMax := agg.Exact(agg.Max, values, 0)
	wantAve := agg.Exact(agg.Average, values, 0)
	wantSum := agg.Exact(agg.Sum, values, 0)

	tb := tablefmt.New(fmt.Sprintf("Sparse pipeline across overlays (n=%d)", n),
		"topology", "edges", "Σ1/(d+1)", "trees",
		"max rnds", "max msg/n", "ave rnds", "ave msg/n", "sum msg/n")
	rep := &Report{ID: "OV1", Title: "Overlay sweep: Section 4 pipeline on pluggable topologies"}

	// Each spec's three pipeline runs are independent of every other
	// spec's: fan the sweep across workers with one result slot per spec,
	// then render rows and verdicts in spec order — the report is
	// bit-identical for any worker count.
	type specOut struct {
		mres, ares, sres *drrgossip.Result
		// engs are the engines of the max, ave and sum runs, in that
		// order; each one's counters are its run's bill.
		engs        [3]*sim.Engine
		edges       any // "-" for complete, edge count otherwise
		harmonicVal float64
		sparse      bool
		name        string
		err         error
	}
	outs := make([]specOut, len(specs))
	sim.ForEachRun(len(specs), cfg.workers(), func(k int) {
		o := &outs[k]
		text := specs[k]
		for i := range o.engs {
			o.engs[i] = sim.NewEngine(n, sim.Options{Seed: cfg.Seed + uint64(i)})
		}
		if strings.EqualFold(strings.TrimSpace(text), "complete") {
			o.name, o.edges = "complete", "-"
			if o.mres, o.err = drrgossip.Run(o.engs[0], nil, drrgossip.Max, values); o.err != nil {
				return
			}
			if o.ares, o.err = drrgossip.Run(o.engs[1], nil, drrgossip.Ave, values); o.err != nil {
				return
			}
			o.sres, o.err = drrgossip.Run(o.engs[2], nil, drrgossip.Sum, values)
			return
		}
		spec, err := overlay.ParseSpec(text)
		if err != nil {
			o.err = err
			return
		}
		ov, err := overlay.Build(spec, n, xrand.Hash(cfg.Seed, 0x0071, uint64(n)))
		if err != nil {
			o.err = err
			return
		}
		g := ov.Graph()
		o.name, o.sparse = spec.String(), true
		o.edges = g.NumEdges()
		o.harmonicVal = g.HarmonicDegreeSum()
		if o.mres, o.err = drrgossip.Run(o.engs[0], ov, drrgossip.Max, values); o.err != nil {
			o.err = fmt.Errorf("%s max: %w", spec, o.err)
			return
		}
		if o.ares, o.err = drrgossip.Run(o.engs[1], ov, drrgossip.Ave, values); o.err != nil {
			o.err = fmt.Errorf("%s ave: %w", spec, o.err)
			return
		}
		if o.sres, o.err = drrgossip.Run(o.engs[2], ov, drrgossip.Sum, values); o.err != nil {
			o.err = fmt.Errorf("%s sum: %w", spec, o.err)
		}
	})

	exactOK, aveOK, sumOK, treesOK := true, true, true, true
	var failures []string
	for k := range outs {
		o := &outs[k]
		if o.err != nil {
			return nil, o.err
		}
		harmonic := any("-")
		if o.sparse {
			harmonic = o.harmonicVal
		}
		m, a, s := o.engs[0].Stats(), o.engs[1].Stats(), o.engs[2].Stats()
		tb.AddRow(o.name, o.edges, harmonic, o.mres.Forest.NumTrees(),
			m.Rounds, float64(m.Messages)/float64(n),
			a.Rounds, float64(a.Messages)/float64(n),
			float64(s.Messages)/float64(n))
		if o.mres.Value != wantMax || !o.mres.Consensus {
			exactOK = false
			failures = append(failures, o.name+":max")
		}
		if agg.RelError(o.ares.Value, wantAve) > 1e-5 || (o.sparse && !o.ares.Consensus) {
			aveOK = false
			failures = append(failures, o.name+":ave")
		}
		if agg.RelError(o.sres.Value, wantSum) > 1e-5 || (o.sparse && !o.sres.Consensus) {
			sumOK = false
			failures = append(failures, o.name+":sum")
		}
		if o.sparse {
			if r := float64(o.mres.Forest.NumTrees()) / o.harmonicVal; r < 0.3 || r > 3 {
				treesOK = false
				failures = append(failures, fmt.Sprintf("%s:trees(ratio %.2f)", o.name, r))
			}
		}
	}
	tb.AddNote("msg/n = total transmission attempts per node; sparse overlays pay routed hops per virtual root-gossip edge")
	rep.Tables = append(rep.Tables, tb.String())
	failDetail := "all overlays"
	if len(failures) > 0 {
		failDetail = fmt.Sprintf("failing: %v", failures)
	}
	rep.Verdicts = append(rep.Verdicts,
		verdictf("exact Max consensus on every overlay", exactOK, "%s", failDetail),
		verdictf("Ave converges (rel err < 1e-5) on every overlay", aveOK, "%s", failDetail),
		verdictf("distinguished-root Sum converges on every overlay", sumOK, "%s", failDetail),
		verdictf("tree count tracks Σ 1/(d_i+1) (Theorem 13, factor 3)", treesOK, "%s", failDetail),
	)
	return rep, nil
}

// runOverlaysFaulted sweeps the overlays through the facade with the
// configured fault plan attached: every aggregate must terminate with a
// finite value, and Ave must stay in the ballpark.
func runOverlaysFaulted(cfg Config, specs []string) (*Report, error) {
	n := 1024
	if cfg.Quick {
		n = 256
	}
	plan, err := facade.ParseFaultPlan(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	values := agg.GenUniform(n, 0, 1000, cfg.Seed+1)
	wantMax := agg.Exact(agg.Max, values, 0)
	wantAve := agg.Exact(agg.Average, values, 0)
	wantSum := agg.Exact(agg.Sum, values, 0)

	tb := tablefmt.New(fmt.Sprintf("Overlay sweep under faults %q (n=%d)", plan, n),
		"topology", "alive", "crashes", "max relerr", "ave relerr", "sum relerr", "msg/n", "rounds")
	rep := &Report{ID: "OV1", Title: "Overlay sweep: Section 4 pipeline under a fault plan"}
	finiteOK, ballparkOK := true, true
	var failures []string
	for _, text := range specs {
		topo, err := facade.ParseTopology(text)
		if err != nil {
			return nil, err
		}
		nw, err := facade.New(facade.Config{N: n, Seed: cfg.Seed, Topology: topo, Faults: plan})
		if err != nil {
			return nil, fmt.Errorf("%s under faults: %w", topo, err)
		}
		mres, err := nw.Run(facade.MaxOf(values))
		if err != nil {
			return nil, fmt.Errorf("%s max under faults: %w", topo, err)
		}
		ares, err := nw.Run(facade.AverageOf(values))
		if err != nil {
			return nil, fmt.Errorf("%s ave under faults: %w", topo, err)
		}
		sres, err := nw.Run(facade.SumOf(values))
		if err != nil {
			return nil, fmt.Errorf("%s sum under faults: %w", topo, err)
		}
		maxErr := agg.RelError(mres.Value, wantMax)
		aveErr := agg.RelError(ares.Value, wantAve)
		sumErr := agg.RelError(sres.Value, wantSum)
		tb.AddRow(topo.String(), ares.Alive, ares.FaultCrashes, maxErr, aveErr, sumErr,
			float64(mres.Cost.Messages+ares.Cost.Messages+sres.Cost.Messages)/3/float64(n),
			(mres.Cost.Rounds+ares.Cost.Rounds+sres.Cost.Rounds)/3)
		for _, e := range []float64{maxErr, aveErr, sumErr} {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				finiteOK = false
				failures = append(failures, topo.String()+":nonfinite")
			}
		}
		if maxErr > 0.05 || aveErr > 0.3 {
			ballparkOK = false
			failures = append(failures, fmt.Sprintf("%s:err(max %.3g, ave %.3g)", topo, maxErr, aveErr))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	detail := "all overlays"
	if len(failures) > 0 {
		detail = fmt.Sprintf("failing: %v", failures)
	}
	rep.Verdicts = append(rep.Verdicts,
		verdictf("every overlay terminates with finite error under the plan", finiteOK, "%s", detail),
		verdictf("Max and Ave stay in the ballpark under the plan", ballparkOK, "%s", detail),
	)
	return rep, nil
}
