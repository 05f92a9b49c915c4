// SC1 — the empirical scaling study behind the paper's headline claim:
// aggregates converge in O(log n) rounds with O(n log log n) messages,
// numbers that only become interesting (and falsifiable) at large n.
// SC1 sweeps the Ave pipeline from n = 10^3 up to n = 10^7 on the
// Complete, Chord and SmallWorld topologies through the public session
// facade in scale mode (no PerNode materialization), fits the observed
// rounds and message bills against the per-topology reference curves,
// and pins the memory contract: the chord memory leg (n = 10^6 in both
// tiers) must fit a fixed peak-RSS budget.
//
// Reference curves per topology (the paper proves different bounds for
// dense and sparse networks — fitting everything against n log log n
// would be wrong):
//
//	complete    O(log n) rounds, O(n loglog n) messages (Theorems 2-7)
//	chord       O(n log n) messages (Theorem 14); polylog rounds
//	smallworld  polylog rounds and per-node messages (landmark routing;
//	            Theorem 13 makes the root count Θ(n), so the message
//	            bill carries an extra log factor over Chord)
package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	facade "drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/metrics"
	"drrgossip/internal/tablefmt"
	"drrgossip/internal/xrand"
)

// sc1Topologies are the topologies the scaling study sweeps.
var sc1Topologies = []facade.Topology{facade.Complete, facade.Chord, facade.SmallWorld}

// sc1SmallWorldCap bounds the SmallWorld ladder: its Θ(n) root count
// (Theorem 13) makes the routed message bill ~n·log² n, so the 10^7
// point alone would dominate the whole study's runtime. The sharded CSR
// builder lifted the previous 3×10^5 storage ceiling; a million nodes is
// now the time-bounded cap. It is reported in the table — never silently
// applied — and the full ladder is carried by Complete and Chord.
const sc1SmallWorldCap = 1_000_000

// sc1MemLegN is the chord memory-leg size RunSC1 uses in both tiers:
// the n = 10^6 pipeline run whose peak RSS the fixed budget bounds (the
// CI scale-smoke assertion).
const sc1MemLegN = 1_000_000

// sc1MemBudgetMB is the peak-RSS budget for the chord memory leg at
// n = 10^6. The leg runs under a soft runtime memory limit
// (sc1MemLimit), and the budget allows ~2 GB of non-heap/overshoot
// slack on top of that limit. The leg peaks near 0.4 GB (2-vCPU x86-64
// host): Local-DRR's O(|E|) rank exchange keeps only O(n) state, so the
// budget is headroom, not a fit. The chord graph's CSR rows hold about
// 40 int32 neighbours per node, about 160 MB of that peak (the [][]int
// adjacency of earlier versions added ~1 GB on its own).
const sc1MemBudgetMB = 10240

// sc1MemLimit is the soft Go runtime memory limit active during the
// memory leg (see sc1MemBudgetMB).
const sc1MemLimit = 8 << 30

// sc1Sizes returns the sweep sizes: the full tier tops out at ten
// million nodes (Complete and Chord only — see sc1SmallWorldCap), the
// quick (CI smoke) tier at a hundred thousand.
func sc1Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{1000, 10000, 100000}
	}
	return []int{1000, 10000, 100000, 1000000, 10000000}
}

// shapeSqrtN is the non-polylog alternative the sparse-topology verdicts
// reject: a genuinely super-polylog growth over three decades of n beats
// every polylog fit long before √n.
var shapeSqrtN = metrics.Shape{Name: "sqrt n", F: math.Sqrt}

// RunSC1 runs the scaling study at the configured tier.
func RunSC1(cfg Config) (*Report, error) {
	return runSC1(cfg, sc1Sizes(cfg), sc1Topologies, sc1MemLegN)
}

// resetPeakRSS returns freed heap to the OS and resets the process's
// resident-set high-water mark (VmHWM) to its current resident set, so
// the next peakRSSMB reading covers only what runs after it. It reports
// false where procfs refuses the reset; readings then stay
// process-monotone.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process peak resident set in MiB, read from
// /proc/self/status VmHWM (since the last resetPeakRSS), falling back
// to the Go runtime's OS footprint (MemStats.Sys) where procfs is
// unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// liveHeapMB returns the post-GC live heap in MiB; deltas around a
// construction measure what the built object retains.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runSC1 is RunSC1 over explicit sizes and memory-leg size (the in-repo
// tests shrink both to stay fast).
func runSC1(cfg Config, sizes []int, topos []facade.Topology, memLegN int) (*Report, error) {
	rep := &Report{ID: "SC1", Title: "Scaling study: rounds, messages and memory from 10^3 to 10^7 nodes"}
	if !cfg.Quick {
		// Soft-limit the heap well under the study's budget so the 10^7
		// legs trade GC effort for headroom instead of risking the OOM
		// killer; restored on return.
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(100 << 30))
	}
	tb := tablefmt.New("SC1: Ave at scale (lossless)",
		"topology", "n", "rounds", "msgs", "msgs/n", "msgs/(n loglog n)", "trees", "elapsed", "graphMB", "rssMB")

	// series[topo][metric] parallels topoNs[topo]: the SmallWorld ladder
	// may be shorter than the others (sc1SmallWorldCap).
	series := make(map[string]map[string][]float64)
	topoNs := make(map[string][]float64)
	record := func(topo, metric string, v float64) {
		if series[topo] == nil {
			series[topo] = make(map[string][]float64)
		}
		series[topo][metric] = append(series[topo][metric], v)
	}

	genValues := func(n int) []float64 {
		return agg.GenUniform(n, 0, 1000, xrand.Hash(cfg.Seed, 0x5C2, uint64(n)))
	}
	// measure runs one Ave through the facade; graphMB is the live-heap
	// delta retained by the session build (overlay storage dominates it:
	// ~0 for Complete, which stores no graph, and the CSR arrays for
	// Chord and SmallWorld).
	measure := func(topo facade.Topology, n int, values []float64) (*facade.Answer, time.Duration, float64, error) {
		fc := facade.Config{N: n, Seed: xrand.Hash(cfg.Seed, 0x5C1, uint64(n)), Topology: topo,
			Telemetry: cfg.Telemetry}
		h0 := liveHeapMB()
		net, err := facade.New(fc)
		if err != nil {
			return nil, 0, 0, err
		}
		graphMB := math.Max(0, liveHeapMB()-h0)
		start := time.Now()
		ans, err := net.Run(facade.AverageOf(values))
		return ans, time.Since(start), graphMB, err
	}

	// Memory leg first, so its budget verdict reads only the budgeted
	// run even where the high-water reset is refused.
	memBudgetMB := max(1536, sc1MemBudgetMB*memLegN/sc1MemLegN)
	memValues := genValues(memLegN)
	prevLimit := debug.SetMemoryLimit(sc1MemLimit)
	rssReset := resetPeakRSS()
	memAns, memElapsed, memGraphMB, err := measure(facade.Chord, memLegN, memValues)
	debug.SetMemoryLimit(prevLimit)
	if err != nil {
		return nil, fmt.Errorf("SC1 memory leg chord n=%d: %w", memLegN, err)
	}
	memPeak := peakRSSMB()
	memWant := agg.Exact(agg.Average, memValues, 0)
	if agg.RelError(memAns.Value, memWant) > 1e-4 {
		return nil, fmt.Errorf("SC1 memory leg: Ave %v drifted from exact %v", memAns.Value, memWant)
	}
	memValues = nil

	capped := false
	for _, topo := range topos {
		for _, n := range sizes {
			if topo == facade.SmallWorld && n > sc1SmallWorldCap {
				capped = true
				continue
			}
			values := genValues(n)
			rssReset = resetPeakRSS() && rssReset
			ans, elapsed, graphMB, err := measure(topo, n, values)
			if err != nil {
				return nil, fmt.Errorf("SC1 %s n=%d: %w", topo, n, err)
			}
			want := agg.Exact(agg.Average, values, 0)
			if agg.RelError(ans.Value, want) > 1e-4 {
				return nil, fmt.Errorf("SC1 %s n=%d: Ave %v drifted from exact %v", topo, n, ans.Value, want)
			}
			nf := float64(n)
			loglog := math.Log2(math.Log2(nf))
			tb.AddRow(topo.String(), n, float64(ans.Cost.Rounds), float64(ans.Cost.Messages),
				float64(ans.Cost.Messages)/nf, float64(ans.Cost.Messages)/(nf*loglog),
				ans.Trees, elapsed.Seconds(), graphMB, peakRSSMB())
			record(topo.String(), "rounds", float64(ans.Cost.Rounds))
			record(topo.String(), "msgs/n", float64(ans.Cost.Messages)/nf)
			topoNs[topo.String()] = append(topoNs[topo.String()], nf)
		}
	}
	rssNote := "reset before each row"
	if !rssReset {
		rssNote = "this host refused the high-water reset, so the column is monotone across rows"
	}
	tb.AddNote("elapsed and rssMB (peak RSS via VmHWM, %s) are host-dependent observability columns; graphMB is the live-heap delta retained by the session build; every other column is deterministic in the seed", rssNote)
	if capped {
		tb.AddNote("smallworld capped at n=%d: its Θ(n) root count makes the routed bill ~n·log² n (the full ladder is carried by complete and chord; the old 3×10^5 storage ceiling is gone with the CSR builder)", sc1SmallWorldCap)
	}

	comp, chrd, sw := series["complete"], series["chord"], series["smallworld"]
	compNs, chrdNs, swNs := topoNs["complete"], topoNs["chord"], topoNs["smallworld"]
	last := func(xs []float64) float64 { return xs[len(xs)-1] }
	rep.Tables = append(rep.Tables, tb.String())

	rep.Verdicts = append(rep.Verdicts,
		verdictf("complete: rounds fit c·log n at scale (the paper's O(log n) time)",
			metrics.CloserShape(compNs, comp["rounds"], metrics.ShapeLogN, metrics.ShapeLogNLogL),
			"rounds %v -> %v over n %v -> %v", comp["rounds"][0], last(comp["rounds"]), compNs[0], last(compNs)),
		verdictf("complete: messages fit c·n·loglog n, not n·log n (the headline O(n loglog n))",
			metrics.CloserShape(compNs, comp["msgs/n"], metrics.ShapeLogLogN, metrics.ShapeLogN),
			"msgs/n %v -> %v", comp["msgs/n"][0], last(comp["msgs/n"])),
		verdictf("chord: messages fit c·n·log n, not n·log² n (Theorem 14)",
			metrics.CloserShape(chrdNs, chrd["msgs/n"], metrics.ShapeLogN, metrics.ShapeLog2N),
			"msgs/n %v -> %v", chrd["msgs/n"][0], last(chrd["msgs/n"])),
		verdictf("chord+smallworld: rounds stay polylogarithmic (closer to log² n than √n)",
			metrics.CloserShape(chrdNs, chrd["rounds"], metrics.ShapeLog2N, shapeSqrtN) &&
				metrics.CloserShape(swNs, sw["rounds"], metrics.ShapeLog2N, shapeSqrtN),
			"chord %v -> %v, smallworld %v -> %v",
			chrd["rounds"][0], last(chrd["rounds"]), sw["rounds"][0], last(sw["rounds"])),
		verdictf("smallworld: per-node messages stay polylogarithmic (closer to log² n than √n)",
			metrics.CloserShape(swNs, sw["msgs/n"], metrics.ShapeLog2N, shapeSqrtN),
			"msgs/n %v -> %v", sw["msgs/n"][0], last(sw["msgs/n"])),
		verdictf(fmt.Sprintf("chord n=%d memory leg fits the fixed budget: peak RSS ≤ %d MB", memLegN, memBudgetMB),
			memPeak <= float64(memBudgetMB),
			"peak RSS %.0f MB (graph %.1f MB) after the %0.1fs pipeline run (cost %+v)", memPeak, memGraphMB, memElapsed.Seconds(), memAns.Cost),
	)
	return rep, nil
}
