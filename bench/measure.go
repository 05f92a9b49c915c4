package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/telemetry"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in report order: what a
// caller of the library sees per query.
var endToEnd = []metricDef{
	{"query_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb_per_query", "MB"},
	{"allocs_per_query", "objects"},
	{"msgs_per_node", "msgs"},
	{"rounds_per_query", "rounds"},
}

// runResult is everything one run of one workload measured. It is what a
// child process hands back to the all-workloads parent (as
// out/<workload>.json) and what report.json collects.
type runResult struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Traced   bool      `json:"traced"`
	Queries  int       `json:"queries"`
	Walls    []float64 `json:"query_walls_s"` // untraced timed queries, in run order
	Setups   []float64 `json:"setup_walls_s"` // untraced timed set-ups, in run order
	// Probes and SetupProbes are the host probe's times right before each
	// timed query and set-up (untraced runs).
	Probes      []float64          `json:"query_probes_s,omitempty"`
	SetupProbes []float64          `json:"setup_probes_s,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailFrac    float64            `json:"fail_frac"`
	Digest      string             `json:"digest"`
	RelErr      map[string]float64 `json:"rel_err"`
	Metrics     map[string]float64 `json:"metrics"`
}

// inputSets is how many input sets one run measures. Set j of seed s
// has seed s*inputSets+j, which gives its values, its Config.Seed and
// its own session. A workload's cost moves from one seed to the next
// (overlay routes, bisection steps, tree shapes), so averaging over
// several sets keeps that movement out of the run-to-run spread.
const inputSets = 4

// input is one input set and its sessions.
type input struct {
	cfg     drrgossip.Config
	queries []drrgossip.Query
	nw      *drrgossip.Network // untraced session
	nwT     *drrgossip.Network // traced session (traced runs only)
	chk     *checker
}

// run is one workload under measurement.
type run struct {
	w   workload
	ins []*input
	res *runResult
}

// runWorkload runs one workload in this process. It sets up one session
// per input set, then times queries, cycling through the input sets,
// until at least one whole cycle and budget have passed. Untraced, it
// reports the end-to-end metrics; traced, the per-layer ones (see
// runTraced).
func runWorkload(w workload, seed uint64, budget time.Duration, traced bool, outDir string) (*runResult, error) {
	r := &run{w: w, res: &runResult{Workload: w.name, Seed: seed, Traced: traced, RelErr: map[string]float64{}}}
	par := w.parallelism
	if traced {
		par = 1
	}
	for j := uint64(0); j < inputSets; j++ {
		s := seed*inputSets + j
		values := agg.GenUniform(w.n, 0, 1000, s)
		in := &input{queries: w.queries(values)}
		var err error
		if in.cfg, err = w.config(w.n, s); err != nil {
			return nil, err
		}
		if in.chk, err = newChecker(w, in.cfg, values, in.queries); err != nil {
			return nil, err
		}
		if _, err := r.setUp(in, par); err != nil {
			return nil, err
		}
		r.ins = append(r.ins, in)
	}
	var err error
	if traced {
		err = r.runTraced(budget, filepath.Join(outDir, w.name+".trace.json"))
	} else {
		err = r.runUntraced(budget)
	}
	if err != nil {
		return nil, err
	}
	res := r.res
	res.Queries = len(res.Walls)
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	h := fnv.New64a()
	for _, in := range r.ins {
		put(h, in.chk.digest)
		for i, q := range in.queries {
			res.RelErr[q.Op.String()] = math.Max(res.RelErr[q.Op.String()], in.chk.relErr[i])
		}
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
	return res, nil
}

// more reports whether the timing loop runs query i: it stops after the
// budget, at the end of a whole cycle through the input sets.
func (r *run) more(i int, start time.Time, budget time.Duration) bool {
	return i < len(r.ins) || i%len(r.ins) != 0 || time.Since(start) < budget
}

// query runs in's query mix once on nw (in.nw or in.nwT), checks the
// answers and returns the wall time of the RunAll call. With a tracer,
// the call is its query span.
func (r *run) query(in *input, nw *drrgossip.Network, par int, tr *tracer) time.Duration {
	if tr != nil {
		tr.beginQuery()
	}
	t0 := time.Now()
	answers, _, err := nw.RunAll(in.queries, drrgossip.BatchOptions{Parallelism: par})
	d := time.Since(t0)
	if tr != nil {
		tr.endQuery()
	}
	r.res.Attempted += len(in.queries)
	r.res.Failed += in.chk.check(answers, err)
	return d
}

// setUp gives in a fresh untraced session, warms it up with one query
// and returns the set-up time: from New(cfg) to the end of the warm-up,
// which is what a caller waits before a session answers at the steady
// rate query_s measures. The warm-up fills the session's engine pool and
// binds the fault plan, horizon pre-runs included, so work moved out of
// the steady query into New or into a session's first query shows as
// set-up time.
func (r *run) setUp(in *input, par int) (time.Duration, error) {
	t0 := time.Now()
	nw, err := drrgossip.New(in.cfg)
	if err != nil {
		return 0, fmt.Errorf("New: %w", err)
	}
	r.query(in, nw, par, nil)
	in.nw = nw
	return time.Since(t0), nil
}

// runUntraced times the queries and, before each cycle, one set-up: a
// fresh session replaces one input set's session. Set-up is then sampled
// across the whole run, like the queries. The first sessions' set-ups are
// not counted: they run in a fresh process whose heap is still growing,
// and on a 2-core VM they took up to 1.7 times as long as later set-ups,
// by an amount that changed from run to run.
//
// Every timed query and set-up starts after a garbage collection, so each
// one starts from the same heap, and right after a host probe, whose time
// scales it to the reference host (see hostProbe). Neither is timed.
func (r *run) runUntraced(budget time.Duration) error {
	probe, err := newHostProbe()
	if err != nil {
		return err
	}
	probe.run() // maps the probe's pages in
	settle := func() time.Duration {
		runtime.GC()
		return probe.run()
	}
	par := r.w.parallelism
	var allocBytes, allocObjects uint64
	var rss, queries, setups []float64
	for i, start := 0, time.Now(); r.more(i, start, budget); i++ {
		in := r.ins[i%len(r.ins)]
		if cycle := i / len(r.ins); i%len(r.ins) == 0 {
			p := settle()
			d, err := r.setUp(r.ins[cycle%len(r.ins)], par)
			if err != nil {
				return err
			}
			r.res.Setups = append(r.res.Setups, d.Seconds())
			r.res.SetupProbes = append(r.res.SetupProbes, p.Seconds())
			setups = append(setups, scaled(d, p))
		}
		p := settle()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		a0 := readRuntime()
		d := r.query(in, in.nw, par, nil)
		a1 := readRuntime()
		peak, err := peakRSS()
		if err != nil {
			return err
		}
		r.res.Walls = append(r.res.Walls, d.Seconds())
		r.res.Probes = append(r.res.Probes, p.Seconds())
		queries = append(queries, scaled(d, p))
		// The probe's pages stay resident; they are not the program's.
		rss = append(rss, peak-float64(probe.bytes)/(1<<20))
		allocBytes += a1.allocBytes - a0.allocBytes
		allocObjects += a1.allocObjects - a0.allocObjects
	}
	var msgs, rounds int64
	for _, in := range r.ins {
		msgs += in.chk.msgs
		rounds += in.chk.rounds
	}
	nq := float64(len(r.res.Walls))
	r.res.Metrics = map[string]float64{
		"query_s":            quantile(queries, 0.5),
		"setup_s":            quantile(setups, 0.5),
		"peak_rss_mb":        quantile(rss, 0.5),
		"alloc_mb_per_query": float64(allocBytes) / nq / 1e6,
		"allocs_per_query":   float64(allocObjects) / nq,
		"msgs_per_node":      float64(msgs) / float64(len(r.ins)*r.w.n),
		"rounds_per_query":   float64(rounds) / float64(len(r.ins)),
	}
	return nil
}

// runTraced pairs an untraced query with a traced one on the same input
// set: a second session with the benchmark's tracer as its telemetry
// sink, run under the CPU profiler. Both run sequentially (Parallelism
// 1), so a pair differs only in tracing. Which of the two goes first
// alternates, so that the second query's warmer caches, and the first
// one's share of the previous pair's garbage, do not count as tracing
// cost. Spans go to tracePath.
func (r *run) runTraced(budget time.Duration, tracePath string) error {
	tr := newTracer()
	for _, in := range r.ins {
		cfg := in.cfg
		cfg.Telemetry = &telemetry.Options{Sink: tr}
		var err error
		if in.nwT, err = drrgossip.New(cfg); err != nil {
			return fmt.Errorf("New (traced): %w", err)
		}
		r.query(in, in.nwT, 1, nil)
	}
	m := startLayerMeter()
	for i, start := 0, time.Now(); r.more(i, start, budget); i++ {
		in := r.ins[i%len(r.ins)]
		if i%2 == 0 {
			r.res.Walls = append(r.res.Walls, r.query(in, in.nw, 1, nil).Seconds())
		}
		if err := pprof.StartCPUProfile(&m.cpu); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		r0 := readRuntime()
		d := r.query(in, in.nwT, 1, tr)
		r1 := readRuntime()
		pprof.StopCPUProfile()
		m.add(d, r0, r1)
		if err := m.flushCPU(); err != nil {
			return err
		}
		if i%2 == 1 {
			r.res.Walls = append(r.res.Walls, r.query(in, in.nw, 1, nil).Seconds())
		}
	}
	r.res.Metrics = m.finish(tr, r.res.Walls, 2*len(r.res.Walls))
	return tr.writeChrome(tracePath)
}

// runtimeSample is a snapshot of the runtime/metrics counters the
// benchmark reads around queries.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// resetPeakRSS resets the process's resident-set high-water mark
// (VmHWM) to its current resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := q * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (k-float64(i))*(s[i+1]-s[i])
}

// lowerQuartile is the statistic of the traced run's unscaled timings.
// On a shared 2-vCPU VM the host switched between a fast and a slow
// state, about 1.5 times slower, for seconds at a time; the lower
// quartile tracks the fast state. Unlike the minimum, it does not pick
// out the queries that happened to run no garbage collection.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// traceMetrics are the metrics of a traced run, in report order.
// BENCHMARK.json lists those that are non-zero on every workload; the
// rest, such as cpu.chord_s, read 0 on workloads that never run the
// package.
var traceMetrics = func() []metricDef {
	var out []metricDef
	for _, p := range phases {
		out = append(out,
			metricDef{"phase." + p + ".self_s", "s"},
			metricDef{"phase." + p + ".alloc_mb", "MB"},
			metricDef{"phase." + p + ".msgs", "msgs"},
			metricDef{"phase." + p + ".rounds", "rounds"},
			metricDef{"phase." + p + ".cost_skew", "ratio"})
	}
	out = append(out, metricDef{"facade.self_s", "s"}, metricDef{"facade.runs_per_query", "runs"})
	for _, l := range layers {
		out = append(out, metricDef{"cpu." + l + "_s", "s"})
	}
	for _, l := range allocLayers {
		out = append(out, metricDef{"alloc." + l + "_mb", "MB"})
	}
	return append(out,
		metricDef{"runtime.gc_cycles", "cycles"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.heap_objects_peak_mb", "MiB"},
		metricDef{"trace.query_s", "s"},
		metricDef{"trace.overhead_x", "ratio"})
}()
