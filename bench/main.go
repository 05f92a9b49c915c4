// Command bench is the repository's end-to-end benchmark. It runs the
// workloads of workloads.go through the public session API, checks every
// answer against a reference, and reports the end-to-end metrics of
// BENCHMARK.json (untraced) or its per-layer metrics (-trace 1).
//
// From the repository root, bench/run.sh builds it and passes its
// arguments on:
//
//	bash bench/run.sh -seed 1             # all four workloads, one child process each
//	bash bench/run.sh -traced -seed 1     # the per-layer split, plus Chrome trace files
//	bash bench/run.sh -sets 2 -seed 1     # the full set twice; exits 1 if they disagree
//	bash bench/run.sh --workload dense-ave --seed 1 --seconds 20 --trace 0
//
// With -workload it runs that one workload in its own process and prints,
// as its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Without it, it re-runs itself once per workload, so every
// workload gets a fresh process (a clean VmHWM and its own GOMAXPROCS),
// and writes bench/out/report.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and of Config.Seed")
	seconds := flag.Float64("seconds", 20, "time budget of each workload's timed queries")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	sets := flag.Int("sets", 1, "run every workload this many times, alternating the order, and compare the first two sets")
	flag.Parse()
	if *traced {
		*trace = 1
	}
	if *trace == 1 {
		// Set before the run allocates, so the whole profile samples at
		// one rate.
		runtime.MemProfileRate = 64 << 10
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, sets: *sets, out: filepath.Join(repoRoot(), "bench", "out")}
	var err error
	if *name != "" {
		err = runOne(*name, opts)
	} else {
		err = runAll(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	seed    uint64
	seconds float64
	traced  bool
	sets    int
	out     string
}

// repoRoot is the directory holding BENCHMARK.json: the working
// directory when run from the repository root, its parent when run from
// bench/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func resultPath(out, workload string, traced bool) string {
	if traced {
		return filepath.Join(out, workload+".traced.json")
	}
	return filepath.Join(out, workload+".json")
}

// runOne runs one workload in this process, prints its metrics and then
// the one-line JSON result holding the metrics BENCHMARK.json lists, and
// saves the full result for runAll.
func runOne(name string, o options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(w.procs)
	res, err := runWorkload(w, o.seed, time.Duration(o.seconds*float64(time.Second)), o.traced, o.out)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := writeJSON(resultPath(o.out, name, o.traced), res); err != nil {
		return err
	}
	defs, listed := endToEnd, sp.EndToEnd
	if o.traced {
		defs, listed = traceMetrics, sp.PerLayer
	}
	printResult(res, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range listed {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json metric %s is not measured", m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printResult(res *runResult, defs []metricDef) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("%s (seed %d, %s): %d timed queries, digest %s, fail_frac %g (%d/%d answers)\n",
		res.Workload, res.Seed, mode, res.Queries, res.Digest, res.FailFrac, res.Failed, res.Attempted)
	for _, d := range defs {
		note := ""
		switch {
		case res.Traced:
		case d.name == "query_s" && len(res.Walls) > 0:
			note = fmt.Sprintf("  (median of %d scaled queries; unscaled median %.6g s, probe median %.6g s)",
				len(res.Walls), quantile(res.Walls, 0.5), quantile(res.Probes, 0.5))
		case d.name == "setup_s" && len(res.Setups) > 0:
			note = fmt.Sprintf("  (median of %d scaled set-ups; unscaled median %.6g s, probe median %.6g s)",
				len(res.Setups), quantile(res.Setups, 0.5), quantile(res.SetupProbes, 0.5))
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", d.name, res.Metrics[d.name], d.unit, note)
	}
	var errs []string
	for op, e := range res.RelErr {
		errs = append(errs, fmt.Sprintf("%s=%.3g", op, e))
	}
	sort.Strings(errs)
	fmt.Printf("  rel_err %s\n", strings.Join(errs, " "))
}

// report is bench/out/report.json.
type report struct {
	Seed    uint64         `json:"seed"`
	Seconds float64        `json:"seconds"`
	Traced  bool           `json:"traced"`
	Sets    [][]*runResult `json:"sets"`
	Compare []comparison   `json:"compare,omitempty"`
}

// comparison is one (workload, metric) pair of the first two sets.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// runAll runs every workload in a child process of its own, o.sets times
// (odd sets in reverse order), then writes report.json and compares the
// first two sets against the bounds of BENCHMARK.json.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	bad := false
	for s := 0; s < o.sets; s++ {
		var set []*runResult
		for i := range workloads {
			w := workloads[i]
			if s%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := runChild(self, w.name, o)
			if err != nil {
				return err
			}
			bad = bad || res.Failed > 0
			set = append(set, res)
		}
		rep.Sets = append(rep.Sets, set)
	}
	if o.sets >= 2 {
		rep.Compare, err = compareSets(rep.Sets[0], rep.Sets[1], o.traced)
		if err != nil {
			return err
		}
		for _, c := range rep.Compare {
			bad = bad || !c.OK
		}
	}
	if err := writeJSON(filepath.Join(o.out, "report.json"), rep); err != nil {
		return err
	}
	fmt.Println("wrote", filepath.Join(o.out, "report.json"))
	if bad {
		return fmt.Errorf("failed answers, or sets that disagree beyond their bounds")
	}
	return nil
}

// runChild runs one workload in a child process, echoes everything it
// printed except the final JSON line, and reads back its saved result.
func runChild(self, name string, o options) (*runResult, error) {
	trace := 0
	if o.traced {
		trace = 1
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndexByte(out, '\n'); i >= 0 {
		fmt.Println(out[:i])
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	b, err := os.ReadFile(resultPath(o.out, name, o.traced))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("workload %s result: %w", name, err)
	}
	return &res, nil
}

// compareSets prints and returns, for every workload and end-to-end
// metric, the relative difference between two sets next to the metric's
// bound in BENCHMARK.json, plus whether the answer digests agree.
func compareSets(a, b []*runResult, traced bool) ([]comparison, error) {
	sp, err := loadSpec()
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	second := map[string]*runResult{}
	for _, r := range b {
		second[r.Workload] = r
	}
	var out []comparison
	fmt.Printf("\n%-20s %-20s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	for _, r1 := range a {
		r2 := second[r1.Workload]
		c := comparison{Workload: r1.Workload, Metric: "digest", OK: r1.Digest == r2.Digest}
		fmt.Printf("%-20s %-20s %12s %12s %9s %7s %s\n", c.Workload, c.Metric, r1.Digest[:8], r2.Digest[:8], "", "", verdict(c.OK))
		out = append(out, c)
		if traced {
			continue
		}
		for _, d := range endToEnd {
			c := comparison{Workload: r1.Workload, Metric: d.name, First: r1.Metrics[d.name], Second: r2.Metrics[d.name], Bound: bounds[d.name]}
			c.RelDiff = (c.Second - c.First) / c.First
			c.OK = math.Abs(c.RelDiff) <= c.Bound
			fmt.Printf("%-20s %-20s %12.6g %12.6g %+8.2f%% %6.1f%% %s\n", c.Workload, c.Metric, c.First, c.Second, 100*c.RelDiff, 100*c.Bound, verdict(c.OK))
			out = append(out, c)
		}
	}
	return out, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "EXCEEDS"
}

// spec is the part of BENCHMARK.json the benchmark reads back.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}
