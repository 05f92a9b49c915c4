// Command benchtab regenerates the paper's evaluation artifacts: Table 1
// (T1), the measured theorems (F2-F12), the overlay sweep (OV1), the
// fault-injection survivability table (FT1) and the ablations (A1-A3).
// Each experiment prints its tables and machine-checked shape verdicts;
// the process exits nonzero if any verdict fails.
//
// Usage:
//
//	go run ./cmd/benchtab -experiment all          # everything (minutes)
//	go run ./cmd/benchtab -experiment T1,F11       # a subset
//	go run ./cmd/benchtab -list                    # what exists
//	go run ./cmd/benchtab -experiment all -quick   # CI-sized sweep
//	go run ./cmd/benchtab -topology all            # overlay cost columns
//	go run ./cmd/benchtab -topology chord,torus,regular:6
//	go run ./cmd/benchtab -experiment FT1 -json    # machine-readable BENCH_FT1.json
//	go run ./cmd/benchtab -chaos -quick            # chaos fuzzing campaign (CH1)
//	go run ./cmd/benchtab -topology all -faults "crash:0.2@0.5"
//	go run ./cmd/benchtab -experiment SC1 -http 127.0.0.1:8123   # live /metrics + pprof
//
// With -http the process serves Prometheus-style metrics on /metrics,
// expvar on /debug/vars and net/http/pprof on /debug/pprof/ while the
// session-API experiments (FT1, QB1, SC1) run; see docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"drrgossip/internal/experiments"
	"drrgossip/internal/telemetry"
)

// jsonReport is the machine-readable form emitted by -json for
// trajectory tracking: one BENCH_<ID>.json per experiment.
type jsonReport struct {
	ID        string                `json:"id"`
	Title     string                `json:"title"`
	Passed    bool                  `json:"passed"`
	ElapsedMS int64                 `json:"elapsed_ms"`
	Seed      uint64                `json:"seed"`
	Quick     bool                  `json:"quick"`
	FaultSpec string                `json:"fault_spec,omitempty"`
	Tables    []string              `json:"tables"`
	Verdicts  []experiments.Verdict `json:"verdicts"`
}

func writeJSON(rep *experiments.Report, cfg experiments.Config, elapsed time.Duration) error {
	out := jsonReport{
		ID:        rep.ID,
		Title:     rep.Title,
		Passed:    rep.Passed(),
		ElapsedMS: elapsed.Milliseconds(),
		Seed:      cfg.Seed,
		Quick:     cfg.Quick,
		FaultSpec: cfg.FaultSpec,
		Tables:    rep.Tables,
		Verdicts:  rep.Verdicts,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + rep.ID + ".json"
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", name)
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		expFlag  = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		chaosRun = flag.Bool("chaos", false, "run the chaos fuzzing campaign (alias for -experiment CH1; see docs/ROBUSTNESS.md)")
		topoFlag = flag.String("topology", "", "run the overlay cost table over these comma-separated topology specs (or 'all') instead of the experiment registry")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "smaller sweeps (CI-sized)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		trials   = flag.Int("trials", 0, "override trials per configuration (0 = default)")
		jsonOut  = flag.Bool("json", false, "additionally write each report as machine-readable BENCH_<ID>.json")
		faults   = flag.String("faults", "", `fault plan applied to supporting experiments (e.g. "crash:0.2@0.5"; see ParseFaultPlan)`)
		progress = flag.Bool("progress", false, "stream live per-round progress from session-API experiments (FT1, AS1, QH1, QB1) to stderr")
		workers  = flag.Int("workers", 0, "fan independent replications across this many workers (0 = GOMAXPROCS, 1 = sequential); reports are bit-identical for any value")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr = flag.String("http", "", "serve live Prometheus /metrics, expvar and pprof on this address while experiments run (e.g. 127.0.0.1:8123)")
	)
	flag.Parse()
	if *chaosRun {
		*expFlag = "CH1"
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Trials: *trials, FaultSpec: *faults, Workers: *workers}
	if *progress {
		cfg.Progress = os.Stderr
	}
	if *httpAddr != "" {
		metrics := telemetry.NewMetrics()
		srv, addr, err := telemetry.Serve(*httpAddr, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: -http: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchtab: serving /metrics, /debug/vars and /debug/pprof/ on http://%s\n", addr)
		// A coarse round stride keeps the tap cheap: the gauges only need
		// to move at scrape granularity, not every simulated round.
		cfg.Telemetry = &telemetry.Options{Sink: metrics, RoundEvery: 64}
	}

	if *topoFlag != "" {
		var specs []string
		if strings.EqualFold(*topoFlag, "all") {
			specs = experiments.DefaultOverlaySpecs()
		} else {
			for _, s := range strings.Split(*topoFlag, ",") {
				specs = append(specs, strings.TrimSpace(s))
			}
		}
		start := time.Now()
		rep, err := experiments.RunOverlays(cfg, specs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: overlay sweep failed: %v\n", err)
			return 1
		}
		elapsed := time.Since(start)
		fmt.Println(rep.String())
		fmt.Printf("(OV1 completed in %v)\n", elapsed.Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(rep, cfg, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				return 1
			}
		}
		if !rep.Passed() {
			return 1
		}
		return 0
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*expFlag, "all") {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			exp, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	failed := 0
	for _, exp := range selected {
		start := time.Now()
		rep, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s failed: %v\n", exp.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		fmt.Println(rep.String())
		fmt.Printf("(%s completed in %v)\n\n", exp.ID, elapsed.Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(rep, cfg, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				failed++
			}
		}
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d experiment(s) had failing verdicts\n", failed)
		return 1
	}
	return 0
}
