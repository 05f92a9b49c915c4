// Command drrgossip runs aggregate computations on a simulated network
// and prints the result with its round/message bill — a quick way to see
// the protocol's complexity profile. It fronts the session API: one
// drrgossip.Network is built per invocation and every query (including
// each bisection step of a quantile and each edge of a histogram) runs
// against it.
//
// Usage:
//
//	go run ./cmd/drrgossip -n 10000 -agg average
//	go run ./cmd/drrgossip -n 4096 -agg max -loss 0.1 -crash 0.2
//	go run ./cmd/drrgossip -n 1024 -agg average -topology chord
//	go run ./cmd/drrgossip -n 1024 -agg sum -topology torus
//	go run ./cmd/drrgossip -n 1024 -agg max -topology regular:6
//	go run ./cmd/drrgossip -n 4096 -agg rank -arg 500
//	go run ./cmd/drrgossip -n 4096 -agg quantile -arg 0.99
//	go run ./cmd/drrgossip -n 4096 -agg quantile -quantile-method hms
//	go run ./cmd/drrgossip -n 4096 -agg histogram -edges 250,500,750
//	go run ./cmd/drrgossip -n 1024 -agg average -faults "crash:0.2@0.5"
//	go run ./cmd/drrgossip -n 1024 -agg sum -faults "churn:0.3:40" -progress 200
//	go run ./cmd/drrgossip -n 1000000 -agg average -topology chord
//	go run ./cmd/drrgossip -n 4096 -agg quantile -trace trace.json   # chrome://tracing
//	go run ./cmd/drrgossip -n 4096 -agg average -events run.jsonl
//	go run ./cmd/drrgossip -n 100000 -agg quantile -http 127.0.0.1:8123
//
// -trace writes the whole session as a Chrome trace-event timeline
// (open in chrome://tracing or https://ui.perfetto.dev), -events
// streams the raw structured events as JSON Lines, and -http serves
// live /metrics, /debug/vars and /debug/pprof/ while the query runs.
// The per-phase cost table printed after every run comes from
// Answer.PhaseCosts; see docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/telemetry"
)

func main() {
	var (
		n        = flag.Int("n", 4096, "number of nodes")
		aggName  = flag.String("agg", "average", "aggregate: min|max|sum|count|average|rank|quantile|histogram|moments")
		arg      = flag.Float64("arg", 0.5, "rank threshold q, or quantile φ")
		edgesArg = flag.String("edges", "250,500,750", "histogram bucket edges (comma-separated, increasing)")
		seed     = flag.Uint64("seed", 1, "random seed")
		loss     = flag.Float64("loss", 0, "per-message loss probability δ")
		crash    = flag.Float64("crash", 0, "initial crash fraction")
		topology = flag.String("topology", "complete",
			"topology spec: "+strings.Join(drrgossip.TopologyNames(), "|")+" (param via name:param, e.g. regular:6)")
		faultSpec = flag.String("faults", "",
			`fault plan spec, e.g. "crash:0.2@0.5", "churn:0.3:40", "part:2@0.25..0.75;loss:0.2@0.5..0.9"`)
		quantMethod = flag.String("quantile-method", "bisect",
			"quantile driver: bisect (the golden reference) or hms (Haeupler–Mohapatra–Su gossip sampling)")
		progress = flag.Int("progress", 0, "stream a live progress line to stderr every K rounds (0 = off)")
		lo       = flag.Float64("lo", 0, "value range low")
		hi       = flag.Float64("hi", 1000, "value range high")
		trace    = flag.String("trace", "", "write the session as a Chrome trace-event timeline to this file (chrome://tracing, ui.perfetto.dev)")
		events   = flag.String("events", "", "stream structured telemetry events to this file as JSON Lines")
		httpAddr = flag.String("http", "", "serve live Prometheus /metrics, expvar and pprof on this address while the query runs")
	)
	flag.Parse()

	cfg := drrgossip.Config{N: *n, Seed: *seed, Loss: *loss, CrashFraction: *crash}
	topo, err := drrgossip.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drrgossip: %v\n", err)
		os.Exit(2)
	}
	cfg.Topology = topo
	if cfg.Faults, err = drrgossip.ParseFaultPlan(*faultSpec); err != nil {
		fmt.Fprintf(os.Stderr, "drrgossip: %v\n", err)
		os.Exit(2)
	}
	if cfg.QuantileMethod, err = drrgossip.ParseQuantileMethod(*quantMethod); err != nil {
		fmt.Fprintf(os.Stderr, "drrgossip: %v\n", err)
		os.Exit(2)
	}
	values := agg.GenUniform(*n, *lo, *hi, *seed)

	// Assemble the telemetry taps: an in-memory buffer for the Chrome
	// trace, a JSONL writer for -events, live metrics for -http and the
	// -progress printer. File sinks get full per-round fidelity; the
	// others only need a coarse stride.
	var traceBuf *telemetry.Buffer
	var jsonl *telemetry.JSONL
	var sinks []telemetry.Sink
	if *progress > 0 {
		sinks = append(sinks, &progressSink{every: *progress})
	}
	if *trace != "" {
		traceBuf = &telemetry.Buffer{}
		sinks = append(sinks, traceBuf)
	}
	if *events != "" {
		f, err := os.Create(*events)
		fail(err)
		defer f.Close()
		jsonl = telemetry.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	if *httpAddr != "" {
		metrics := telemetry.NewMetrics()
		srv, addr, err := telemetry.Serve(*httpAddr, metrics)
		fail(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "drrgossip: serving /metrics, /debug/vars and /debug/pprof/ on http://%s\n", addr)
		sinks = append(sinks, metrics)
	}
	if sink := telemetry.Multi(sinks...); sink != nil {
		every := 64
		switch {
		case *trace != "" || *events != "":
			every = 1
		case *progress > 0:
			every = *progress
		}
		cfg.Telemetry = &telemetry.Options{Sink: sink, RoundEvery: every}
	}

	var query drrgossip.Query
	switch strings.ToLower(*aggName) {
	case "min":
		query = drrgossip.MinOf(values)
	case "max":
		query = drrgossip.MaxOf(values)
	case "sum":
		query = drrgossip.SumOf(values)
	case "count":
		query = drrgossip.CountOf(values)
	case "average":
		query = drrgossip.AverageOf(values)
	case "rank":
		query = drrgossip.RankOf(values, *arg)
	case "quantile":
		query = drrgossip.QuantileOf(values, *arg, 0)
	case "moments":
		query = drrgossip.MomentsOf(values)
	case "histogram":
		edges, err := parseEdges(*edgesArg)
		fail(err)
		query = drrgossip.HistogramOf(values, edges)
	default:
		fmt.Fprintf(os.Stderr, "drrgossip: unknown aggregate %q\n", *aggName)
		os.Exit(2)
	}

	net, err := drrgossip.New(cfg)
	fail(err)
	ans, err := net.Run(query)
	fail(err)

	logn := math.Log2(float64(*n))
	fmt.Printf("%s over %d nodes (%d alive, δ=%.3g, %s topology)\n",
		query.Op, *n, ans.Alive, *loss, *topology)
	switch query.Op {
	case drrgossip.OpQuantile:
		fmt.Printf("  quantile(%.3g) ≈ %.6g   (converged %v)\n", *arg, ans.Value, ans.Converged)
	case drrgossip.OpHistogram:
		fmt.Printf("  counts    %v   (edges %s)\n", ans.Counts, *edgesArg)
	case drrgossip.OpMoments:
		fmt.Printf("  mean      %.6g   variance %.6g   std %.6g\n", ans.Mean, ans.Variance, ans.Std)
	default:
		if exact, err := net.Exact(query); err == nil {
			fmt.Printf("  value     %.6g   (exact %.6g, rel.err %.3g)\n", ans.Value, exact, agg.RelError(ans.Value, exact))
		} else {
			fmt.Printf("  value     %.6g\n", ans.Value)
		}
		fmt.Printf("  consensus %v\n", ans.Consensus)
	}
	if !cfg.Faults.Empty() {
		fmt.Printf("  faults    %s: %d events applied (%d crashes, %d rejoins)\n",
			cfg.Faults, ans.FaultEvents, ans.FaultCrashes, ans.FaultRevives)
	}
	if ans.Trees > 0 {
		fmt.Printf("  trees     %d   (n/log n = %.1f)\n", ans.Trees, float64(*n)/logn)
	}
	fmt.Printf("  runs      %d   (aggregate protocol executions billed)\n", ans.Cost.Runs)
	fmt.Printf("  rounds    %d   (%.2f x log2 n)\n", ans.Cost.Rounds, float64(ans.Cost.Rounds)/logn)
	fmt.Printf("  messages  %d   (%.2f per node; %d dropped)\n",
		ans.Cost.Messages, float64(ans.Cost.Messages)/float64(*n), ans.Cost.Drops)
	if len(ans.PhaseCosts) > 0 {
		fmt.Printf("  phases    %-10s %8s %12s %8s\n", "", "rounds", "messages", "drops")
		for _, pc := range ans.PhaseCosts {
			fmt.Printf("            %-10s %8d %12d %8d\n", pc.Phase, pc.Rounds, pc.Messages, pc.Drops)
		}
	}
	st := net.Stats()
	if st.HorizonRuns > 0 || st.OverlayBuilt {
		fmt.Printf("  session   %d protocol runs (%d horizon pre-runs, %d plan binds, overlay built %v)\n",
			st.ProtocolRuns, st.HorizonRuns, st.PlanBinds, st.OverlayBuilt)
	}

	if jsonl != nil {
		fail(jsonl.Close())
		fmt.Printf("  events    wrote %s\n", *events)
	}
	if traceBuf != nil {
		f, err := os.Create(*trace)
		fail(err)
		err = telemetry.WriteChromeTrace(f, traceBuf.Events())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fail(err)
		fmt.Printf("  trace     wrote %s (%d events; open in chrome://tracing or ui.perfetto.dev)\n",
			*trace, len(traceBuf.Events()))
	}
}

// progressSink prints a live progress line to stderr on every round
// event whose round is a multiple of every. The faults column counts
// the fault events (crash/revive transitions) the run has seen so far.
type progressSink struct {
	every  int
	faults int
}

func (p *progressSink) Emit(ev *telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindRunStart:
		p.faults = 0
	case telemetry.KindFault:
		p.faults++
	case telemetry.KindRound:
		if ev.Round%p.every == 0 {
			fmt.Fprintf(os.Stderr, "  run %d round %6d [%-9s] alive %d msgs %d drops %d faults %d\n",
				ev.Run, ev.Round, ev.Phase, ev.Alive, ev.Counters.Messages, ev.Counters.Drops, p.faults)
		}
	}
}

func parseEdges(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	edges := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad edge %q: %v", p, err)
		}
		edges = append(edges, v)
	}
	return edges, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "drrgossip:", err)
		os.Exit(1)
	}
}
