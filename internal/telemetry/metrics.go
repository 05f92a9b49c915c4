package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a Sink aggregating the event stream into live counters for
// the HTTP introspection endpoints: runs started/finished, cumulative
// rounds/messages/drops (from event Deltas, so totals are exact even
// with sparse round sampling), fault events, and an alive-nodes gauge.
// All fields are atomics — Emit runs on the engine's round loop while
// HTTP handlers read concurrently.
type Metrics struct {
	start time.Time

	runsStarted  atomic.Int64
	runsFinished atomic.Int64
	rounds       atomic.Int64
	messages     atomic.Int64
	drops        atomic.Int64
	blocked      atomic.Int64
	calls        atomic.Int64
	faultEvents  atomic.Int64
	events       atomic.Int64
	alive        atomic.Int64
}

// NewMetrics returns a live metrics aggregator; its rate gauges are
// relative to the construction time.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// Emit folds one event into the counters.
func (m *Metrics) Emit(ev *Event) {
	m.events.Add(1)
	m.rounds.Add(int64(ev.Delta.Rounds))
	m.messages.Add(ev.Delta.Messages)
	m.drops.Add(ev.Delta.Drops)
	m.blocked.Add(ev.Delta.Blocked)
	m.calls.Add(ev.Delta.Calls)
	m.alive.Store(int64(ev.Alive))
	switch ev.Kind {
	case KindRunStart:
		m.runsStarted.Add(1)
	case KindRunEnd:
		m.runsFinished.Add(1)
	case KindFault:
		m.faultEvents.Add(1)
	}
}

// WritePrometheus renders the metrics catalog in the Prometheus text
// exposition format (see docs/OBSERVABILITY.md for the catalog).
func (m *Metrics) WritePrometheus(w io.Writer) {
	uptime := time.Since(m.start).Seconds()
	if uptime <= 0 {
		uptime = 1e-9
	}
	rounds := m.rounds.Load()
	messages := m.messages.Load()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("drrgossip_runs_started_total", "Engine passes (run spans) started.", m.runsStarted.Load())
	counter("drrgossip_runs_finished_total", "Engine passes (run spans) finished.", m.runsFinished.Load())
	counter("drrgossip_rounds_total", "Simulated rounds executed.", rounds)
	counter("drrgossip_messages_total", "Message transmission attempts.", messages)
	counter("drrgossip_drops_total", "Messages lost to link failure.", m.drops.Load())
	counter("drrgossip_blocked_total", "Messages killed by installed link faults.", m.blocked.Load())
	counter("drrgossip_calls_total", "Synchronous calls placed.", m.calls.Load())
	counter("drrgossip_fault_events_total", "Fault-plan membership transitions applied.", m.faultEvents.Load())
	counter("drrgossip_telemetry_events_total", "Telemetry events received by this sink.", m.events.Load())
	gauge("drrgossip_alive_nodes", "Live nodes at the last observed event.", float64(m.alive.Load()))
	gauge("drrgossip_rounds_per_second", "Lifetime simulated-round rate.", float64(rounds)/uptime)
	gauge("drrgossip_messages_per_second", "Lifetime message rate.", float64(messages)/uptime)
	gauge("drrgossip_uptime_seconds", "Seconds since the metrics sink was created.", uptime)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_heap_alloc_bytes", "Live heap bytes.", float64(ms.HeapAlloc))
	gauge("go_heap_inuse_bytes", "Heap bytes in in-use spans.", float64(ms.HeapInuse))
	gauge("go_goroutines", "Current goroutine count.", float64(runtime.NumGoroutine()))
}

// ServeHTTP serves the Prometheus text format — Metrics is mountable
// directly as the /metrics handler.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)
}

// Snapshot renders the counters as a plain map — the expvar view, also
// handy for embedding the sink without an HTTP listener.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"runs_started":  m.runsStarted.Load(),
		"runs_finished": m.runsFinished.Load(),
		"rounds":        m.rounds.Load(),
		"messages":      m.messages.Load(),
		"drops":         m.drops.Load(),
		"blocked":       m.blocked.Load(),
		"calls":         m.calls.Load(),
		"fault_events":  m.faultEvents.Load(),
		"events":        m.events.Load(),
		"alive_nodes":   m.alive.Load(),
	}
}

// expvarMetrics is the Metrics instance the process-wide "drrgossip"
// expvar reads (the last one passed to Serve); expvar.Publish is global
// and panics on re-registration, hence the indirection + Once.
var (
	expvarMetrics atomic.Pointer[Metrics]
	expvarOnce    sync.Once
)

// Serve starts the observability listener on addr ("host:port"; ":0"
// picks a free port) and returns the server with its bound address. The
// mux exposes:
//
//	/metrics      Prometheus text format (the Metrics catalog)
//	/debug/vars   expvar (Go runtime memstats + the "drrgossip" map)
//	/debug/pprof  net/http/pprof profiles
//
// The server runs until Shutdown/Close (it dies with the process in the
// CLI use case — live introspection of long-running jobs).
func Serve(addr string, m *Metrics) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	expvarMetrics.Store(m)
	expvarOnce.Do(func() {
		expvar.Publish("drrgossip", expvar.Func(func() any {
			if cur := expvarMetrics.Load(); cur != nil {
				return cur.Snapshot()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", m)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
