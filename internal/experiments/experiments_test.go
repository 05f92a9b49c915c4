package experiments

import (
	"fmt"
	"strings"
	"testing"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/telemetry"
)

// quickCfg keeps CI fast; the harness binary runs the full sizes.
var quickCfg = Config{Seed: 7, Quick: true}

func runAndCheck(t *testing.T, id string) *Report {
	t.Helper()
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := exp.Run(quickCfg)
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report id %q, want %q", rep.ID, id)
	}
	if len(rep.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Errorf("%s verdict failed: %s (%s)", id, v.Name, v.Detail)
		}
	}
	return rep
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "OV1", "FT1", "QB1", "QH1", "SC1", "AS1", "CH1", "A1", "A2", "A3"}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i].ID, want[i])
		}
	}
	if _, ok := ByID("t1"); !ok {
		t.Fatal("ByID not case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "X", Title: "demo",
		Tables:   []string{"table-body\n"},
		Verdicts: []Verdict{{Name: "a", Pass: true, Detail: "ok"}, {Name: "b", Pass: false, Detail: "bad"}},
	}
	s := rep.String()
	for _, want := range []string{"### X — demo", "table-body", "[PASS] a", "[FAIL] b"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	if rep.Passed() {
		t.Fatal("Passed with a failing verdict")
	}
}

func TestT1(t *testing.T)  { runAndCheck(t, "T1") }
func TestF2(t *testing.T)  { runAndCheck(t, "F2") }
func TestF3(t *testing.T)  { runAndCheck(t, "F3") }
func TestF4(t *testing.T)  { runAndCheck(t, "F4") }
func TestF5(t *testing.T)  { runAndCheck(t, "F5") }
func TestF6(t *testing.T)  { runAndCheck(t, "F6") }
func TestF7(t *testing.T)  { runAndCheck(t, "F7") }
func TestF8(t *testing.T)  { runAndCheck(t, "F8") }
func TestF9(t *testing.T)  { runAndCheck(t, "F9") }
func TestF10(t *testing.T) { runAndCheck(t, "F10") }
func TestF11(t *testing.T) { runAndCheck(t, "F11") }
func TestF12(t *testing.T) { runAndCheck(t, "F12") }
func TestFT1(t *testing.T) { runAndCheck(t, "FT1") }
func TestQB1(t *testing.T) { runAndCheck(t, "QB1") }
func TestA1(t *testing.T)  { runAndCheck(t, "A1") }
func TestA2(t *testing.T)  { runAndCheck(t, "A2") }
func TestA3(t *testing.T)  { runAndCheck(t, "A3") }

// SC1 at test-sized sweeps: the fits need a few decades of n to
// discriminate shapes, so the unit test runs a shrunken size ladder and
// requires the memory-budget verdict (Ave correctness is checked inside
// runSC1; a 16000-node leg sits far under its 1.5 GB budget) while
// logging the asymptotic-fit verdicts, which the CI smoke tier
// (benchtab -experiment SC1 -quick, n up to 10^5) enforces at full
// strength.
func TestSC1SmallSizes(t *testing.T) {
	rep, err := runSC1(quickCfg, []int{1000, 4000, 16000}, sc1Topologies, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("SC1 produced no tables")
	}
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Name, "fits the fixed budget") {
			if !v.Pass {
				t.Errorf("SC1 memory-budget verdict failed: %s (%s)", v.Name, v.Detail)
			}
			continue
		}
		if !v.Pass {
			t.Logf("SC1 fit verdict at toy sizes: %s (%s)", v.Name, v.Detail)
		}
	}
}

// QH1 at test-sized ladders: the deterministic verdicts (cross-method
// agreement, fewer runs) must hold at any size; the asymptotic-fit and
// headline-ratio verdicts need decades of n and are only logged here —
// the CI quantile-smoke tier (benchtab -experiment QH1 -quick) enforces
// them at full strength.
func TestQH1SmallSizes(t *testing.T) {
	rep, err := runQH1(quickCfg, []int{256, 1024, 4096}, []int{256, 1024}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("QH1 produced no tables")
	}
	for _, v := range rep.Verdicts {
		deterministic := strings.Contains(v.Name, "agree within") ||
			strings.Contains(v.Name, "fewer aggregate runs")
		if deterministic {
			if !v.Pass {
				t.Errorf("QH1 deterministic verdict failed: %s (%s)", v.Name, v.Detail)
			}
			continue
		}
		if !v.Pass {
			t.Logf("QH1 fit verdict at toy sizes: %s (%s)", v.Name, v.Detail)
		}
	}
}

// With Progress set, sessionTelemetry combines a progress sink with
// cfg.Telemetry at a stride serving both: progress lines land only on
// their own stride and count the run's fault events, and the caller's
// sink still receives the session's stream.
func TestSessionTelemetryProgress(t *testing.T) {
	var buf telemetry.Buffer
	tel := &telemetry.Options{Sink: &buf, RoundEvery: 4}
	if got := (Config{Telemetry: tel}).sessionTelemetry("P", 10); got != tel {
		t.Fatalf("progress off must pass cfg.Telemetry through, got %+v", got)
	}
	var out strings.Builder
	opts := Config{Progress: &out, Telemetry: tel}.sessionTelemetry("P", 10)
	if opts.RoundEvery != 2 {
		t.Fatalf("combined stride = %d, want gcd(10, 4) = 2", opts.RoundEvery)
	}
	plan, err := drrgossip.ParseFaultPlan("crash:0.1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	net, err := drrgossip.New(drrgossip.Config{N: n, Seed: 3, Faults: plan, Telemetry: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(drrgossip.AverageOf(agg.GenUniform(n, 0, 1, 5))); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var run, round, alive, faults int
	var msgs int64
	var phase string
	for _, line := range lines {
		if _, err := fmt.Sscanf(line, "P: run %d round %d %s alive %d msgs %d faults %d",
			&run, &round, &phase, &alive, &msgs, &faults); err != nil {
			t.Fatalf("unparsable progress line %q: %v", line, err)
		}
		if round%10 != 0 {
			t.Fatalf("progress line off its stride: %q", line)
		}
	}
	if run != 2 || faults == 0 || alive == n {
		t.Fatalf("last progress line should show the faulted run's crashes: %q", lines[len(lines)-1])
	}
	if len(buf.Events()) == 0 {
		t.Fatal("cfg.Telemetry's sink saw no events")
	}
}
