package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drrgossip"
	"drrgossip/internal/faults"
)

// TestCaseStringRoundTrip checks that the one-line reproducer format
// survives String -> ParseCase -> String for hand-written and generated
// cases alike: a failure printed anywhere reproduces everywhere.
func TestCaseStringRoundTrip(t *testing.T) {
	lines := []string{
		"n=64 topo=complete seed=1 loss=0 plan=none",
		"n=128 topo=chord seed=42 loss=0.05 plan=crash:0.2@0.5",
		"n=100 topo=torus seed=7 loss=0.2 plan=crash:0.0291@0.9036799191157889;churn:0.0641:6",
		"n=96 topo=chord seed=11 loss=0 plan=crash:#3,7,9@2r;rejoin@0.8",
	}
	for _, line := range lines {
		c, err := ParseCase(line)
		if err != nil {
			t.Fatalf("ParseCase(%q): %v", line, err)
		}
		if got := c.String(); got != line {
			t.Errorf("round trip:\n  in:  %s\n  out: %s", line, got)
		}
	}
	for i := 0; i < 50; i++ {
		c := Generate(99, i)
		line := c.String()
		back, err := ParseCase(line)
		if err != nil {
			t.Fatalf("Generate(99,%d) line %q does not parse: %v", i, line, err)
		}
		if got := back.String(); got != line {
			t.Errorf("generated case %d not canonical:\n  first:  %s\n  second: %s", i, line, got)
		}
	}
}

func TestParseCaseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                            // empty
		"n=64",                        // missing seed
		"seed=1 topo=complete loss=0", // missing n
		"n=64 seed=1 n=64",            // duplicate field
		"n=64 seed=1 color=red",       // unknown field
		"n=sixty seed=1",              // bad int
		"n=64 seed=1 topo=mobius",     // unknown topology
		"n=64 seed=1 loss=1.5",        // loss out of range
		"n=64 seed=1 loss=nan",        // NaN loss
		"n=64 seed=1 plan=crash",      // malformed plan
		"n=64 seed=1 loss",            // not k=v
		"n=0 seed=1",                  // n too small
	}
	for _, line := range bad {
		if _, err := ParseCase(line); err == nil {
			t.Errorf("ParseCase(%q): want error, got nil", line)
		}
	}
}

// TestCorpusFilesCheckClean replays every pinned case — the seed corpus
// and the regression corpus — through the full invariant battery. A
// line in either file must stay clean forever; this is the test CI's
// chaos-smoke job leans on.
func TestCorpusFilesCheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is seconds-long; skipped in -short")
	}
	for _, name := range []string{"seed_corpus.txt", "regressions.txt"} {
		lines, err := LoadCorpus(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("LoadCorpus(%s): %v", name, err)
		}
		if len(lines) == 0 {
			t.Fatalf("corpus %s is empty", name)
		}
		for _, line := range lines {
			c, err := ParseCase(line)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, line, err)
			}
			if vs := CheckCase(c); len(vs) > 0 {
				t.Errorf("%s: %s: %d violation(s), first: %s", name, line, len(vs), vs[0])
			}
		}
	}
}

// TestFuzzSmallCampaignClean runs a small fixed-seed generative campaign
// end to end through Fuzz, including tier accounting.
func TestFuzzSmallCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("generative campaign is seconds-long; skipped in -short")
	}
	var progress bytes.Buffer
	rep, err := Fuzz(Options{Cases: 25, Seed: 3, Progress: &progress})
	if err != nil {
		t.Fatalf("Fuzz: %v", err)
	}
	if !rep.Clean() {
		for _, f := range rep.Failures {
			t.Errorf("case %s: %v (reproducer: %s)", f.Case, f.Violations, f.Reproducer)
		}
	}
	if rep.Checked != 25 {
		t.Errorf("Checked = %d, want 25", rep.Checked)
	}
	if got := rep.ByTier[0] + rep.ByTier[1] + rep.ByTier[2]; got != rep.Checked {
		t.Errorf("tier counts %v sum to %d, want %d", rep.ByTier, got, rep.Checked)
	}
	if progress.Len() == 0 {
		t.Error("Progress writer saw no output")
	}
}

// TestFuzzRejectsBadCorpusLine ensures a corrupt pinned reproducer fails
// the campaign loudly instead of being skipped.
func TestFuzzRejectsBadCorpusLine(t *testing.T) {
	_, err := Fuzz(Options{Cases: 0, Corpus: []string{"n=64 seed=1 topo=mobius"}})
	if err == nil {
		t.Fatal("Fuzz with malformed corpus line: want error, got nil")
	}
}

// TestShrinkMinimizesPlan drives the delta-debugger with a synthetic
// predicate ("fails iff the plan still contains a crash event") and
// checks it strips the loss rate, the two irrelevant events, and the
// crash event's own parameters down to a minimal reproducer.
func TestShrinkMinimizesPlan(t *testing.T) {
	plan, err := faults.Parse("loss:0.5@0.2..0.6;crash:0.3@0.5;rejoin@0.9")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c := Case{N: 64, Topology: drrgossip.Complete, Seed: 1, Loss: 0.2, Plan: plan}
	evals := 0
	fails := func(cand Case) bool {
		evals++
		if cand.Plan == nil {
			return false
		}
		for _, ev := range cand.Plan.Events {
			if ev.Kind == faults.Crash {
				return true
			}
		}
		return false
	}
	min := Shrink(c, fails, DefaultShrinkBudget)
	if !fails(min) {
		t.Fatal("shrunk case no longer fails the predicate")
	}
	if min.Loss != 0 {
		t.Errorf("Loss = %v, want 0 (irrelevant to the predicate)", min.Loss)
	}
	if min.Plan == nil || len(min.Plan.Events) != 1 {
		t.Fatalf("plan = %v, want exactly 1 event", min.Plan)
	}
	if min.Plan.Events[0].Kind != faults.Crash {
		t.Errorf("surviving event kind = %v, want crash", min.Plan.Events[0].Kind)
	}
	if evals > DefaultShrinkBudget+2 { // +2: the final fails() calls above
		t.Errorf("shrinker used %d evaluations, budget %d", evals, DefaultShrinkBudget)
	}
	// The minimized case must round-trip as a reproducer line.
	if _, err := ParseCase(min.String()); err != nil {
		t.Errorf("minimized case %q does not parse: %v", min.String(), err)
	}
}

// TestShrinkKeepsOriginalOnVanishingFailure guards against the shrinker
// "fixing" a flaky predicate: if no candidate fails, the original case
// comes back unchanged.
func TestShrinkKeepsOriginalOnVanishingFailure(t *testing.T) {
	plan, err := faults.Parse("crash:0.3@0.5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c := Case{N: 64, Topology: drrgossip.Complete, Seed: 1, Loss: 0.1, Plan: plan}
	min := Shrink(c, func(Case) bool { return false }, 50)
	if min.String() != c.String() {
		t.Errorf("Shrink rewrote a non-failing case:\n  in:  %s\n  out: %s", c, min)
	}
}

func TestParseCorpus(t *testing.T) {
	text := `
# comment
n=64 topo=complete seed=1 loss=0 plan=none

n=96 topo=chord seed=2 loss=0.1 plan=crash:0.2@0.5
`
	lines, err := ParseCorpus(text)
	if err != nil {
		t.Fatalf("ParseCorpus: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %v", len(lines), lines)
	}
	if _, err := ParseCorpus("n=64 seed=1\nnot a case\n"); err == nil {
		t.Error("ParseCorpus with invalid line: want error, got nil")
	}
}

func TestAppendCorpusDedups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.txt")
	a := "n=64 topo=complete seed=1 loss=0 plan=crash:0.2@0.5"
	b := "n=96 topo=chord seed=2 loss=0.1 plan=none"
	if err := AppendCorpus(path, []string{a}); err != nil {
		t.Fatalf("AppendCorpus (create): %v", err)
	}
	if err := AppendCorpus(path, []string{a, b}); err != nil {
		t.Fatalf("AppendCorpus (append): %v", err)
	}
	lines, err := LoadCorpus(path)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(lines) != 2 || lines[0] != a || lines[1] != b {
		t.Errorf("corpus = %v, want [%s, %s]", lines, a, b)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), a); n != 1 {
		t.Errorf("line pinned %d times, want 1 (dedup)", n)
	}
}

// TestLoadCorpusMissingFile checks the empty-corpus fast path: a missing
// regression file is not an error, it just means no regressions yet.
func TestLoadCorpusMissingFile(t *testing.T) {
	lines, err := LoadCorpus(filepath.Join(t.TempDir(), "nope.txt"))
	if err != nil {
		t.Fatalf("LoadCorpus(missing): %v", err)
	}
	if lines != nil {
		t.Errorf("got %v, want nil", lines)
	}
}

// TestCaseQuantileMethodAxis pins the qm field of the reproducer
// format: hms renders (and round-trips) explicitly, bisect is omitted
// so every pre-existing corpus line stays canonical.
func TestCaseQuantileMethodAxis(t *testing.T) {
	line := "n=64 topo=complete seed=1 loss=0 qm=hms plan=crash:0.2@0.5"
	c, err := ParseCase(line)
	if err != nil {
		t.Fatalf("ParseCase(%q): %v", line, err)
	}
	if c.QuantileMethod != drrgossip.QuantileHMS {
		t.Fatalf("QuantileMethod = %v, want hms", c.QuantileMethod)
	}
	if got := c.String(); got != line {
		t.Errorf("round trip:\n  in:  %s\n  out: %s", line, got)
	}
	// Absent qm means the bisection default — back-compat with every
	// line pinned before the axis existed.
	old, err := ParseCase("n=64 topo=complete seed=1 loss=0 plan=none")
	if err != nil {
		t.Fatal(err)
	}
	if old.QuantileMethod != drrgossip.QuantileBisect {
		t.Fatalf("legacy line parsed as %v, want bisect", old.QuantileMethod)
	}
	if _, err := ParseCase("n=64 seed=1 qm=newton"); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestGenerateCoversBothMethods checks the generator actually draws
// both quantile drivers, and that ForceMethod pins a campaign to one.
func TestGenerateCoversBothMethods(t *testing.T) {
	seen := map[drrgossip.QuantileMethod]int{}
	for i := 0; i < 60; i++ {
		seen[Generate(5, i).QuantileMethod]++
	}
	if seen[drrgossip.QuantileBisect] == 0 || seen[drrgossip.QuantileHMS] == 0 {
		t.Fatalf("generator covers only %v", seen)
	}
}

// TestShrinkDropsQuantileMethod checks the delta-debugger simplifies an
// hms case down to the bisection reference when the failure does not
// need the HMS driver.
func TestShrinkDropsQuantileMethod(t *testing.T) {
	plan, err := faults.Parse("crash:0.3@0.5")
	if err != nil {
		t.Fatal(err)
	}
	c := Case{N: 64, Topology: drrgossip.Complete, Seed: 1,
		QuantileMethod: drrgossip.QuantileHMS, Plan: plan}
	min := Shrink(c, func(cand Case) bool { return cand.Plan != nil }, 50)
	if min.QuantileMethod != drrgossip.QuantileBisect {
		t.Errorf("QuantileMethod = %v, want bisect (irrelevant to the predicate)", min.QuantileMethod)
	}
}
