package drrgossip

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"drrgossip/internal/agg"
	"drrgossip/internal/faults"
)

func uniformValues(n int, seed uint64) []float64 {
	return agg.GenUniform(n, 0, 1000, seed)
}

// runOnce answers q on a fresh single-use session for cfg.
func runOnce(cfg Config, q Query) (*Answer, error) {
	nw, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return nw.Run(q)
}

// mustRun is runOnce failing the test on error.
func mustRun(t testing.TB, cfg Config, q Query) *Answer {
	t.Helper()
	a, err := runOnce(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustExact returns ExactOf(cfg, q), failing the test on error.
func mustExact(t testing.TB, cfg Config, q Query) float64 {
	t.Helper()
	v, err := ExactOf(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMaxFacade(t *testing.T) {
	cfg := Config{N: 1024, Seed: 1}
	values := uniformValues(1024, 2)
	res := mustRun(t, cfg, MaxOf(values))
	if want := mustExact(t, cfg, MaxOf(values)); res.Value != want {
		t.Fatalf("Max = %v, want %v", res.Value, want)
	}
	if !res.Consensus || res.Trees == 0 || res.Cost.Rounds == 0 || res.Cost.Messages == 0 {
		t.Fatalf("result fields missing: %+v", res)
	}
	if res.Alive != 1024 {
		t.Fatalf("Alive = %d", res.Alive)
	}
}

func TestMinFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 3}
	values := uniformValues(512, 4)
	res := mustRun(t, cfg, MinOf(values))
	if res.Value != mustExact(t, cfg, MinOf(values)) {
		t.Fatalf("Min = %v", res.Value)
	}
}

func TestAverageFacade(t *testing.T) {
	cfg := Config{N: 1024, Seed: 5}
	values := uniformValues(1024, 6)
	res := mustRun(t, cfg, AverageOf(values))
	want := mustExact(t, cfg, AverageOf(values))
	if agg.RelError(res.Value, want) > 1e-6 {
		t.Fatalf("Average = %v, want %v", res.Value, want)
	}
}

func TestSumCountFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 7}
	values := uniformValues(512, 8)
	sum := mustRun(t, cfg, SumOf(values))
	if agg.RelError(sum.Value, mustExact(t, cfg, SumOf(values))) > 1e-6 {
		t.Fatalf("Sum = %v", sum.Value)
	}
	count := mustRun(t, cfg, CountOf(values))
	if agg.RelError(count.Value, 512) > 1e-6 {
		t.Fatalf("Count = %v", count.Value)
	}
}

func TestRankFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 9}
	values := uniformValues(512, 10)
	q := 300.0
	res := mustRun(t, cfg, RankOf(values, q))
	want := agg.Exact(agg.Rank, values, q)
	if agg.RelError(res.Value, want) > 1e-6 {
		t.Fatalf("Rank = %v, want %v", res.Value, want)
	}
}

func TestQuantileFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 11}
	values := uniformValues(512, 12)
	res := mustRun(t, cfg, QuantileOf(values, 0.5, 0.5))
	want := agg.Quantile(values, 0.5)
	if math.Abs(res.Value-want) > 5 {
		t.Fatalf("median ≈ %v, want ~%v", res.Value, want)
	}
	if res.Cost.Runs < 4 || res.Cost.Messages == 0 {
		t.Fatalf("quantile accounting off: %+v", res)
	}
}

func TestChordTopologyFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 13, Topology: Chord}
	values := uniformValues(512, 14)
	res := mustRun(t, cfg, MaxOf(values))
	if res.Value != mustExact(t, cfg, MaxOf(values)) || !res.Consensus {
		t.Fatalf("chord Max = %v", res.Value)
	}
	avg := mustRun(t, cfg, AverageOf(values))
	if agg.RelError(avg.Value, mustExact(t, cfg, AverageOf(values))) > 1e-5 {
		t.Fatalf("chord Average = %v", avg.Value)
	}
	mn := mustRun(t, cfg, MinOf(values))
	if mn.Value != mustExact(t, cfg, MinOf(values)) {
		t.Fatalf("chord Min = %v", mn.Value)
	}
}

func TestFailuresFacade(t *testing.T) {
	cfg := Config{N: 2048, Seed: 15, Loss: 0.1, CrashFraction: 0.2}
	values := uniformValues(2048, 16)
	res := mustRun(t, cfg, MaxOf(values))
	if res.Value != mustExact(t, cfg, MaxOf(values)) {
		t.Fatalf("Max under failures = %v", res.Value)
	}
	if res.Alive >= 2048 || res.Cost.Drops == 0 {
		t.Fatalf("failure accounting off: alive=%d drops=%d", res.Alive, res.Cost.Drops)
	}
}

func TestConfigValidation(t *testing.T) {
	values := uniformValues(8, 1)
	cases := []Config{
		{N: 1, Seed: 1},
		{N: 8, Seed: 1, Loss: 1.0},
		{N: 8, Seed: 1, Loss: -0.5},
		{N: 8, Seed: 1, CrashFraction: 1.0},
		{N: 8, Seed: 1, Topology: Chord, CrashFraction: 0.5},
		{N: 8, Seed: 1, Topology: Topology{name: "bogus"}},
		{N: 6, Seed: 1, Topology: Hypercube},          // 6 is not a power of two
		{N: 14, Seed: 1, Topology: Torus},             // 14 = 2*7 has no rows,cols >= 3 split
		{N: 8, Seed: 1, Topology: RandomRegular(2)},   // degree below the d >= 3 floor
		{N: 9, Seed: 1, Topology: RandomRegular(3)},   // n*d odd
		{N: 8, Seed: 1, Topology: RandomRegular(8)},   // d >= n
		{N: 5, Seed: 1, Topology: SmallWorldK(2)},     // n < 2k+2
		{N: 2, Seed: 1, Topology: Ring},               // ring needs n >= 3
		{N: 4, Seed: 1, Topology: ScaleFree},          // n <= m+1
		{N: 16, Seed: 1, Topology: Torus, Loss: -0.1}, // bad loss still rejected
		// NaN fails every comparison, so only negated in-range checks
		// catch it (a NaN Loss used to run with no drops and a wrong sum).
		{N: 8, Seed: 1, Loss: math.NaN()},
		{N: 8, Seed: 1, CrashFraction: math.NaN()},
		{N: 8, Seed: 1, Mode: Async, AsyncEps: math.NaN()},
		// ParseFaultPlan already refuses a NaN loss; a plan built in code
		// meets the same check at New.
		{N: 8, Seed: 1, Faults: faults.LossSpike(math.NaN(), faults.AtFrac(0.2), faults.AtFrac(0.8))},
		{N: 8, Seed: 1, Faults: faults.LossSpike(1.5, faults.AtFrac(0.1), faults.AtFrac(0.9))},
	}
	for _, spec := range []string{"loss:nan@0.2..0.8", "loss:NaN@0.1..0.9", "loss:1.5@0.2..0.8"} {
		if _, err := ParseFaultPlan(spec); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ParseFaultPlan(%q) error = %v, want ErrBadConfig", spec, err)
		}
	}
	for i, cfg := range cases {
		if _, err := runOnce(cfg, MaxOf(uniformValues(cfg.N, 1))); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: error = %v, want ErrBadConfig", i, err)
		}
	}
	if _, err := runOnce(Config{N: 8, Seed: 1}, MaxOf(values[:4])); !errors.Is(err, ErrBadConfig) {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := runOnce(Config{N: 8, Seed: 1}, QuantileOf(values, 1.5, 0)); !errors.Is(err, ErrBadConfig) {
		t.Fatal("phi out of range not rejected")
	}
}

// Networks past the largest-tree election key's 24-bit root-id field are
// rejected before anything is built; the limit itself is accepted.
func TestConfigRejectsKeyEncodingLimit(t *testing.T) {
	err := Config{N: 1<<24 + 1, Seed: 1}.validate()
	if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "election key") {
		t.Fatalf("N = 2^24+1: error = %v, want ErrBadConfig naming the key encoding", err)
	}
	if _, err := New(Config{N: 1<<24 + 1, Seed: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("New(N = 2^24+1) error = %v, want ErrBadConfig", err)
	}
	if err := (Config{N: 1 << 24, Seed: 1}).validate(); err != nil {
		t.Fatalf("N = 2^24 rejected: %v", err)
	}
}

func TestDeterministicFacade(t *testing.T) {
	cfg := Config{N: 512, Seed: 17}
	values := uniformValues(512, 18)
	a := mustRun(t, cfg, AverageOf(values))
	b := mustRun(t, cfg, AverageOf(values))
	if a.Value != b.Value || a.Cost.Messages != b.Cost.Messages || a.Cost.Rounds != b.Cost.Rounds {
		t.Fatal("facade runs not reproducible")
	}
}

// Property: for random seeds, Max/Min/Average stay correct and consistent
// (Min <= Average <= Max) through the public API.
func TestFacadeProperty(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := Config{N: 256, Seed: uint64(seed)}
		values := uniformValues(256, uint64(seed)+99)
		mx, err := runOnce(cfg, MaxOf(values))
		if err != nil {
			return false
		}
		mn, err := runOnce(cfg, MinOf(values))
		if err != nil {
			return false
		}
		av, err := runOnce(cfg, AverageOf(values))
		if err != nil {
			return false
		}
		return mn.Value <= av.Value && av.Value <= mx.Value &&
			mx.Value == mustExact(t, cfg, MaxOf(values)) &&
			mn.Value == mustExact(t, cfg, MinOf(values))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramFacade(t *testing.T) {
	cfg := Config{N: 1024, Seed: 19}
	values := uniformValues(1024, 20) // uniform [0,1000)
	edges := []float64{250, 500, 750}
	res := mustRun(t, cfg, HistogramOf(values, edges))
	if len(res.Counts) != 4 {
		t.Fatalf("bucket count %d", len(res.Counts))
	}
	total := 0.0
	for b, c := range res.Counts {
		if c < 0 {
			t.Fatalf("negative bucket %d: %v", b, c)
		}
		total += c
	}
	if total != 1024 {
		t.Fatalf("histogram total %v != n", total)
	}
	// Cross-check each bucket against the exact counts.
	exact := make([]float64, 4)
	for _, v := range values {
		switch {
		case v <= 250:
			exact[0]++
		case v <= 500:
			exact[1]++
		case v <= 750:
			exact[2]++
		default:
			exact[3]++
		}
	}
	for b := range exact {
		if math.Abs(res.Counts[b]-exact[b]) > 0.5 {
			t.Fatalf("bucket %d = %v, want %v", b, res.Counts[b], exact[b])
		}
	}
	if res.Cost.Runs != 3 || res.Cost.Messages == 0 {
		t.Fatalf("accounting off: %+v", res)
	}
}

func TestHistogramValidation(t *testing.T) {
	cfg := Config{N: 64, Seed: 21}
	values := uniformValues(64, 22)
	if _, err := runOnce(cfg, HistogramOf(values, nil)); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty edges accepted")
	}
	for _, edges := range [][]float64{{5, 5}, {10, math.NaN(), 100}, {math.NaN()}, {math.NaN(), 10}} {
		if _, err := runOnce(cfg, HistogramOf(values, edges)); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("edges %v accepted", edges)
		}
	}
	// RunAll rejects a bad histogram before binding any fault plan.
	nw, err := New(Config{N: 64, Seed: 21, Faults: mustPlan(t, "crash:0.2@0.5")})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Query{MaxOf(values), HistogramOf(values, []float64{10, math.NaN(), 100})}
	if _, _, err := nw.RunAll(batch, BatchOptions{Parallelism: 2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("batch with NaN edge: %v, want ErrBadConfig", err)
	}
	if st := nw.Stats(); st.PlanBinds != 0 || st.ProtocolRuns != 0 {
		t.Fatalf("bad histogram still ran: %+v", st)
	}
	badCfg := cfg
	badCfg.Topology = Topology{name: "bogus"}
	if _, err := runOnce(badCfg, HistogramOf(values, []float64{5})); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bogus-topology histogram accepted")
	}
}

func TestLargeNetworkStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	// One big end-to-end run: 65536 nodes, loss, crashes.
	n := 1 << 16
	cfg := Config{N: n, Seed: 23, Loss: 0.05, CrashFraction: 0.1}
	values := uniformValues(n, 24)
	res := mustRun(t, cfg, MaxOf(values))
	if res.Value != mustExact(t, cfg, MaxOf(values)) || !res.Consensus {
		t.Fatalf("large-n Max = %v (consensus %v)", res.Value, res.Consensus)
	}
	// The paper's bounds at scale: rounds ~ log n, msgs/node ~ loglog n.
	if float64(res.Cost.Rounds) > 25*math.Log2(float64(n)) {
		t.Fatalf("rounds %d at n=64k", res.Cost.Rounds)
	}
	if perNode := float64(res.Cost.Messages) / float64(n); perNode > 50 {
		t.Fatalf("msgs/node %v at n=64k", perNode)
	}
}

func TestQuantileWithCrashes(t *testing.T) {
	// Regression: every bisection step must range over the SAME surviving
	// population (the crash set is seed-derived, so per-step seed changes
	// would make the search inconsistent).
	cfg := Config{N: 1024, Seed: 25, CrashFraction: 0.25}
	values := uniformValues(1024, 26)
	res := mustRun(t, cfg, QuantileOf(values, 0.5, 2.0))
	alive := agg.Subset(values, aliveIdx(cfg, len(values)))
	want := agg.Quantile(alive, 0.5)
	if math.Abs(res.Value-want) > 10 {
		t.Fatalf("median over survivors ≈ %v, want ~%v", res.Value, want)
	}
}

func TestHistogramWithCrashes(t *testing.T) {
	cfg := Config{N: 1024, Seed: 27, CrashFraction: 0.2}
	values := uniformValues(1024, 28)
	res := mustRun(t, cfg, HistogramOf(values, []float64{333, 666}))
	total := 0.0
	for b, c := range res.Counts {
		if c < 0 {
			t.Fatalf("negative bucket %d: %v (inconsistent crash sets)", b, c)
		}
		total += c
	}
	if want := mustExact(t, cfg, CountOf(values)); total != want {
		t.Fatalf("histogram total %v != alive count %v", total, want)
	}
}

// aliveIdx reproduces the engine's crash set for reference computations.
func aliveIdx(cfg Config, n int) []int {
	return cfg.engine().AliveIDs()
}

// The four non-complete overlays of the acceptance bar: every facade
// aggregate must reach exact (or convergent) consensus on each.
func TestOverlayFacadeEndToEnd(t *testing.T) {
	n := 256
	values := uniformValues(n, 31)
	for _, topo := range []Topology{Chord, Torus, RandomRegular(4), Hypercube, SmallWorld} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			cfg := Config{N: n, Seed: 30, Topology: topo}
			mx := mustRun(t, cfg, MaxOf(values))
			if want := mustExact(t, cfg, MaxOf(values)); mx.Value != want || !mx.Consensus {
				t.Fatalf("Max = %v (consensus %v), want %v", mx.Value, mx.Consensus, want)
			}
			mn := mustRun(t, cfg, MinOf(values))
			if mn.Value != mustExact(t, cfg, MinOf(values)) || !mn.Consensus {
				t.Fatalf("Min = %v (consensus %v)", mn.Value, mn.Consensus)
			}
			av := mustRun(t, cfg, AverageOf(values))
			if e := agg.RelError(av.Value, mustExact(t, cfg, AverageOf(values))); e > 1e-5 || !av.Consensus {
				t.Fatalf("Average = %v (rel err %v, consensus %v)", av.Value, e, av.Consensus)
			}
			sm := mustRun(t, cfg, SumOf(values))
			if e := agg.RelError(sm.Value, mustExact(t, cfg, SumOf(values))); e > 1e-5 || !sm.Consensus {
				t.Fatalf("Sum = %v (rel err %v, consensus %v)", sm.Value, e, sm.Consensus)
			}
			ct := mustRun(t, cfg, CountOf(values))
			if e := agg.RelError(ct.Value, float64(n)); e > 1e-5 || !ct.Consensus {
				t.Fatalf("Count = %v (rel err %v, consensus %v)", ct.Value, e, ct.Consensus)
			}
			if mx.Trees == 0 || mx.Cost.Rounds == 0 || mx.Cost.Messages == 0 {
				t.Fatalf("cost accounting missing: %+v", mx)
			}
		})
	}
}

func TestOverlayFacadeDeterminism(t *testing.T) {
	for _, topo := range []Topology{Torus, RandomRegular(4), Hypercube, SmallWorld} {
		cfg := Config{N: 144, Seed: 33, Topology: topo}
		if topo == Hypercube {
			cfg.N = 128
		}
		values := uniformValues(cfg.N, 34)
		a, err := runOnce(cfg, AverageOf(values))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		b, err := runOnce(cfg, AverageOf(values))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if a.Value != b.Value || a.Cost.Messages != b.Cost.Messages || a.Cost.Rounds != b.Cost.Rounds {
			t.Fatalf("%s runs not reproducible", topo)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]Topology{
		"complete":     Complete,
		"Complete":     Complete,
		"chord":        Chord,
		"torus":        Torus,
		"hypercube":    Hypercube,
		"ring":         Ring,
		"smallworld":   SmallWorld,
		"smallworld:3": SmallWorldK(3),
		"regular:6":    RandomRegular(6),
		"regular":      RandomRegular(0),
		"scalefree":    ScaleFree,
	}
	for text, want := range cases {
		got, err := ParseTopology(text)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", text, err)
		}
		if got != want {
			t.Fatalf("ParseTopology(%q) = %v, want %v", text, got, want)
		}
	}
	for _, bad := range []string{"", "mesh", "regular:x", "chord:", "chord:5", "hypercube:16"} {
		if _, err := ParseTopology(bad); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ParseTopology(%q) error = %v, want ErrBadConfig", bad, err)
		}
	}
	if names := TopologyNames(); names[0] != "complete" || len(names) < 7 {
		t.Fatalf("TopologyNames = %v", names)
	}
}

// TestChordParityPreRefactor pins the overlay refactor to the exact
// pre-refactor Chord behaviour: the golden numbers below were captured
// from the Topology-enum implementation (one facade run per line) and
// must never drift for identical (Config, Seed).
func TestChordParityPreRefactor(t *testing.T) {
	type golden struct {
		cfg             Config
		value           float64
		rounds          int
		messages, drops int64
		trees           int
	}
	cases := []struct {
		name     string
		cfg      Config
		max, ave golden
	}{
		{
			name: "even512",
			cfg:  Config{N: 512, Seed: 13, Topology: Chord},
			max:  golden{value: 997.5684283367042, rounds: 1658, messages: 23656, trees: 27},
			ave:  golden{value: 511.83300890425215, rounds: 4758, messages: 45804, trees: 27},
		},
		{
			name: "even1024",
			cfg:  Config{N: 1024, Seed: 61, Topology: Chord},
			max:  golden{value: 997.7031111253385, rounds: 1831, messages: 54051, trees: 57},
			ave:  golden{value: 500.2693236525921, rounds: 5263, messages: 108039, trees: 57},
		},
		{
			name: "lossy512",
			cfg:  Config{N: 512, Seed: 65, Topology: Chord, Loss: 0.05},
			max:  golden{value: 997.4271587119077, rounds: 1599, messages: 49715, drops: 2530, trees: 33},
			ave:  golden{value: 511.2102396079038, rounds: 4577, messages: 72151, drops: 3660, trees: 33},
		},
	}
	check := func(t *testing.T, kind string, res *Answer, want golden) {
		t.Helper()
		if res.Value != want.value || res.Cost.Rounds != want.rounds || res.Cost.Messages != want.messages ||
			res.Cost.Drops != want.drops || res.Trees != want.trees {
			t.Fatalf("%s drifted from pre-refactor: got (value=%v rounds=%d msgs=%d drops=%d trees=%d), want %+v",
				kind, res.Value, res.Cost.Rounds, res.Cost.Messages, res.Cost.Drops, res.Trees, want)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			values := agg.GenUniform(c.cfg.N, 0, 1000, c.cfg.Seed+1)
			mx := mustRun(t, c.cfg, MaxOf(values))
			check(t, "Max", mx, c.max)
			av := mustRun(t, c.cfg, AverageOf(values))
			check(t, "Average", av, c.ave)
		})
	}
}

// Quantile and Histogram compose Rank/Count, so they now run on sparse
// overlays too.
func TestQuantileOnOverlay(t *testing.T) {
	n := 256
	cfg := Config{N: n, Seed: 37, Topology: Torus}
	values := uniformValues(n, 38)
	res := mustRun(t, cfg, QuantileOf(values, 0.5, 5.0))
	want := agg.Quantile(values, 0.5)
	if math.Abs(res.Value-want) > 10 {
		t.Fatalf("torus median ≈ %v, want ~%v", res.Value, want)
	}
}
