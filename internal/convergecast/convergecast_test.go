package convergecast

import (
	"math"
	"testing"
	"testing/quick"

	"drrgossip/internal/agg"
	"drrgossip/internal/drr"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

// buildForest runs DRR to obtain a realistic ranking forest.
func buildForest(t *testing.T, eng *sim.Engine) *forest.Forest {
	t.Helper()
	res, err := drr.Run(eng, drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Forest
}

// treeValues collects the member values of the tree rooted at r.
func treeValues(f *forest.Forest, values []float64, r int) []float64 {
	var vs []float64
	for i := 0; i < f.N(); i++ {
		if f.Member(i) && f.RootOf(i) == r {
			vs = append(vs, values[i])
		}
	}
	return vs
}

func TestMaxExact(t *testing.T) {
	eng := sim.NewEngine(1024, sim.Options{Seed: 1})
	f := buildForest(t, eng)
	values := agg.GenUniform(1024, -50, 50, 7)
	before := eng.Stats()
	got, err := new(Scratch).Max(eng, f, values)
	stats := eng.Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range f.Roots() {
		want := agg.Exact(agg.Max, treeValues(f, values, r), 0)
		if got[k] != want {
			t.Fatalf("root %d: max = %v, want %v", r, got[k], want)
		}
	}
	// O(n) messages: every non-root sends once + ack.
	nonRoots := int64(f.NumMembers() - f.NumTrees())
	if stats.Messages != 2*nonRoots {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*nonRoots)
	}
}

func TestSumExact(t *testing.T) {
	eng := sim.NewEngine(1024, sim.Options{Seed: 3})
	f := buildForest(t, eng)
	values := agg.GenUniform(1024, 0, 10, 9)
	sums, sizes, err := new(Scratch).Sum(eng, f, values)
	if err != nil {
		t.Fatal(err)
	}
	totalCount := 0.0
	for k, r := range f.Roots() {
		tv := treeValues(f, values, r)
		wantSum := agg.Exact(agg.Sum, tv, 0)
		if math.Abs(sums[k]-wantSum) > 1e-9 {
			t.Fatalf("root %d: sum = %v, want %v", r, sums[k], wantSum)
		}
		if sizes[k] != float64(len(tv)) || sizes[k] != float64(f.TreeSizes()[k]) {
			t.Fatalf("root %d: count = %v, want %d", r, sizes[k], len(tv))
		}
		totalCount += sizes[k]
	}
	if totalCount != float64(f.NumMembers()) {
		t.Fatalf("tree sizes sum to %v, want %d", totalCount, f.NumMembers())
	}
}

func TestSumExactUnderLoss(t *testing.T) {
	// The ack/retransmit scheme must make tree aggregates exact even at
	// the paper's maximal δ = 1/8.
	eng := sim.NewEngine(2048, sim.Options{Seed: 4, Loss: 0.125})
	f := buildForest(t, eng)
	values := agg.GenUniform(2048, 0, 100, 10)
	before := eng.Stats()
	sums, _, err := new(Scratch).Sum(eng, f, values)
	stats := eng.Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range f.Roots() {
		tv := treeValues(f, values, r)
		if math.Abs(sums[k]-agg.Exact(agg.Sum, tv, 0)) > 1e-9 {
			t.Fatalf("root %d sum wrong under loss", r)
		}
	}
	if stats.Drops == 0 {
		t.Fatal("expected some drops at δ = 1/8")
	}
}

func TestRoundsBoundedByHeight(t *testing.T) {
	eng := sim.NewEngine(4096, sim.Options{Seed: 5})
	f := buildForest(t, eng)
	values := agg.GenUniform(4096, 0, 1, 11)
	before := eng.Stats()
	_, err := new(Scratch).Max(eng, f, values)
	stats := eng.Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > f.MaxHeight()+1 {
		t.Fatalf("lossless convergecast took %d rounds, height %d", stats.Rounds, f.MaxHeight())
	}
}

func TestBroadcastValue(t *testing.T) {
	eng := sim.NewEngine(1024, sim.Options{Seed: 6})
	f := buildForest(t, eng)
	perRoot := make([]float64, f.NumTrees())
	for k, r := range f.Roots() {
		perRoot[k] = float64(r) * 1.5
	}
	before := eng.Stats()
	got, err := new(Scratch).BroadcastValue(eng, f, perRoot, nil)
	stats := eng.Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		want := float64(f.RootOf(i)) * 1.5
		if got[i] != want {
			t.Fatalf("node %d got %v, want %v", i, got[i], want)
		}
	}
	// O(n) messages: each non-root receives one delivery + one ack.
	nonRoots := int64(f.NumMembers() - f.NumTrees())
	if stats.Messages != 2*nonRoots {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*nonRoots)
	}

	// Into caller storage that holds it, the same result overwrites every
	// stale entry in place.
	eng = sim.NewEngine(1024, sim.Options{Seed: 6})
	f = buildForest(t, eng)
	stale := make([]float64, 2*f.N())
	for i := range stale {
		stale[i] = -7
	}
	again, err := new(Scratch).BroadcastValue(eng, f, perRoot, stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != f.N() || &again[0] != &stale[0] {
		t.Fatalf("result of %d entries not on the caller's storage", len(again))
	}
	for i := range again {
		if again[i] != got[i] && !(math.IsNaN(again[i]) && math.IsNaN(got[i])) {
			t.Fatalf("node %d got %v into caller storage, %v fresh", i, again[i], got[i])
		}
	}
}

func TestBroadcastRootAddr(t *testing.T) {
	eng := sim.NewEngine(2048, sim.Options{Seed: 7, Loss: 0.1})
	f := buildForest(t, eng)
	got, err := new(Scratch).BroadcastRootAddr(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		if !f.Member(i) {
			if got[i] != -1 {
				t.Fatalf("non-member %d got root %d", i, got[i])
			}
			continue
		}
		if got[i] != f.RootOf(i) {
			t.Fatalf("node %d learned root %d, want %d", i, got[i], f.RootOf(i))
		}
	}
}

func TestBroadcastMissingRootPayload(t *testing.T) {
	eng := sim.NewEngine(64, sim.Options{Seed: 8})
	f := buildForest(t, eng)
	for _, m := range []int{0, f.NumTrees() - 1, f.NumTrees() + 1} {
		if _, err := new(Scratch).BroadcastValue(eng, f, make([]float64, m), nil); err == nil {
			t.Fatalf("%d root payloads for %d trees accepted", m, f.NumTrees())
		}
	}
}

func TestWithCrashes(t *testing.T) {
	eng := sim.NewEngine(1024, sim.Options{Seed: 9, CrashFrac: 0.25, Loss: 0.05})
	f := buildForest(t, eng)
	values := agg.GenUniform(1024, 0, 10, 12)
	_, sizes, err := new(Scratch).Sum(eng, f, values)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, size := range sizes {
		total += size
	}
	if total != float64(eng.NumAlive()) {
		t.Fatalf("counted %v nodes, alive %d", total, eng.NumAlive())
	}
}

func TestSizeMismatch(t *testing.T) {
	eng := sim.NewEngine(10, sim.Options{Seed: 1})
	f, err := forest.FromParents([]int{forest.Root, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Scratch).Max(eng, f, []float64{1, 2}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestHandBuiltChain(t *testing.T) {
	// Chain 3 -> 2 -> 1 -> 0(root): strictly sequential aggregation.
	f, err := forest.FromParents([]int{forest.Root, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(4, sim.Options{Seed: 10})
	before := eng.Stats()
	sums, sizes, err := new(Scratch).Sum(eng, f, []float64{1, 2, 3, 4})
	stats := eng.Stats().Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != 10 || sizes[0] != 4 {
		t.Fatalf("chain sum = %v over %v nodes", sums[0], sizes[0])
	}
	// Depth-3 chain completes in exactly 3 lossless rounds.
	if stats.Rounds != 3 {
		t.Fatalf("chain rounds = %d, want 3", stats.Rounds)
	}
}

// Property: for random forests and values, convergecast sums match exact
// per-tree aggregation, and broadcast reaches every member.
func TestConvergecastProperty(t *testing.T) {
	f := func(seed uint16) bool {
		n := 128
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(seed), Loss: 0.05})
		fo := func() *forest.Forest {
			res, err := drr.Run(eng, drr.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Forest
		}()
		values := agg.GenSigned(n, 20, uint64(seed)+1)
		sums, _, err := new(Scratch).Sum(eng, fo, values)
		if err != nil {
			return false
		}
		grand := 0.0
		for _, sum := range sums {
			grand += sum
		}
		want := agg.Exact(agg.Sum, values, 0)
		return math.Abs(grand-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConvergecastSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(4096, sim.Options{Seed: uint64(i)})
		res, err := drr.Run(eng, drr.Options{})
		if err != nil {
			b.Fatal(err)
		}
		values := agg.GenUniform(4096, 0, 1, uint64(i))
		if _, _, err := new(Scratch).Sum(eng, res.Forest, values); err != nil {
			b.Fatal(err)
		}
	}
}

// momentLanes lays out the two lanes of a Moments convergecast: the
// values, then their squares.
func momentLanes(values []float64) []float64 {
	in := append([]float64(nil), values...)
	for _, v := range values {
		in = append(in, v*v)
	}
	return in
}

// Moments is a sum over two lanes, v and v²: each root learns both sums
// and its tree size in one pass.
func TestMomentsExact(t *testing.T) {
	eng := sim.NewEngine(1024, sim.Options{Seed: 31})
	f := buildForest(t, eng)
	values := agg.GenSigned(1024, 10, 32)
	sums, sizes, err := new(Scratch).Sum(eng, f, momentLanes(values))
	if err != nil {
		t.Fatal(err)
	}
	m := f.NumTrees()
	for k, r := range f.Roots() {
		tv := treeValues(f, values, r)
		wantSum := agg.Exact(agg.Sum, tv, 0)
		wantSum2 := 0.0
		for _, v := range tv {
			wantSum2 += v * v
		}
		if math.Abs(sums[k]-wantSum) > 1e-9 || math.Abs(sums[m+k]-wantSum2) > 1e-9 {
			t.Fatalf("root %d moments = %v, %v, want sum %v sum2 %v", r, sums[k], sums[m+k], wantSum, wantSum2)
		}
		if sizes[k] != float64(len(tv)) {
			t.Fatalf("root %d count = %v, want %d", r, sizes[k], len(tv))
		}
	}
}

func TestMomentsUnderLoss(t *testing.T) {
	eng := sim.NewEngine(512, sim.Options{Seed: 33, Loss: 0.125})
	f := buildForest(t, eng)
	values := agg.GenUniform(512, 0, 10, 34)
	_, sizes, err := new(Scratch).Sum(eng, f, momentLanes(values))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, size := range sizes {
		total += size
	}
	if total != float64(f.NumMembers()) {
		t.Fatalf("counts sum to %v, want %d", total, f.NumMembers())
	}
}
