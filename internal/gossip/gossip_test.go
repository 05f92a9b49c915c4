package gossip

import (
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

// phase12 runs Phases I and II: DRR forest, convergecast (max and sum) and
// the root-address broadcast, and returns the tree-relay transport, the
// per-root maxima and sums and the tree sizes.
func phase12(t *testing.T, eng *sim.Engine, values []float64) (f *forest.Forest, tr Transport, covmax, sums, sizes []float64) {
	t.Helper()
	dres, err := drr.Run(eng, drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f = dres.Forest
	var cc convergecast.Scratch
	if covmax, err = cc.Max(eng, f, values); err != nil {
		t.Fatal(err)
	}
	if sums, sizes, err = cc.Sum(eng, f, values); err != nil {
		t.Fatal(err)
	}
	rootTo, err := cc.BroadcastRootAddr(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = Relay(eng, f, rootTo); err != nil {
		t.Fatal(err)
	}
	return f, tr, covmax, sums, sizes
}

func TestMaxAllRootsConverge(t *testing.T) {
	// Theorem 6: after the sampling procedure all roots know Max whp.
	for _, loss := range []float64{0, 0.1} {
		n := 2048
		eng := sim.NewEngine(n, sim.Options{Seed: 21, Loss: loss})
		values := agg.GenUniform(n, 0, 1000, 5)
		_, tr, covmax, _, _ := phase12(t, eng, values)
		res, err := Max(tr, covmax)
		if err != nil {
			t.Fatal(err)
		}
		want := agg.Exact(agg.Max, values, 0)
		for k, v := range res.Estimates {
			if v != want {
				t.Fatalf("loss=%v: root slot %d has %v, want %v", loss, k, v, want)
			}
		}
	}
}

func TestMaxAfterGossipFractionTheorem5(t *testing.T) {
	// Theorem 5: already after the gossip procedure a constant fraction
	// of roots holds the true Max.
	n := 4096
	eng := sim.NewEngine(n, sim.Options{Seed: 22})
	values := agg.GenUniform(n, 0, 1000, 6)
	f, tr, covmax, _, _ := phase12(t, eng, values)
	res, err := Max(tr, covmax)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Max, values, 0)
	have := 0
	for _, v := range res.AfterGossip {
		if v == want {
			have++
		}
	}
	if frac := float64(have) / float64(f.NumTrees()); frac < 0.5 {
		t.Fatalf("only %v of roots hold Max after gossip procedure", frac)
	}
}

func TestMaxMessageComplexityLinear(t *testing.T) {
	// Phase III costs O(n) messages total: O(m log n) with m = O(n/log n).
	n := 8192
	eng := sim.NewEngine(n, sim.Options{Seed: 23})
	values := agg.GenUniform(n, 0, 1, 7)
	_, tr, covmax, _, _ := phase12(t, eng, values)
	before := eng.Stats()
	if _, err := Max(tr, covmax); err != nil {
		t.Fatal(err)
	}
	// Each gossip iteration sends <= 2m messages and each sampling
	// iteration <= 3m, so the whole phase is <= c*n with
	// c = (2*gossipRounds + 3*sampleRounds) * m/n; defaults give c ~ 12.
	if msgs := eng.Stats().Sub(before).Messages; msgs > int64(16*n) {
		t.Fatalf("phase III used %d messages for n=%d", msgs, n)
	}
}

func TestSpreadReachesAllRoots(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 24, Loss: 0.05})
	values := agg.GenUniform(n, 0, 1, 8)
	f, tr, _, _, _ := phase12(t, eng, values)
	source := f.LargestRoot()
	res, err := new(Scratch).Spread(tr, source, []float64{1234.5})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Estimates {
		if v != 1234.5 {
			t.Fatalf("root slot %d got %v after spread", k, v)
		}
	}
}

func TestSpreadRejectsNonRoot(t *testing.T) {
	n := 256
	eng := sim.NewEngine(n, sim.Options{Seed: 25})
	values := agg.GenUniform(n, 0, 1, 9)
	f, tr, _, _, _ := phase12(t, eng, values)
	nonRoot := -1
	for i := 0; i < n; i++ {
		if f.Member(i) && !f.IsRoot(i) {
			nonRoot = i
			break
		}
	}
	if _, err := new(Scratch).Spread(tr, nonRoot, []float64{1}); err == nil {
		t.Fatal("non-root spread source accepted")
	}
}

func TestAveConvergesTheorem7(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 26})
	values := agg.GenUniform(n, 0, 100, 10)
	f, tr, _, sums, sizes := phase12(t, eng, values)
	z := f.LargestRoot()
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: z})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Estimates[f.Slot(z)], want); e > 1e-6 {
		t.Fatalf("largest-root estimate %v, want %v (rel err %v)", res.Estimates[f.Slot(z)], want, e)
	}
	// The trajectory must end far more accurate than it started.
	traj := res.Trajectory
	if len(traj) == 0 {
		t.Fatal("no trajectory recorded")
	}
	endErr := agg.RelError(traj[len(traj)-1], want)
	if endErr > 1e-6 {
		t.Fatalf("trajectory end error %v", endErr)
	}
}

func TestAveMassConservationLossless(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 27})
	values := agg.GenUniform(n, 0, 10, 11)
	_, tr, _, sums, sizes := phase12(t, eng, values)
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: -1})
	if err != nil {
		t.Fatal(err)
	}
	var sTot, gTot float64
	for k := range res.Weights {
		sTot += res.Sums[k]
		gTot += res.Weights[k]
	}
	if math.Abs(sTot-agg.Exact(agg.Sum, values, 0)) > 1e-6 {
		t.Fatalf("push-sum lost value mass: %v", sTot)
	}
	if math.Abs(gTot-float64(n)) > 1e-6 {
		t.Fatalf("push-sum lost weight mass: %v", gTot)
	}
}

func TestAveLargestRootOnlyGuarantee(t *testing.T) {
	// Theorem 7 guarantees convergence only at the largest-tree root
	// (selection probability is proportional to tree size, so tiny-tree
	// roots may keep their initial ratio). This is exactly why Algorithm 8
	// follows Gossip-ave with Data-spread. Check: largest root is tight,
	// and the typical (median) root is reasonable, without requiring every
	// root to converge.
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 28})
	values := agg.GenSigned(n, 50, 12)
	f, tr, _, sums, sizes := phase12(t, eng, values)
	z := f.LargestRoot()
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := math.Abs(res.Estimates[f.Slot(z)] - want); e > 0.01 {
		t.Fatalf("largest root estimate %v, want %v", res.Estimates[f.Slot(z)], want)
	}
	var errs []float64
	for _, v := range res.Estimates {
		errs = append(errs, math.Abs(v-want))
	}
	if med := metricsMedian(errs); med > 1.0 {
		t.Fatalf("median root error %v too large", med)
	}
}

// metricsMedian avoids importing internal/metrics into this package's
// tests for a single helper.
func metricsMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestAveUnderLossStaysClose(t *testing.T) {
	// Loss removes proportional (s,g) mass; the converged ratio remains a
	// bounded perturbation of the true average.
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 29, Loss: 0.1})
	values := agg.GenUniform(n, 0, 100, 13)
	f, tr, _, sums, sizes := phase12(t, eng, values)
	z := f.LargestRoot()
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: z})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Exact(agg.Average, values, 0)
	if e := agg.RelError(res.Estimates[f.Slot(z)], want); e > 0.05 {
		t.Fatalf("estimate %v vs %v: rel err %v too large under loss", res.Estimates[f.Slot(z)], want, e)
	}
}

func TestAvePotentialGeometricDecayLemma8(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 30})
	values := agg.GenUniform(n, 0, 1, 14)
	f, tr, _, sums, sizes := phase12(t, eng, values)
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: -1, TrackPotential: true})
	if err != nil {
		t.Fatal(err)
	}
	pot := res.Potential
	if len(pot) < 10 {
		t.Fatalf("potential trace too short: %d", len(pot))
	}
	// Lemma 8: E[Φ_{t+1}] < Φ_t / 2. Check the decade-scale decay without
	// requiring per-round halving (it is an expectation).
	m := float64(f.NumTrees())
	phi0 := m - 1
	mid := pot[len(pot)/2]
	if mid > phi0/8 {
		t.Fatalf("potential decayed too slowly: start %v, mid %v", phi0, mid)
	}
	last := pot[len(pot)-1]
	if last > mid {
		t.Fatalf("potential increased late: mid %v, last %v", mid, last)
	}
}

func TestAveZeroMeanValues(t *testing.T) {
	// The paper's xave = 0 corner: measure absolute error.
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 31})
	values := agg.GenZeroMean(n, 100, 15)
	f, tr, _, sums, sizes := phase12(t, eng, values)
	z := f.LargestRoot()
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: z})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimates[f.Slot(z)]) > 1e-6 {
		t.Fatalf("zero-mean estimate %v", res.Estimates[f.Slot(z)])
	}
}

func TestMissingInitRejected(t *testing.T) {
	n := 256
	eng := sim.NewEngine(n, sim.Options{Seed: 32})
	values := agg.GenUniform(n, 0, 1, 16)
	f, tr, covmax, sums, sizes := phase12(t, eng, values)
	for _, init := range [][]float64{covmax[1:], append(covmax, 0)} {
		if _, err := Max(tr, init); err == nil {
			t.Fatalf("%d max init values for %d roots accepted", len(init), f.NumTrees())
		}
	}
	for _, init := range [][]float64{sums[1:], append(sums, 0)} {
		if _, err := Ave(tr, init, sizes, AveOptions{TrackRoot: -1}); err == nil {
			t.Fatalf("%d ave init sums for %d roots accepted", len(init), f.NumTrees())
		}
	}
	for _, g := range [][]float64{sizes[1:], append(sizes, 0)} {
		if _, err := Ave(tr, sums, g, AveOptions{TrackRoot: -1}); err == nil {
			t.Fatalf("%d ave init weights for %d roots accepted", len(g), f.NumTrees())
		}
	}
	nonRoot := f.Roots()[0] + 1
	for f.IsRoot(nonRoot) {
		nonRoot++
	}
	if _, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: nonRoot}); err == nil {
		t.Fatalf("tracking non-root %d accepted", nonRoot)
	}
}

func TestInputValidation(t *testing.T) {
	eng := sim.NewEngine(8, sim.Options{Seed: 33})
	f, err := forest.FromParents([]int{forest.Root, 0, 0, 0, forest.Root, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	badRootTo := make([]int, 5) // wrong length
	if _, err := Relay(eng, f, badRootTo); err == nil {
		t.Fatal("bad rootTo length accepted")
	}
}

func TestWithCrashes(t *testing.T) {
	n := 2048
	eng := sim.NewEngine(n, sim.Options{Seed: 34, CrashFrac: 0.2, Loss: 0.05})
	values := agg.GenUniform(n, 0, 500, 17)
	_, tr, covmax, _, _ := phase12(t, eng, values)
	res, err := Max(tr, covmax)
	if err != nil {
		t.Fatal(err)
	}
	aliveVals := agg.Subset(values, eng.AliveIDs())
	want := agg.Exact(agg.Max, aliveVals, 0)
	for k, v := range res.Estimates {
		if v != want {
			t.Fatalf("root slot %d has %v, want alive-max %v", k, v, want)
		}
	}
}

func BenchmarkGossipMaxPhase(b *testing.B) {
	n := 4096
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(n, sim.Options{Seed: uint64(i)})
		dres, err := drr.Run(eng, drr.Options{})
		if err != nil {
			b.Fatal(err)
		}
		values := agg.GenUniform(n, 0, 1, uint64(i))
		covmax, err := new(convergecast.Scratch).Max(eng, dres.Forest, values)
		if err != nil {
			b.Fatal(err)
		}
		rootTo, err := new(convergecast.Scratch).BroadcastRootAddr(eng, dres.Forest)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := Relay(eng, dres.Forest, rootTo)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Max(tr, covmax); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMomentsTriplePushSum(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 35})
	values := agg.GenUniform(n, 0, 100, 36)
	dres, err := drr.Run(eng, drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := dres.Forest
	in := append([]float64(nil), values...)
	for _, v := range values {
		in = append(in, v*v)
	}
	sums, sizes, err := new(convergecast.Scratch).Sum(eng, f, in)
	if err != nil {
		t.Fatal(err)
	}
	rootTo, err := new(convergecast.Scratch).BroadcastRootAddr(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Relay(eng, f, rootTo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: -1})
	if err != nil {
		t.Fatal(err)
	}
	z := f.Slot(f.LargestRoot())
	mean, m2 := res.Estimates[z], res.Estimates[f.NumTrees()+z]
	wantMean := agg.Exact(agg.Average, values, 0)
	wantM2 := 0.0
	for _, v := range values {
		wantM2 += v * v
	}
	wantM2 /= float64(n)
	if agg.RelError(mean, wantMean) > 1e-6 {
		t.Fatalf("mean at z = %v, want %v", mean, wantMean)
	}
	if agg.RelError(m2, wantM2) > 1e-6 {
		t.Fatalf("m2 at z = %v, want %v", m2, wantM2)
	}
}

func TestMomentsReliableSharesUnderLoss(t *testing.T) {
	n := 1024
	eng := sim.NewEngine(n, sim.Options{Seed: 37, Loss: 0.125})
	values := agg.GenUniform(n, 0, 100, 38)
	dres, err := drr.Run(eng, drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := dres.Forest
	in := append([]float64(nil), values...)
	for _, v := range values {
		in = append(in, v*v)
	}
	sums, sizes, err := new(convergecast.Scratch).Sum(eng, f, in)
	if err != nil {
		t.Fatal(err)
	}
	rootTo, err := new(convergecast.Scratch).BroadcastRootAddr(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Relay(eng, f, rootTo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: -1, ReliableShares: true})
	if err != nil {
		t.Fatal(err)
	}
	z := f.Slot(f.LargestRoot())
	wantMean := agg.Exact(agg.Average, values, 0)
	if agg.RelError(res.Estimates[z], wantMean) > 1e-3 {
		t.Fatalf("mean at z = %v, want %v under loss", res.Estimates[z], wantMean)
	}
}

func TestMomentsMissingInit(t *testing.T) {
	n := 256
	eng := sim.NewEngine(n, sim.Options{Seed: 39})
	dres, err := drr.Run(eng, drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := dres.Forest
	rootTo, err := new(convergecast.Scratch).BroadcastRootAddr(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Relay(eng, f, rootTo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Ave(tr, make([]float64, 2*f.NumTrees()-1), make([]float64, f.NumTrees()), AveOptions{TrackRoot: -1}); err == nil {
		t.Fatal("init one short of the root count accepted")
	}
}

// A Scratch that earlier runs left holding inquiries and reliable shares
// gives every later run what a fresh one gives, bit for bit.
func TestScratchReuse(t *testing.T) {
	run := func(sc *Scratch, n int, seed uint64) []float64 {
		eng := sim.NewEngine(n, sim.Options{Seed: seed, Loss: 0.1})
		_, tr, covmax, sums, sizes := phase12(t, eng, agg.GenUniform(n, 0, 1000, seed))
		mres, err := sc.Max(tr, covmax)
		if err != nil {
			t.Fatal(err)
		}
		ares, err := sc.Ave(tr, sums, sizes, AveOptions{TrackRoot: -1, ReliableShares: true})
		if err != nil {
			t.Fatal(err)
		}
		return append(append(append([]float64(nil), mres.Estimates...), ares.Sums...), ares.Weights...)
	}
	var sc Scratch
	run(&sc, 2048, 41)
	for _, seed := range []uint64{43, 47} {
		want, got := run(new(Scratch), 512, seed), run(&sc, 512, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d outputs on a reused Scratch, %d on a fresh one", seed, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: output %d is %v on a reused Scratch, %v on a fresh one", seed, i, got[i], want[i])
			}
		}
	}
}
