package pairwise

import (
	"math"
	"testing"

	"drrgossip/internal/async"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if i < n-1 {
			adj[i] = append(adj[i], i+1)
		}
	}
	g, err := graph.FromAdjacency("line", adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func emptyGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.FromAdjacency("empty", make([][]int, n))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A single node is converged by definition: zero events, zero
// exchanges, its own value as the answer.
func TestSingleNode(t *testing.T) {
	eng := async.NewEngine(1, sim.Options{Seed: 3})
	res, err := Ave(eng, nil, []float64{42}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || eng.Stats().Rounds != 0 || res.Exchanges != 0 || res.Value != 42 {
		t.Fatalf("single node: %+v", res)
	}
}

// Equal values are converged at the start for any population size.
func TestAlreadyConverged(t *testing.T) {
	const n = 32
	values := make([]float64, n)
	for i := range values {
		values[i] = 7.5
	}
	eng := async.NewEngine(n, sim.Options{Seed: 5})
	res, err := Ave(eng, nil, values, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || eng.Stats().Rounds != 0 || res.Value != 7.5 {
		t.Fatalf("equal values: %+v", res)
	}
}

// On the edgeless graph every node is isolated: nothing ever commits,
// the run stops at its cap, reports Converged false, and the estimates
// are exactly the inputs. Termination must be clean, not a hang.
func TestEmptyGraphTerminates(t *testing.T) {
	const n = 8
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	eng := async.NewEngine(n, sim.Options{Seed: 7})
	res, err := Ave(eng, emptyGraph(t, n), values, nil, Options{MaxEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || eng.Stats().Rounds != 100 || res.Exchanges != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	for i, v := range res.PerNode {
		if v != values[i] {
			t.Fatalf("isolated node %d moved: %v", i, res.PerNode[i])
		}
	}
}

// Pairwise averaging conserves the population sum exactly (up to float
// rounding) through every committed exchange — including under loss,
// where the atomic handshake commits both endpoints or neither.
func TestMeanInvariantUnderLoss(t *testing.T) {
	const n = 64
	values := make([]float64, n)
	sum := 0.0
	for i := range values {
		values[i] = float64(i * i % 37)
		sum += values[i]
	}
	eng := async.NewEngine(n, sim.Options{Seed: 9, Loss: 0.3})
	res, err := Ave(eng, nil, values, nil, Options{MaxEvents: 5000, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Drops == 0 {
		t.Fatal("loss never bit; the invariance check is vacuous")
	}
	got := 0.0
	for _, v := range res.PerNode {
		got += v
	}
	if math.Abs(got-sum) > 1e-9*sum {
		t.Fatalf("population sum drifted: %v -> %v after %d exchanges (%d drops)",
			sum, got, res.Exchanges, eng.Stats().Drops)
	}
}

// Uniform on a line graph converges; every selector agrees on the mean.
func TestSelectorsAgreeOnMean(t *testing.T) {
	const n = 24
	values := make([]float64, n)
	want := 0.0
	for i := range values {
		values[i] = float64((i*13 + 5) % 17)
		want += values[i]
	}
	want /= n
	g := lineGraph(t, n)
	for _, name := range SelectorNames() {
		sel, err := NewSelector(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := async.NewEngine(n, sim.Options{Seed: 13})
		// A path mixes in Θ(n²) per constant-factor spread reduction — far
		// past the default cap; give the run the room the topology needs.
		res, err := Ave(eng, g, values, sel, Options{Eps: 1e-9, MaxEvents: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge on the line: %+v", name, res)
		}
		if math.Abs(res.Value-want) > 1e-8 {
			t.Fatalf("%s: value %v, want %v", name, res.Value, want)
		}
	}
}

// GGE refuses the complete graph (its cache is O(n²) there); the other
// selectors accept it. Unknown names are rejected with the catalog.
func TestSelectorValidation(t *testing.T) {
	eng := async.NewEngine(4, sim.Options{Seed: 15})
	if _, err := Ave(eng, nil, []float64{1, 2, 3, 4}, GGE(), Options{}); err == nil {
		t.Fatal("gge accepted the complete graph")
	}
	if _, err := NewSelector("nope"); err == nil {
		t.Fatal("unknown selector accepted")
	}
	for _, name := range append(SelectorNames(), "") {
		if name == "gge" {
			continue
		}
		sel, err := NewSelector(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng := async.NewEngine(4, sim.Options{Seed: 15})
		if _, err := Ave(eng, nil, []float64{1, 2, 3, 4}, sel, Options{}); err != nil {
			t.Fatalf("%s on complete: %v", name, err)
		}
	}
}

// The GGE eavesdrop cache must track the true estimates under the
// lossless wireless-broadcast assumption: after any run, the heard entry
// of every edge (t,u) equals x[u] exactly.
func TestGGECacheConsistency(t *testing.T) {
	const n = 16
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	g := lineGraph(t, n)
	sel := GGE()
	st, err := newState(n, g, values, sel)
	if err != nil {
		t.Fatal(err)
	}
	eng := async.NewEngine(n, sim.Options{Seed: 17})
	eng.Run(func(u int) { st.exchange(eng, sel, u) }, func() bool { return false }, 500)
	for u := 0; u < n; u++ {
		first, row := g.Row(u)
		for i, v := range row {
			if got, want := st.heard[first+i], st.x[v]; got != want {
				t.Fatalf("node %d heard %v from %d, actual %v", u, got, v, want)
			}
		}
	}
}

// Crash mid-run: the dead node's estimate freezes (NaN in PerNode), the
// survivors converge among themselves, and the answer is the mean of
// the survivors' estimates.
func TestCrashMidRunFreezesNode(t *testing.T) {
	const n = 16
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	eng := async.NewEngine(n, sim.Options{Seed: 19})
	crashed := false
	eng.SetRoundObserver(func(events int) {
		if events == 100 && !crashed {
			crashed = true
			eng.Crash(3)
		}
	})
	res, err := Ave(eng, nil, values, nil, Options{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("survivors did not converge: %+v", res)
	}
	if !math.IsNaN(res.PerNode[3]) {
		t.Fatalf("dead node's PerNode entry not NaN: %v", res.PerNode[3])
	}
	for i, v := range res.PerNode {
		if i == 3 {
			continue
		}
		if math.Abs(v-res.Value) > 1e-9 {
			t.Fatalf("survivor %d off consensus: %v vs %v", i, v, res.Value)
		}
	}
}
