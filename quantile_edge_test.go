package drrgossip

import (
	"errors"
	"math"
	"testing"

	"drrgossip/internal/agg"
)

// bothMethods runs a subtest per quantile method so every edge case is
// pinned for the bisection reference and the HMS driver alike.
func bothMethods(t *testing.T, f func(t *testing.T, method QuantileMethod)) {
	t.Helper()
	for _, m := range []QuantileMethod{QuantileBisect, QuantileHMS} {
		t.Run(m.String(), func(t *testing.T) { f(t, m) })
	}
}

func runQuantile(t *testing.T, cfg Config, values []float64, phi, tol float64) *Answer {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(QuantileOf(values, phi, tol))
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// φ = 1/n targets rank 1 — the minimum — and φ = 1 targets rank n, the
// maximum. Both are the extreme targets where HMS's interval pruning is
// most fragile (the boundary duplicate pile IS the answer).
func TestQuantileExtremePhi(t *testing.T) {
	const n = 256
	values := uniformValues(n, 81)
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 82, QuantileMethod: m}
		lo := runQuantile(t, cfg, values, 1.0/float64(n), 0.01)
		if want := agg.Exact(agg.Min, values, 0); math.Abs(lo.Value-want) > 0.02 {
			t.Errorf("phi=1/n: got %v, want min %v", lo.Value, want)
		}
		hi := runQuantile(t, cfg, values, 1.0, 0.01)
		if want := agg.Exact(agg.Max, values, 0); math.Abs(hi.Value-want) > 0.02 {
			t.Errorf("phi=1: got %v, want max %v", hi.Value, want)
		}
	})
}

// Duplicate-heavy multisets: only 5 distinct values, so almost every
// rank boundary falls inside a duplicate pile.
func TestQuantileDuplicateHeavy(t *testing.T) {
	const n = 300
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 5)
	}
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 83, QuantileMethod: m}
		for _, phi := range []float64{0.01, 0.2, 0.5, 0.8, 1.0} {
			ans := runQuantile(t, cfg, values, phi, 0.01)
			want := agg.Quantile(values, phi)
			if math.Abs(ans.Value-want) > 0.02 {
				t.Errorf("phi=%v: got %v, want %v", phi, ans.Value, want)
			}
		}
	})
}

// All-equal inputs: the quantile is the constant for every φ, and
// Tol <= 0 must not divide-by-zero or loop (range is zero).
func TestQuantileConstantValues(t *testing.T) {
	const n = 128
	values := make([]float64, n)
	for i := range values {
		values[i] = 42.5
	}
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 84, QuantileMethod: m}
		for _, phi := range []float64{0.01, 0.5, 1.0} {
			ans := runQuantile(t, cfg, values, phi, 0)
			if ans.Value != 42.5 {
				t.Errorf("phi=%v: got %v, want 42.5", phi, ans.Value)
			}
		}
	})
}

// Tol <= 0 asks for the default resolution: range/2^20. Both methods
// must accept it and return within that implied tolerance (HMS is
// simply exact).
func TestQuantileDefaultResolution(t *testing.T) {
	const n = 256
	values := uniformValues(n, 85)
	want := agg.Quantile(values, 0.5)
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 86, QuantileMethod: m}
		ans := runQuantile(t, cfg, values, 0.5, 0)
		if math.Abs(ans.Value-want) > 1000.0/(1<<20)+1e-9 {
			t.Errorf("tol=0: got %v, want %v within default resolution", ans.Value, want)
		}
		if !ans.Converged {
			t.Errorf("tol=0: did not converge")
		}
	})
}

// The facade rejects N < 2 outright — a single node has nobody to
// gossip with — so the smallest population a quantile can run on is 2.
func TestQuantileSmallestPopulation(t *testing.T) {
	if _, err := New(Config{N: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("N=1 accepted: %v", err)
	}
	values := []float64{7, 3}
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: 2, Seed: 87, QuantileMethod: m}
		lo := runQuantile(t, cfg, values, 0.5, 0.01)
		if math.Abs(lo.Value-3) > 0.02 {
			t.Errorf("phi=0.5 over {3,7}: got %v, want 3", lo.Value)
		}
		hi := runQuantile(t, cfg, values, 1.0, 0.01)
		if math.Abs(hi.Value-7) > 0.02 {
			t.Errorf("phi=1 over {3,7}: got %v, want 7", hi.Value)
		}
	})
}

// Out-of-range φ must be rejected with ErrBadConfig before any fault
// plan expands or any protocol runs — the regression pinned here is the
// old behavior where Quantile validated φ only after Min/Max/Count had
// already run (and RunAll had already bound fault plans). A NaN
// tolerance is rejected the same way: it used to make the bisection
// loop's `hi-lo > tol` test false at once, returning the maximum as the
// median with Converged false.
func TestQuantilePhiValidation(t *testing.T) {
	const n = 64
	values := uniformValues(n, 88)
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 89, QuantileMethod: m}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ phi, tol float64 }{
			{0, 1}, {-1, 1}, {1.5, 1}, {math.NaN(), 1}, {0.5, math.NaN()},
		} {
			ans, err := nw.Run(QuantileOf(values, tc.phi, tc.tol))
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("phi=%v tol=%v: want ErrBadConfig, got %v (ans %+v)", tc.phi, tc.tol, err, ans)
			}
		}
		if st := nw.Stats(); st.ProtocolRuns != 0 {
			t.Fatalf("bad phi still spent %d protocol runs", st.ProtocolRuns)
		}
	})
}

// A bad φ inside a RunAll batch must fail the whole batch up front,
// before any fault plan is bound — PlanBinds == 0 is the observable
// guarantee that validation happens pre-expansion.
func TestQuantilePhiValidationBeforeBinding(t *testing.T) {
	const n = 64
	values := uniformValues(n, 88)
	plan, err := ParseFaultPlan("crash:0.2@0.5")
	if err != nil {
		t.Fatal(err)
	}
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := Config{N: n, Seed: 89, Faults: plan, QuantileMethod: m}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = nw.RunAll([]Query{
			MaxOf(values),
			QuantileOf(values, 2.0, 1.0),
		})
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("want ErrBadConfig, got %v", err)
		}
		if st := nw.Stats(); st.PlanBinds != 0 {
			t.Fatalf("bad phi still bound %d fault plans", st.PlanBinds)
		}
		if st := nw.Stats(); st.ProtocolRuns != 0 {
			t.Fatalf("bad phi still spent %d protocol runs", st.ProtocolRuns)
		}
	})
}

// rampValues returns 0, 1, …, n-1.
func rampValues(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

// Non-finite inputs have no well-defined bisection bracket: an infinite
// maximum used to come back as the "converged" median, and an infinite
// minimum made every midpoint -Inf. QuantileOf rejects them — NaN too —
// with ErrBadConfig before any protocol run or fault-plan binding, in
// both methods, and ExactOf applies the same check.
func TestQuantileRejectsNonFiniteValues(t *testing.T) {
	const n = 256
	plan, err := ParseFaultPlan("crash:0.2@0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		values := rampValues(n)
		values[7] = bad
		q := QuantileOf(values, 0.5, 0)
		bothMethods(t, func(t *testing.T, m QuantileMethod) {
			nw, err := New(Config{N: n, Seed: 1, QuantileMethod: m})
			if err != nil {
				t.Fatal(err)
			}
			if ans, err := nw.Run(q); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("v[7]=%v: want ErrBadConfig, got %v (answer %+v)", bad, err, ans)
			}
			if st := nw.Stats(); st.ProtocolRuns != 0 {
				t.Fatalf("v[7]=%v: rejected query still spent %d protocol runs", bad, st.ProtocolRuns)
			}
			faulted, err := New(Config{N: n, Seed: 1, QuantileMethod: m, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := faulted.RunAll([]Query{MaxOf(rampValues(n)), q}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("v[7]=%v: batch accepted: %v", bad, err)
			}
			if st := faulted.Stats(); st.PlanBinds != 0 || st.ProtocolRuns != 0 {
				t.Fatalf("v[7]=%v: rejected batch still bound or ran: %+v", bad, st)
			}
		})
		if _, err := ExactOf(Config{N: n, Seed: 1}, q); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ExactOf with v[7]=%v: want ErrBadConfig, got %v", bad, err)
		}
	}
}

// Finite values whose range overflows: max − min = ±1.7e308 spans more
// than math.MaxFloat64. The bisection must halve the bracket without
// forming that difference — it used to take an infinite default
// tolerance (answering the maximum as the "converged" median after 3
// runs) or an infinite midpoint (burning every run to answer +Inf).
func TestQuantileOverflowingRange(t *testing.T) {
	const n = 256
	values := rampValues(n)
	values[7], values[8] = 1.7e308, -1.7e308
	cfg := Config{N: n, Seed: 1}
	want, err := ExactOf(cfg, QuantileOf(values, 0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want != 128 {
		t.Fatalf("exact median %v, want 128", want)
	}
	bothMethods(t, func(t *testing.T, m QuantileMethod) {
		cfg := cfg
		cfg.QuantileMethod = m
		// tol 0 picks range/2^20, itself finite: 3.4e308/2^20.
		for _, tc := range []struct{ tol, resolution float64 }{
			{0, 1.7e308 / (1 << 19)},
			{0.5, 0.5},
		} {
			ans := runQuantile(t, cfg, values, 0.5, tc.tol)
			if math.IsInf(ans.Value, 0) || math.IsNaN(ans.Value) || ans.Value < want {
				t.Fatalf("tol=%v: got %v (converged %v), want a finite bracket end >= %v", tc.tol, ans.Value, ans.Converged, want)
			}
			if ans.Converged && ans.Value-want > tc.resolution {
				t.Errorf("tol=%v: converged to %v, more than %v above the exact %v", tc.tol, ans.Value, tc.resolution, want)
			}
			if ans.Cost.Runs > maxQuantileRuns {
				t.Errorf("tol=%v: %d runs exceed the cap", tc.tol, ans.Cost.Runs)
			}
		}
	})
}
