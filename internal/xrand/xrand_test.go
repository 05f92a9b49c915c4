package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Streams derived for different node IDs must not be shifted copies of
	// one another.
	a := Derive(7, 0)
	b := Derive(7, 1)
	seen := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		seen[a.Uint64()] = true
	}
	hits := 0
	for i := 0; i < 2000; i++ {
		if seen[b.Uint64()] {
			hits++
		}
	}
	if hits > 0 {
		t.Fatalf("derived streams shared %d values", hits)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	x := Derive(9, 3, 4).Uint64()
	y := Derive(9, 3, 4).Uint64()
	if x != y {
		t.Fatalf("Derive not deterministic: %x vs %x", x, y)
	}
	z := Derive(9, 4, 3).Uint64()
	if x == z {
		t.Fatalf("Derive ignored identifier order")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += s.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const buckets = 10
	const trials = 100000
	counts := make([]int, buckets)
	for i := 0; i < trials; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(trials) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnOther(t *testing.T) {
	s := New(7)
	for n := 2; n <= 5; n++ {
		for self := 0; self < n; self++ {
			for i := 0; i < 200; i++ {
				v := s.IntnOther(n, self)
				if v == self || v < 0 || v >= n {
					t.Fatalf("IntnOther(%d,%d) = %d", n, self, v)
				}
			}
		}
	}
}

func TestIntnOtherUniform(t *testing.T) {
	s := New(8)
	const n, self, trials = 7, 3, 70000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.IntnOther(n, self)]++
	}
	if counts[self] != 0 {
		t.Fatalf("IntnOther returned self %d times", counts[self])
	}
	want := float64(trials) / (n - 1)
	for v, c := range counts {
		if v == self {
			continue
		}
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d count %d deviates from %v", v, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := s.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashStateless(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(3, 2, 1) {
		t.Fatal("Hash ignored order")
	}
	if Hash(1) == Hash(1, 0) {
		t.Fatal("Hash ignored arity")
	}
}

// A key over a fixed prefix must reproduce the full hash bit for bit:
// the engine's loss draws and crash selection hash through keys.
func TestKeyMatchesHash(t *testing.T) {
	rng := New(5)
	for i := 0; i < 10000; i++ {
		a, b, c := rng.Uint64(), rng.Uint64(), rng.Uint64()
		checkKey(t, a, b, c)
	}
	if KeyOf().Hash(7) != Hash(7) || KeyOf(3).Float(7) != HashFloat(3, 7) {
		t.Fatal("key over a short prefix diverges from Hash")
	}
}

func checkKey(t *testing.T, a, b, c uint64) {
	t.Helper()
	k := KeyOf(a, b)
	if got, want := k.Hash(c), Hash(a, b, c); got != want {
		t.Fatalf("KeyOf(%d, %d).Hash(%d) = %#x, Hash = %#x", a, b, c, got, want)
	}
	if got, want := k.Float(c), HashFloat(a, b, c); got != want {
		t.Fatalf("KeyOf(%d, %d).Float(%d) = %v, HashFloat = %v", a, b, c, got, want)
	}
}

func TestHashFloatRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		f := HashFloat(42, i)
		if f < 0 || f >= 1 {
			t.Fatalf("HashFloat out of range: %v", f)
		}
	}
}

func TestHashFloatMean(t *testing.T) {
	sum := 0.0
	const trials = 100000
	for i := uint64(0); i < trials; i++ {
		sum += HashFloat(99, i)
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("HashFloat mean %v too far from 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(11)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(12)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", got)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window of inputs.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		m := Mix64(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %x", prev, i, m)
		}
		seen[m] = i
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000003)
	}
}

func BenchmarkHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hash(uint64(i), 42)
	}
}
