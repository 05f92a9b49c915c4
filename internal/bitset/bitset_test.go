package bitset

import (
	"testing"
	"testing/quick"

	"drrgossip/internal/xrand"
)

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestCountAndFull(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("fresh set Count = %d", s.Count())
	}
	for i := 0; i < 100; i++ {
		s.Set(i)
		if s.Count() != i+1 {
			t.Fatalf("Count = %d after %d sets", s.Count(), i+1)
		}
	}
	if !s.Full() {
		t.Fatal("set with all bits not Full")
	}
	s.Clear(42)
	if s.Full() {
		t.Fatal("set missing a bit reported Full")
	}
}

func TestUnionWith(t *testing.T) {
	a := New(200)
	b := New(200)
	a.Set(3)
	a.Set(150)
	b.Set(7)
	b.Set(150)
	a.UnionWith(b)
	for _, i := range []int{3, 7, 150} {
		if !a.Test(i) {
			t.Fatalf("bit %d missing after union", i)
		}
	}
	if a.Count() != 3 {
		t.Fatalf("union Count = %d, want 3", a.Count())
	}
	if b.Count() != 2 {
		t.Fatal("UnionWith mutated its argument")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(10)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone not equal to original")
	}
	c.Set(20)
	if a.Test(20) {
		t.Fatal("mutating clone affected original")
	}
}

func TestResetAndEqual(t *testing.T) {
	a := New(90)
	a.Set(0)
	a.Set(89)
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
	if a.Equal(New(91)) {
		t.Fatal("Equal across different capacities")
	}
	if !a.Equal(New(90)) {
		t.Fatal("two empty same-capacity sets not Equal")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 5, 63, 64, 128, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v want %v", got, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Test(-1) },
		func() { s.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: union is commutative, associative and idempotent; count of the
// union is at least the max of the counts.
func TestUnionProperties(t *testing.T) {
	f := func(seedA, seedB uint32) bool {
		const n = 257
		a, b := New(n), New(n)
		sa := xrand.Derive(uint64(seedA), 1)
		sb := xrand.Derive(uint64(seedB), 2)
		for i := 0; i < 50; i++ {
			a.Set(sa.Intn(n))
			b.Set(sb.Intn(n))
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			return false
		}
		// idempotent
		ab2 := ab.Clone()
		ab2.UnionWith(ab)
		if !ab2.Equal(ab) {
			return false
		}
		if ab.Count() < a.Count() || ab.Count() < b.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals number of distinct indices set.
func TestCountMatchesDistinct(t *testing.T) {
	f := func(seed uint32) bool {
		const n = 513
		s := New(n)
		rng := xrand.Derive(uint64(seed), 3)
		distinct := make(map[int]bool)
		for i := 0; i < 100; i++ {
			k := rng.Intn(n)
			s.Set(k)
			distinct[k] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func BenchmarkUnionWith(b *testing.B) {
	a := New(8192)
	c := New(8192)
	for i := 0; i < 8192; i += 3 {
		c.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(c)
	}
}
