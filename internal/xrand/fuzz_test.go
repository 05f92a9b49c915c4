package xrand

import "testing"

// FuzzStreamBounds checks Intn/Uint64n/Float64 stay in range for
// arbitrary seeds and bounds, and that Mix64 stays a bijection witness
// (x != y implies no observed collision on the fuzzed pairs).
func FuzzStreamBounds(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(42), uint64(1<<62))
	f.Fuzz(func(t *testing.T, seed, bound uint64) {
		if bound == 0 {
			bound = 1
		}
		s := New(seed)
		for i := 0; i < 16; i++ {
			if v := s.Uint64n(bound); v >= bound {
				t.Fatalf("Uint64n(%d) = %d", bound, v)
			}
			if fl := s.Float64(); fl < 0 || fl >= 1 {
				t.Fatalf("Float64 = %v", fl)
			}
		}
		a, b := seed, seed^bound
		if a != b && Mix64(a) == Mix64(b) {
			t.Fatalf("Mix64 collision: %d, %d", a, b)
		}
	})
}

// FuzzKeyMatchesHash checks the keyed form against HashFloat(a, b, c)
// on arbitrary identifiers.
func FuzzKeyMatchesHash(f *testing.F) {
	f.Add(uint64(1), uint64(0x10), uint64(1))
	f.Add(uint64(1<<63), uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		checkKey(t, a, b, c)
	})
}
