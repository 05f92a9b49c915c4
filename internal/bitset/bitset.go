// Package bitset implements a dense, fixed-capacity bitset.
//
// The lower-bound experiments of Theorem 15 track, for every node, the set
// of node values it has learned (directly or indirectly). With n nodes this
// needs n sets of n bits with fast union — exactly what a dense bitset is
// for.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset. The zero value is unusable; create Sets
// with New.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set with capacity for n bits, all cleared.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every bit in [0, Len) is set.
func (s *Set) Full() bool { return s.Count() == s.n }

// Fill sets every bit in [0, Len). Bits beyond Len stay clear, so Count
// and Full remain exact.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := s.n % wordBits; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << uint(tail)) - 1
	}
}

// UnionWith ors other into s. Both sets must have the same capacity.
func (s *Set) UnionWith(other *Set) {
	if other.n != s.n {
		panic("bitset: capacity mismatch in UnionWith")
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and other contain exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if other.n != s.n {
		return false
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Resize makes s an empty set of n bits, reusing its storage when it is
// large enough (the zero Set resizes like any other).
func (s *Set) Resize(n int) {
	if n < 0 {
		panic("bitset: negative size")
	}
	words := (n + wordBits - 1) / wordBits
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		clear(s.words)
	}
	s.n = n
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}
