// Package xrand provides fast, deterministic, splittable pseudo-random
// number streams for the gossip simulator.
//
// The simulator steps thousands of nodes in parallel each round; for runs to
// be reproducible from a single seed regardless of goroutine scheduling,
// every node owns an independent Stream derived from (seed, nodeID), and
// one-off decisions (e.g. per-message loss) are made by stateless hashing.
//
// The generator is the SplitMix64 design (Steele, Lea, Flood: "Fast
// Splittable Pseudorandom Number Generators", OOPSLA 2014): the state
// advances by an odd "gamma" increment and the output is a bijective mix of
// the state. Streams can be split into statistically independent children.
package xrand

import "math/bits"

// goldenGamma is the odd integer closest to 2^64/φ, the default stream
// increment of SplitMix64.
const goldenGamma = 0x9E3779B97F4A7C15

// Stream is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; give each goroutine its own Stream (see Derive and
// Split).
type Stream struct {
	state uint64
	gamma uint64 // always odd
}

// New returns a Stream seeded with seed, using the golden-ratio gamma.
func New(seed uint64) *Stream {
	return &Stream{state: Mix64(seed), gamma: goldenGamma}
}

// Derive returns a Stream for the given identifiers, independent of streams
// derived with any other identifier sequence. It is the standard way to
// create per-node generators: Derive(seed, uint64(nodeID)).
func Derive(seed uint64, ids ...uint64) *Stream {
	s := DeriveStream(seed, ids...)
	return &s
}

// DeriveStream is Derive returning the Stream by value, for callers that
// keep streams in pre-allocated storage (e.g. the simulator's per-node
// stream table, which reseeds slots in place when an engine is reused)
// and must not pay one heap allocation per stream.
func DeriveStream(seed uint64, ids ...uint64) Stream {
	k := Key(Mix64(seed))
	for _, id := range ids {
		k = Key(k.Hash(id))
	}
	h := uint64(k)
	return Stream{state: h, gamma: mixGamma(h + goldenGamma)}
}

// next advances the state and returns the raw (unmixed) state.
func (s *Stream) next() uint64 {
	s.state += s.gamma
	return s.state
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { return Mix64(s.next()) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method, which is unbiased.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// IntnOther returns a uniform int in [0, n) \ {self}; used to pick a random
// communication partner other than oneself. It panics if n < 2.
func (s *Stream) IntnOther(n, self int) int {
	if n < 2 {
		panic("xrand: IntnOther needs n >= 2")
	}
	v := s.Intn(n - 1)
	if v >= self {
		v++
	}
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return toFloat(s.Uint64())
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, via the Fisher-Yates algorithm.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Mix64 is the 64-bit finalizer of SplitMix64 (variant "mix13" by David
// Stafford). It is a bijection on uint64 with strong avalanche behaviour,
// suitable both as an RNG output function and as a hash for stateless
// deterministic decisions.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Hash combines identifiers into a single well-mixed 64-bit value. It is
// stateless: the same inputs always produce the same output. The simulator
// uses it for per-message loss decisions so that parallel delivery order
// cannot change outcomes.
func Hash(ids ...uint64) uint64 {
	k := Key(0x8A5CD789635D2DFF)
	for _, id := range ids {
		k = Key(k.Hash(id))
	}
	return uint64(k)
}

// HashFloat maps identifiers to a uniform value in [0, 1), statelessly.
func HashFloat(ids ...uint64) float64 {
	return toFloat(Hash(ids...))
}

// Key is the hash state of a fixed identifier prefix: KeyOf(a, b).Float(c)
// equals HashFloat(a, b, c) bit for bit, but mixes in only the last
// identifier. Loops that hash many ids under one constant prefix (the
// engine's per-transmission loss draw, per-node crash selection) compute
// the key once and pay two Mix64 per id instead of two for every
// identifier of the full sequence. Key.Hash is the one mixing step that
// Hash and DeriveStream fold over their identifiers.
type Key uint64

// KeyOf returns the key of the identifier prefix ids.
func KeyOf(ids ...uint64) Key { return Key(Hash(ids...)) }

// Hash returns Hash(prefix..., id).
func (k Key) Hash(id uint64) uint64 { return Mix64(uint64(k) ^ Mix64(id+goldenGamma)) }

// Float returns HashFloat(prefix..., id).
func (k Key) Float(id uint64) float64 { return toFloat(k.Hash(id)) }

// toFloat maps a hash to [0, 1) with 53 bits of precision.
func toFloat(h uint64) float64 { return float64(h>>11) * 0x1p-53 }

// mixGamma turns an arbitrary value into a valid (odd, well-mixed) gamma.
func mixGamma(x uint64) uint64 {
	x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCD // MurmurHash3 mix
	x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53
	x = (x ^ (x >> 33)) | 1 // gamma must be odd
	if bits.OnesCount64(x^(x>>1)) < 24 {
		// Too regular a bit pattern: break it up (cf. SplittableRandom).
		x ^= 0xAAAAAAAAAAAAAAAA
	}
	return x
}
