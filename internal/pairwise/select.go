// Peer-selection policies: who a node proposes to when its clock ticks.
// Uniform is the Dimakis et al. baseline; GGE and sample-greedy exploit
// the wireless broadcast nature of the medium — every committed exchange
// is overheard by the endpoints' neighbors for free — to pick the
// neighbor with the largest value gap instead of a random one.

package pairwise

import (
	"fmt"
	"math"
	"slices"

	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Selector is a pluggable peer-selection policy. Selectors are stateful
// per run (init builds per-run caches) and must be used by one run at
// a time; NewSelector builds a fresh one from its registry name.
type Selector interface {
	// Name returns the policy's registry name.
	Name() string
	// init prepares the per-run state; it reports an error when the
	// policy cannot run on this graph (e.g. GGE on the complete graph).
	init(st *state) error
	// pick returns the partner node u proposes to, or -1 when u has no
	// candidate (isolated node). All randomness must come from rng.
	pick(st *state, u int, rng *xrand.Stream) int
	// committed is the wireless-broadcast tap, fired after an exchange
	// commits at u and v; eavesdropping policies refresh their caches.
	committed(st *state, u, v int)
}

// state is the per-run protocol state selectors read: the estimate
// vector and the neighbor structure.
type state struct {
	n int
	g *graph.Graph // nil = complete graph
	x []float64

	// GGE eavesdrop cache (built by gge.init): heard[first+i] is the
	// estimate that the i-th neighbor in u's row last broadcast, where
	// first, row = g.Row(u).
	heard []float64
}

// SelectorNames lists the registered policy names in NewSelector order.
func SelectorNames() []string { return []string{"uniform", "gge", "samplegreedy"} }

// NewSelector builds a fresh selector by name: "uniform" (or ""),
// "gge", or "samplegreedy".
func NewSelector(name string) (Selector, error) {
	switch name {
	case "", "uniform":
		return Uniform(), nil
	case "gge":
		return GGE(), nil
	case "samplegreedy":
		return SampleGreedy(0), nil
	default:
		return nil, fmt.Errorf("pairwise: unknown selector %q (have %v)", name, SelectorNames())
	}
}

// Uniform returns the baseline policy: a uniformly random neighbor (a
// uniformly random other node on the complete graph).
func Uniform() Selector { return uniform{} }

type uniform struct{}

func (uniform) Name() string               { return "uniform" }
func (uniform) init(st *state) error       { return nil }
func (uniform) committed(*state, int, int) {}

func (uniform) pick(st *state, u int, rng *xrand.Stream) int {
	if st.g == nil {
		if st.n < 2 {
			return -1
		}
		return rng.IntnOther(st.n, u)
	}
	_, ns := st.g.Row(u)
	if len(ns) == 0 {
		return -1
	}
	return int(ns[rng.Intn(len(ns))])
}

// GGE returns greedy gossip with eavesdropping (Üstebay et al.): every
// committed exchange is broadcast to the endpoints' neighbors for free
// (the wireless medium), each node caches what it last overheard from
// each neighbor, and a ticking node picks the neighbor with the largest
// |own − overheard| gap (ties to the lowest neighbor id — deterministic,
// no randomness consumed). The cache is O(2·|E|), so GGE requires a
// sparse overlay; on the complete graph that would be O(n²) state and
// init refuses.
func GGE() Selector { return &gge{} }

type gge struct{}

func (*gge) Name() string { return "gge" }

func (*gge) init(st *state) error {
	if st.g == nil {
		return fmt.Errorf("pairwise: gge needs a sparse overlay (its eavesdrop cache is O(edges); on the complete graph that is O(n²)) — use uniform or samplegreedy")
	}
	// Rows are sorted, which makes the broadcast update a binary search
	// and the tie-break "lowest neighbor id". At start every node has
	// broadcast its initial value once.
	st.heard = make([]float64, 2*st.g.NumEdges())
	for u := 0; u < st.n; u++ {
		first, row := st.g.Row(u)
		for i, v := range row {
			st.heard[first+i] = st.x[v]
		}
	}
	return nil
}

func (*gge) pick(st *state, u int, _ *xrand.Stream) int {
	first, row := st.g.Row(u)
	best, gap := -1, -1.0
	xu := st.x[u]
	for i, v := range row {
		if g := math.Abs(xu - st.heard[first+i]); g > gap {
			gap, best = g, int(v)
		}
	}
	return best
}

func (*gge) committed(st *state, u, v int) {
	st.broadcast(u)
	st.broadcast(v)
}

// broadcast refreshes what u's neighbors overhear after u's estimate
// changed: for each neighbor t, the cache entry of edge (t, u) becomes
// u's new value. Rows are sorted, so locating u in t's row is a binary
// search — O(deg(u) · log deg(t)) per commit.
func (st *state) broadcast(u int) {
	xu := st.x[u]
	_, row := st.g.Row(u)
	for _, t := range row {
		first, trow := st.g.Row(int(t))
		if i, ok := slices.BinarySearch(trow, int32(u)); ok {
			st.heard[first+i] = xu
		}
	}
}

// SampleGreedy returns the sample-greedy policy (Shin, He, Tsourdos): a
// ticking node samples s candidate neighbors (with replacement; s=0
// picks the default 3) and proposes to the sampled candidate with the
// largest value gap — greedy gain at O(s) selection cost instead of
// GGE's O(degree) scan and O(edges) cache, and therefore available on
// the complete graph too. Candidate values are read through the same
// free wireless broadcasts GGE eavesdrops on.
func SampleGreedy(s int) Selector {
	if s <= 0 {
		s = 3
	}
	return sampleGreedy{s: s}
}

type sampleGreedy struct{ s int }

func (sg sampleGreedy) Name() string            { return "samplegreedy" }
func (sampleGreedy) init(st *state) error       { return nil }
func (sampleGreedy) committed(*state, int, int) {}

func (sg sampleGreedy) pick(st *state, u int, rng *xrand.Stream) int {
	var ns []int32
	if st.g != nil {
		_, ns = st.g.Row(u)
		if len(ns) == 0 {
			return -1
		}
	} else if st.n < 2 {
		return -1
	}
	best, gap := -1, -1.0
	xu := st.x[u]
	for i := 0; i < sg.s; i++ {
		var c int
		if st.g == nil {
			c = rng.IntnOther(st.n, u)
		} else {
			c = int(ns[rng.Intn(len(ns))])
		}
		if g := math.Abs(xu - st.x[c]); g > gap {
			gap, best = g, c
		}
	}
	return best
}
