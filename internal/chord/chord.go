// Package chord implements the Chord distributed hash table overlay
// (Stoica et al., SIGCOMM 2001) as the sparse-network case study of
// Section 4 / Theorem 14 of the paper: an identifier ring with finger
// tables, greedy clockwise routing with O(log n) hops, and a routing-based
// uniform random node sampler standing in for King et al.'s "choosing a
// random peer in Chord" (see docs/PAPER_MAP.md, Section 4).
//
// A Ring stores no finger tables and no per-node routing state. A
// hop's fingers come from finger: under Even placement a closed form
// (two per-shift offsets fixed by New, an add, a multiply and two
// compares, no division); under Hashed placement a binary search over
// the sorted identifier array (the only O(n) state kept). A hop probes
// only the shifts below its remaining span, from the largest down. The
// communication graph Local-DRR runs on is built once by Graph, as CSR
// rows of forward fingers, reverse fingers and ring links.
package chord

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Placement selects how node identifiers are laid out on the ring.
type Placement int

const (
	// Even spaces identifiers uniformly: successor(random id) is exactly
	// a uniform node, so sampling needs no rejection.
	Even Placement = iota
	// Hashed draws identifiers pseudo-randomly (the realistic DHT case);
	// the sampler then removes arc-length bias by rejection.
	Hashed
)

// Options configure ring construction.
type Options struct {
	Bits      int       // identifier space size 2^Bits; 0 means 40
	Placement Placement // Even (default) or Hashed
	Seed      uint64    // identifier seed for Hashed placement
}

// Ring is an immutable Chord overlay on nodes 0..n-1. Node indices are
// ranks on the identifier circle: node i's successor is node (i+1) mod n.
// Even placement stores no per-node state at all (identifiers are
// i·step; its finger offsets are two arrays of one entry per shift);
// Hashed placement stores only the sorted identifier array.
type Ring struct {
	n      int
	bits   int
	space  uint64   // 2^bits
	step   uint64   // Even placement: ids[i] = i*step; 0 under Hashed
	ids    []uint64 // Hashed placement: sorted identifiers; nil under Even
	minArc uint64   // smallest successor arc, for rejection sampling
	// Even placement, per shift k: near[k] = ⌈2^k/step⌉, the finger
	// offset when ID(i) + 2^k does not wrap past 0, and far[k] =
	// ⌈(2^k − rem)/step⌉ with rem = space − n·step, the offset past n
	// when it does (0 where 2^k <= rem, which never wraps).
	near, far [62]uint64
}

// New builds a Chord ring on n nodes (n >= 2).
func New(n int, opts Options) (*Ring, error) {
	if n < 2 {
		return nil, fmt.Errorf("chord: need n >= 2, got %d", n)
	}
	bits := opts.Bits
	if bits == 0 {
		bits = 40
	}
	if bits < 1 || bits > 62 {
		return nil, fmt.Errorf("chord: Bits must be in [1,62], got %d", bits)
	}
	space := uint64(1) << uint(bits)
	if uint64(n) > space {
		return nil, fmt.Errorf("chord: %d nodes exceed identifier space 2^%d", n, bits)
	}
	r := &Ring{n: n, bits: bits, space: space}
	switch opts.Placement {
	case Even:
		r.step = space / uint64(n)
		// Every arc is step except node 0's, which absorbs the rounding
		// remainder (space - (n-1)·step >= step), so minArc = step.
		r.minArc = r.step
		rem := space - uint64(n)*r.step
		for k := 0; k < bits; k++ {
			s := uint64(1) << uint(k)
			r.near[k] = (s + r.step - 1) / r.step
			if s > rem {
				r.far[k] = (s - rem + r.step - 1) / r.step
			}
		}
	case Hashed:
		rng := xrand.Derive(opts.Seed, 0xC40D, uint64(n))
		used := make(map[uint64]bool, n)
		ids := make([]uint64, n)
		for i := range ids {
			for {
				id := rng.Uint64n(space)
				if !used[id] {
					used[id] = true
					ids[i] = id
					break
				}
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		r.ids = ids
		r.minArc = r.arc(0)
		for i := 1; i < n; i++ {
			if a := r.arc(i); a < r.minArc {
				r.minArc = a
			}
		}
	default:
		return nil, fmt.Errorf("chord: unknown placement %d", opts.Placement)
	}
	return r, nil
}

// MustNew is New for known-good parameters.
func MustNew(n int, opts Options) *Ring {
	r, err := New(n, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// N returns the number of nodes.
func (r *Ring) N() int { return r.n }

// Bits returns the identifier width.
func (r *Ring) Bits() int { return r.bits }

// ID returns node i's identifier.
func (r *Ring) ID(i int) uint64 {
	if r.ids == nil {
		return uint64(i) * r.step
	}
	return r.ids[i]
}

// arc returns the identifier distance from node i's predecessor boundary:
// the length of the arc (pred(i), ids[i]] that node i owns.
func (r *Ring) arc(i int) uint64 {
	prev := r.ID((i + r.n - 1) % r.n)
	return (r.ID(i) - prev) & (r.space - 1)
}

// SuccessorOf returns the node owning identifier id: the first node whose
// identifier is >= id in clockwise order (wrapping to node 0).
func (r *Ring) SuccessorOf(id uint64) int {
	id &= r.space - 1
	if r.ids == nil {
		// Closed form of the binary search over ids[i] = i·step: the
		// first i with i·step >= id is ceil(id/step).
		i := int((id + r.step - 1) / r.step)
		if i >= r.n {
			return 0
		}
		return i
	}
	i := sort.Search(r.n, func(k int) bool { return r.ids[k] >= id })
	if i == r.n {
		return 0
	}
	return i
}

// finger returns node i's k-th finger, successor(ID(i) + 2^k), for
// 0 <= k < bits. Under Even placement ID(i) + 2^k lands at ⌈·/step⌉ =
// i + near[k] unless that passes n; then it is node 0 if the shift
// stays below space (node 0's arc absorbs the rounding remainder), and
// otherwise it wraps past identifier 0 onto i + far[k] − n.
func (r *Ring) finger(i, k int) int {
	if r.ids != nil {
		return r.SuccessorOf(r.ids[i] + uint64(1)<<uint(k))
	}
	if f := uint64(i) + r.near[k]; f < uint64(r.n) {
		return int(f)
	}
	if uint64(i)*r.step+uint64(1)<<uint(k) < r.space {
		return 0
	}
	return int(uint64(i) + r.far[k] - uint64(r.n))
}

// appendFingers appends node i's distinct fingers, finger(i, k) over
// every k except those landing on i itself, in clockwise order from i.
// Every shift 2^k <= minArc lands on i's successor, so the search
// starts at the first longer shift; a finger's clockwise distance from
// i never falls as k grows, so repeats are adjacent.
func (r *Ring) appendFingers(i int, buf []int) []int {
	last := (i + 1) % r.n
	buf = append(buf, last)
	for k := bits.Len64(r.minArc); k < r.bits; k++ {
		if f := r.finger(i, k); f != i && f != last {
			buf = append(buf, f)
			last = f
		}
	}
	return buf
}

// dist returns the clockwise identifier distance from a to b.
func (r *Ring) dist(a, b uint64) uint64 { return (b - a) & (r.space - 1) }

// AppendRoute appends to dst the greedy finger-routing hop path from
// node `from` to the node owning identifier id, excluding `from` itself,
// and returns the extended buffer. Nothing is appended when `from`
// already owns id. Hop count is O(log n) for both placements. The
// caller owns dst; reusing it across calls makes routing
// allocation-free.
func (r *Ring) AppendRoute(dst []int, from int, id uint64) []int {
	dst, _ = r.route(dst, from, id)
	return dst
}

// route is AppendRoute that also returns the owner of id.
func (r *Ring) route(dst []int, from int, id uint64) ([]int, int) {
	id &= r.space - 1
	owner := r.SuccessorOf(id)
	base := len(dst)
	for cur := from; cur != owner; {
		next := r.closestPreceding(cur, id)
		if next == cur {
			// No finger strictly precedes id: the successor owns it.
			next = (cur + 1) % r.n
		}
		dst = append(dst, next)
		cur = next
		if len(dst)-base > 4*r.bits {
			panic("chord: routing did not converge")
		}
	}
	return dst, owner
}

// closestPreceding returns the finger of cur whose identifier is closest
// to id while remaining strictly within the clockwise interval
// (ids[cur], id); cur itself if none. It probes finger(cur, k) from the
// largest shift below span = dist(cur, id) down: shifts with 2^k >= span
// cannot land inside the interval, and the clockwise distance from cur
// to finger(cur, k) is nondecreasing in k (every finger other than cur
// lies at least 2^k past it), so the first finger found strictly inside
// the interval is the closest one. A span of 0 or 1 leaves no room.
func (r *Ring) closestPreceding(cur int, id uint64) int {
	curID := r.ID(cur)
	span := r.dist(curID, id)
	if span <= 1 {
		return cur
	}
	for k := bits.Len64(span-1) - 1; k >= 0; k-- {
		f := r.finger(cur, k)
		if f != cur && r.dist(curID, r.ID(f)) < span {
			return f
		}
	}
	return cur
}

// AppendRouteToNode appends to dst the hop path from node `from` to node
// `to` (nothing when from == to) and returns the extended buffer.
func (r *Ring) AppendRouteToNode(dst []int, from, to int) []int {
	if from == to {
		return dst
	}
	return r.AppendRoute(dst, from, r.ID(to))
}

// AppendSample draws a near-uniform random node by routing: pick a
// uniform identifier, route to its owner, and accept with probability
// min(1, avgArc/arc(owner)), which cancels the arc-length bias up to a
// constant factor (P(node) ∝ min(arc, avgArc)). With Even placement every
// arc equals avgArc, so sampling is exactly uniform in one try. This
// stands in for King et al.'s exactly-uniform protocol while preserving
// the T = O(log n) rounds, M = O(log n) messages contract that Theorem 14
// needs (docs/PAPER_MAP.md, Section 4). Expected tries is O(1); a budget
// of 64 tries bounds the worst case, after which the last candidate is
// accepted.
//
// It returns the accepted node, dst extended by the hop path of the
// accepted route (path[len(dst):]; a rejected try's hops are
// overwritten), and the total hops spent including rejected attempts
// (the message cost of the sample).
func (r *Ring) AppendSample(dst []int, rng *xrand.Stream, from int) (node int, path []int, totalHops int) {
	avgArc := float64(r.space) / float64(r.n)
	base := len(dst)
	for try := 0; ; try++ {
		var owner int
		path, owner = r.route(dst[:base], from, rng.Uint64n(r.space))
		totalHops += len(path) - base
		a := float64(r.arc(owner))
		if a <= avgArc || try >= 63 || rng.Float64() < avgArc/a {
			return owner, path, totalHops
		}
		dst = path // keep the grown capacity for the next try
	}
}

// Graph returns the undirected communication graph induced by the finger
// tables: an edge {i, f} for every finger f of i (the successor link is
// the first finger). This is the topology Local-DRR runs on (Section 4);
// its degree is O(log n). The CSR rows cost O(n·bits) finger lookups
// and 8 + 4·d bytes per node. A graph is immutable, so Even-placement
// rings of one size and width, which are identical, share the graph last
// built for one (see lastEven).
func (r *Ring) Graph() *graph.Graph {
	if r.ids != nil {
		return r.buildGraph()
	}
	lastEven.Lock()
	defer lastEven.Unlock()
	if lastEven.g == nil || lastEven.n != r.n || lastEven.bits != r.bits {
		lastEven.g, lastEven.n, lastEven.bits = r.buildGraph(), r.n, r.bits
	}
	return lastEven.g
}

// lastEven holds the most recently built Even-placement graph, so the
// sessions over one ring (a benchmark's or a service's) keep one copy
// instead of one each. It holds one graph at most, until a ring of
// another size or width asks for its own.
var lastEven struct {
	sync.Mutex
	n, bits int
	g       *graph.Graph
}

func (r *Ring) buildGraph() *graph.Graph {
	var fingers []int
	return graph.Build(fmt.Sprintf("chord(%d)", r.n), r.n, func(emit func(u, v int)) {
		for i := 0; i < r.n; i++ {
			fingers = r.appendFingers(i, fingers[:0])
			for _, f := range fingers {
				emit(i, f)
			}
		}
	})
}
