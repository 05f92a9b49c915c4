// Package chord implements the Chord distributed hash table overlay
// (Stoica et al., SIGCOMM 2001) as the sparse-network case study of
// Section 4 / Theorem 14 of the paper: an identifier ring with finger
// tables, greedy clockwise routing with O(log n) hops, and a routing-based
// uniform random node sampler standing in for King et al.'s "choosing a
// random peer in Chord" (see docs/PAPER_MAP.md, Section 4).
//
// The ring is fully implicit: finger tables are never materialized.
// Routing recomputes the O(bits) finger candidates of the current hop on
// the fly (same asymptotic hop cost, zero storage), and the communication
// graph is an implicit graph.Graph whose neighbour lists — forward
// fingers, reverse fingers and ring links — are derived from closed-form
// successor arithmetic (Even placement) or binary search over the sorted
// identifier array (Hashed placement, the only O(n) state kept).
package chord

import (
	"fmt"
	"sort"

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
// i·step); Hashed placement stores only the sorted identifier array.
type Ring struct {
	n      int
	bits   int
	space  uint64   // 2^bits
	step   uint64   // Even placement: ids[i] = i*step; 0 under Hashed
	ids    []uint64 // Hashed placement: sorted identifiers; nil under Even
	minArc uint64   // smallest successor arc, for rejection sampling
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

// appendFingers appends successor(ID(i) + 2^k) for every k, excluding i
// itself, without sorting or dedup.
func (r *Ring) appendFingers(i int, buf []int) []int {
	id := r.ID(i)
	for k := 0; k < r.bits; k++ {
		f := r.SuccessorOf((id + (uint64(1) << uint(k))) & (r.space - 1))
		if f != i {
			buf = append(buf, f)
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
	return dst
}

// closestPreceding returns the finger of cur whose identifier is closest
// to id while remaining strictly within the clockwise interval
// (ids[cur], id); cur itself if none. Finger candidates are recomputed on
// the fly, scanning shifts from the largest down. The clockwise distance
// from cur to successor(ID(cur) + 2^k) is nondecreasing in k (every
// finger other than cur lies at least 2^k past it), so the first finger
// found strictly inside the interval is the closest one, and shifts with
// 2^k >= dist(cur, id) cannot land inside it at all.
func (r *Ring) closestPreceding(cur int, id uint64) int {
	curID := r.ID(cur)
	span := r.dist(curID, id)
	for k := r.bits - 1; k >= 0; k-- {
		s := uint64(1) << uint(k)
		if s >= span {
			continue
		}
		f := r.SuccessorOf((curID + s) & (r.space - 1))
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
		id := rng.Uint64n(r.space)
		path = r.AppendRoute(dst[:base], from, id)
		totalHops += len(path) - base
		owner := r.SuccessorOf(id)
		a := float64(r.arc(owner))
		if a <= avgArc || try >= 63 || rng.Float64() < avgArc/a {
			return owner, path, totalHops
		}
		dst = path // keep the grown capacity for the next try
	}
}

// appendOwnersLinear appends (ascending) every node whose identifier lies
// in the linear range [a, b]; empty when a > b.
func (r *Ring) appendOwnersLinear(a, b uint64, buf []int) []int {
	if a > b {
		return buf
	}
	if r.ids == nil {
		i := int((a + r.step - 1) / r.step) // first index with i·step >= a
		j := int(b / r.step)                // last index with j·step <= b
		if j >= r.n {
			j = r.n - 1
		}
		for v := i; v <= j; v++ {
			buf = append(buf, v)
		}
		return buf
	}
	i := sort.Search(r.n, func(k int) bool { return r.ids[k] >= a })
	for ; i < r.n && r.ids[i] <= b; i++ {
		buf = append(buf, i)
	}
	return buf
}

// appendOwnersIn appends every node whose identifier lies in the
// clockwise identifier interval (lo, hi]; the interval must be nonempty
// (lo != hi).
func (r *Ring) appendOwnersIn(lo, hi uint64, buf []int) []int {
	if lo < hi {
		return r.appendOwnersLinear(lo+1, hi, buf)
	}
	buf = r.appendOwnersLinear(lo+1, r.space-1, buf)
	return r.appendOwnersLinear(0, hi, buf)
}

// appendGraphNeighbors appends node u's neighbours in the induced
// communication graph — forward fingers, reverse fingers (nodes v with u
// in their finger set), and the undirected ring links to successor and
// predecessor — sorted and deduplicated, excluding u.
//
// Reverse fingers come from an interval query instead of scanning all
// nodes: u = successor(ID(v) + 2^k) iff ID(v) + 2^k lands in u's owned
// arc (pred(u), u], i.e. ID(v) ∈ (ID(pred(u)) − 2^k, ID(u) − 2^k].
func (r *Ring) appendGraphNeighbors(u int, buf []int) []int {
	start := len(buf)
	buf = r.appendFingers(u, buf)
	uID := r.ID(u)
	predID := r.ID((u + r.n - 1) % r.n)
	mask := r.space - 1
	for k := 0; k < r.bits; k++ {
		s := uint64(1) << uint(k)
		buf = r.appendOwnersIn((predID-s)&mask, (uID-s)&mask, buf)
	}
	// Ring links: the successor edge is always present even when finger
	// dedup removed it, and symmetrically u is its predecessor's successor.
	if s := (u + 1) % r.n; s != u {
		buf = append(buf, s, (u+r.n-1)%r.n)
	}
	// Sort, dedup, drop u (the reverse-finger query can return u itself
	// when a shift maps u's own identifier back into its arc).
	row := buf[start:]
	sort.Ints(row)
	w := 0
	for _, v := range row {
		if v != u && (w == 0 || v != row[w-1]) {
			row[w] = v
			w++
		}
	}
	return buf[:start+w]
}

// Graph returns the undirected communication graph induced by the finger
// tables (including successor links): an edge {i, f} for every finger f of
// i. This is the topology Local-DRR runs on (Section 4); its degree is
// O(log n).
//
// The graph is implicit: neighbour lists are recomputed per query from
// successor arithmetic (see appendGraphNeighbors), so the graph costs no
// memory at any n.
func (r *Ring) Graph() *graph.Graph {
	return graph.NewImplicit(fmt.Sprintf("chord(%d)", r.n), graph.ImplicitSpec{
		N:     r.n,
		Edges: -1, // counted lazily on first NumEdges call
		Fill:  func(u int, buf []int) []int { return r.appendGraphNeighbors(u, buf) },
	})
}
