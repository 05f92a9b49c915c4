// Package convergecast implements Phase II of DRR-gossip (Algorithms 2
// and 3): upward aggregation of each ranking tree's local aggregate at its
// root, and the downward broadcast that follows (root addresses after
// Phase I, final aggregates after Phase III).
//
// Loss handling follows the paper's remark that lossy links are tolerated
// by repeated calls: a child re-sends its contribution every round until
// the parent acknowledges it; the parent merges idempotently, so a
// retransmission after a lost ack cannot double-count. With δ < 1/8 every
// edge succeeds within a few attempts whp, preserving the O(n) message and
// O(max tree size) time bounds of the phase.
//
// Both directions are driven by events, not by sweeps over the nodes, so
// a phase does work in proportion to the messages it sends. Upward, each
// node counts its live children whose contribution has not merged yet; a
// node whose count reaches zero is armed, calls its parent every round,
// and disarms when the parent acknowledges it. Downward, the callers are
// the reached nodes that still have a live child to serve. A round's
// callers are read off these sets in ascending id (one pass over n/64
// bitset words), and the number of nodes still owed a delivery is kept up
// to date as merges, acks and deliveries happen. Only a round whose Tick
// changed the membership (sim.Core.MemberEpoch moved) recomputes this
// bookkeeping, in one pass over the forest.
//
// Every upward pass and BroadcastValue fold one or more value lanes: L
// per-node value vectors that share the pass's messages, loss draws and
// bill. A node's state is one column per lane of a lane-major set held
// in the Scratch (a sum pass adds the member count as the last column),
// and a payload carries only its kind: a merge reads every column of the
// caller's accumulators, which no merge touches while the caller is
// calling, and a broadcast delivery is read off the receiver's root
// slot. One lane is the paper's pass; several are several aggregates of
// one shape computed in one pass.
//
// The per-node state lives in a Scratch that callers running Phase II
// once per protocol run keep and reuse.
//
// A phase returns only its outputs. What it cost is read from the engine
// it ran on: sim.Core.Stats for the run so far, and Ledger or Billed for
// the phase a caller labelled with SetPhase.
package convergecast

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

// extraRounds pads each phase's round cap beyond the lossless minimum to
// absorb retransmissions (overall failure odds ~ n·(2δ)^60).
const extraRounds = 60

// ErrIncomplete reports that some tree failed to finish within the round
// cap (practically impossible for δ < 1/8 with the default padding).
var ErrIncomplete = errors.New("convergecast: phase did not complete within its round budget")

const (
	kindUp   uint8 = 0x21
	kindDown uint8 = 0x22
)

// Scratch holds Phase II's per-node working state: the upward
// accumulators, merge, ack and armed sets and pending-child counts, the
// downward reached and serving sets and child cursors, and the
// root-address vector. Every phase resets what it uses, so one Scratch
// serves any number of phases, on any forest size and lane count,
// allocating only while it grows. The zero value is ready to use. A
// Scratch runs one phase at a time and is not safe for concurrent use.
type Scratch struct {
	acc     []float64  // up: per-node accumulators, lane-major (lane l of node i at l*n+i)
	cnt     []float64  // up: per-node member counts (Sum only), acc's last column
	pending []int32    // up: live children not merged yet
	merged  bitset.Set // up: child -> contribution registered at parent
	acked   bitset.Set // up: child -> knows it was registered
	armed   bitset.Set // up: next round's callers

	next    []int32    // down: index into Children(i) of the next unacked child
	have    bitset.Set // down: node has heard from its root
	serving bitset.Set // down: live reached nodes with a child left
	stack   []int      // down: bookkeeping walk

	rootTo []int // BroadcastRootAddr's result
}

// lanes returns how many lanes of per-item values vals holds: a
// positive whole number of items-long vectors, or an error naming what
// the values were for.
func lanes(vals []float64, items int, what string) (int, error) {
	if items == 0 || len(vals) == 0 || len(vals)%items != 0 {
		return 0, fmt.Errorf("convergecast: %d values for %d %s", len(vals), items, what)
	}
	return len(vals) / items, nil
}

// load checks f and values against the engine and loads the upward
// accumulators from values (one or more lanes of n per-node values,
// lane-major), and the member counts when withCount. It returns the lane
// count.
func (s *Scratch) load(eng *sim.Engine, f *forest.Forest, values []float64, withCount bool) (int, error) {
	n := eng.N()
	if f.N() != n {
		return 0, fmt.Errorf("convergecast: forest has %d nodes, engine %d", f.N(), n)
	}
	L, err := lanes(values, n, "nodes")
	if err != nil {
		return 0, err
	}
	// One allocation holds the lanes and, behind them, the counts.
	size := L * n
	if withCount {
		size += n
	}
	s.acc = resized(s.acc, size)
	copy(s.acc, values)
	if withCount {
		s.cnt = s.acc[L*n:]
		for i := range s.cnt {
			s.cnt[i] = 0
			if f.Member(i) {
				s.cnt[i] = 1
			}
		}
	}
	return L, nil
}

// up runs the generic upward aggregation of L lanes, merging every
// column of the accumulators load filled: by sum (the member counts
// included) when sum is set, by maximum otherwise. A root's entries then
// hold its tree's aggregates. Liveness is re-evaluated whenever the
// membership changes, so that mid-run crashes (dynamic membership)
// degrade the result instead of stalling the phase: a dead child is no
// longer waited for, a node with a dead parent stops retrying, and under
// an active fault regime an incomplete phase keeps the partial
// accumulators rather than failing with ErrIncomplete.
func (s *Scratch) up(eng *sim.Engine, f *forest.Forest, L int, sum bool) error {
	n := eng.N()
	acc := s.acc
	cols := L * n // the columns' extent in acc
	if sum {
		cols += n
	}
	s.pending = resized(s.pending, n)
	s.merged.Resize(n)
	s.acked.Resize(n)
	s.armed.Resize(n)
	// expects reports whether node i still owes its parent a delivery:
	// alive, unacked, with an alive parent to deliver to.
	expects := func(i int) bool {
		return f.Member(i) && !f.IsRoot(i) && !s.acked.Test(i) &&
			eng.Alive(i) && eng.Alive(f.Parent(i))
	}
	// book recounts every member's pending children (dead ones are no
	// longer waited for), re-arms the nodes that expect and wait for
	// none, and returns how many expect.
	book := func() int {
		s.armed.Reset()
		remaining := 0
		for i := 0; i < n; i++ {
			if !f.Member(i) {
				continue
			}
			var waiting int32
			for _, c := range f.Children(i) {
				if !s.merged.Test(c) && eng.Alive(c) {
					waiting++
				}
			}
			s.pending[i] = waiting
			if expects(i) {
				remaining++
				if waiting == 0 {
					s.armed.Set(i)
				}
			}
		}
		return remaining
	}
	epoch := eng.MemberEpoch()
	remaining := book()
	// A caller is armed, so alive and counted in its parent's pending
	// children: its first merge settles one of them. Every column comes
	// from the caller's accumulators, which hold what it had when it
	// called: every live child of an armed caller has merged already, so
	// no merge this round writes to a caller.
	handle := func(callee, caller int, _ sim.Payload) (sim.Payload, bool) {
		if !s.merged.Test(caller) {
			s.merged.Set(caller)
			if sum {
				for o := 0; o < cols; o += n {
					acc[o+callee] += acc[o+caller]
				}
			} else {
				for o := 0; o < cols; o += n {
					acc[o+callee] = math.Max(acc[o+callee], acc[o+caller])
				}
			}
			if s.pending[callee]--; s.pending[callee] == 0 && expects(callee) {
				s.armed.Set(callee)
			}
		}
		return sim.Payload{Kind: kindUp}, true
	}
	onReply := func(caller int, _ sim.Payload) {
		s.acked.Set(caller)
		s.armed.Clear(caller)
		remaining--
	}
	roundCap := f.MaxHeight() + extraRounds
	for round := 0; round < roundCap && remaining > 0; round++ {
		eng.Tick()
		if e := eng.MemberEpoch(); e != epoch {
			epoch = e
			remaining = book()
		}
		calls := eng.CallSlots()
		s.armed.ForEach(func(i int) {
			calls = append(calls, sim.Call{From: i, To: f.Parent(i), Pay: sim.Payload{Kind: kindUp}})
		})
		eng.ResolveCalls(calls, handle, onReply)
	}
	if remaining > 0 && !eng.Faulty() {
		return ErrIncomplete
	}
	return nil
}

// atRoots appends to dst the per-node entries of v (L lanes, lane-major)
// at the roots, lane-major by root slot, and returns dst.
func atRoots(dst, v []float64, f *forest.Forest, L int) []float64 {
	n := f.N()
	for o := 0; o < L*n; o += n {
		for _, r := range f.Roots() {
			dst = append(dst, v[o+r])
		}
	}
	return dst
}

// Max runs Convergecast-max (Algorithm 2) over one or more lanes: values
// holds L lanes of per-node values, lane-major (lane l of node i at
// values[l*n+i]), and each root learns every lane's maximum in its tree.
// The result holds L lanes of per-root values, lane-major by root slot
// (lane l of slot k at [l*m+k] for m trees), and is the caller's.
func (s *Scratch) Max(eng *sim.Engine, f *forest.Forest, values []float64) ([]float64, error) {
	L, err := s.load(eng, f, values, false)
	if err != nil {
		return nil, err
	}
	if err := s.up(eng, f, L, false); err != nil {
		return nil, err
	}
	return atRoots(make([]float64, 0, L*f.NumTrees()), s.acc, f, L), nil
}

// Sum runs Convergecast-sum (Algorithm 3) over one or more lanes of
// values (laid out as for Max): each root learns every lane's sum over
// its tree and the tree's size, the number of members whose
// contribution merged. sums holds L lanes of per-root sums, lane-major by
// root slot, and sizes one entry per root slot; both are the caller's.
func (s *Scratch) Sum(eng *sim.Engine, f *forest.Forest, values []float64) (sums, sizes []float64, err error) {
	L, err := s.load(eng, f, values, true)
	if err != nil {
		return nil, nil, err
	}
	if err := s.up(eng, f, L, true); err != nil {
		return nil, nil, err
	}
	m := f.NumTrees()
	out := atRoots(make([]float64, 0, (L+1)*m), s.acc, f, L+1) // the counts are the last column
	return out[: L*m : L*m], out[L*m:], nil
}

// down pushes each root's message to every member of its tree and
// returns the set of members reached (valid until s's next phase). A
// node only ever receives from its parent, so a reached node has heard
// from its own root, and what it learns is read off its root slot. A
// node calls one child per round, retrying unacknowledged ones;
// delivered children forward to their own subtrees from the next round.
// Liveness is re-evaluated whenever the membership changes: dead children
// are skipped and unreachable subtrees stop counting toward completion,
// so mid-run crashes cannot stall the phase; under an active fault
// regime an incomplete broadcast returns the partial set.
func (s *Scratch) down(eng *sim.Engine, f *forest.Forest) (*bitset.Set, error) {
	n := eng.N()
	if f.N() != n {
		return nil, fmt.Errorf("convergecast: forest has %d nodes, engine %d", f.N(), n)
	}
	s.next = resized(s.next, n)
	clear(s.next)
	s.have.Resize(n)
	s.serving.Resize(n)
	for _, r := range f.Roots() {
		s.have.Set(r)
	}
	// book rebuilds the serving set and returns the number of members
	// still owed the message: alive, not reached, with live ancestors up
	// to a live reached one. A node is only ever reached from its reached
	// parent, so every unreached member hangs below exactly one nearest
	// reached node, and the walk below each live reached node visits its
	// unreached subtrees once.
	book := func() int {
		s.serving.Reset()
		remaining := 0
		stack := s.stack[:0]
		s.have.ForEach(func(h int) {
			if !eng.Alive(h) {
				return
			}
			kids := f.Children(h)
			if int(s.next[h]) < len(kids) {
				s.serving.Set(h)
			}
			for _, c := range kids {
				if !s.have.Test(c) {
					stack = append(stack, c)
				}
			}
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if eng.Alive(c) {
					remaining++
					stack = append(stack, f.Children(c)...)
				}
			}
		})
		s.stack = stack
		return remaining
	}
	epoch := eng.MemberEpoch()
	remaining := book()
	// A callee is alive (the call reached it) below a live reached
	// caller, so a first delivery settles one owed member.
	handle := func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
		if !s.have.Test(callee) {
			s.have.Set(callee)
			remaining--
			if len(f.Children(callee)) > 0 {
				s.serving.Set(callee)
			}
		}
		return sim.Payload{Kind: kindDown}, true
	}
	onReply := func(caller int, _ sim.Payload) {
		s.next[caller]++
	}
	roundCap := f.MaxTreeSize() + f.MaxHeight() + extraRounds
	for round := 0; round < roundCap && remaining > 0; round++ {
		eng.Tick()
		if e := eng.MemberEpoch(); e != epoch {
			epoch = e
			remaining = book()
		}
		calls := eng.CallSlots()
		s.serving.ForEach(func(i int) {
			kids := f.Children(i)
			k := int(s.next[i])
			// Skip children that died waiting: retrying them would block
			// the rest of the subtree forever.
			for k < len(kids) && !eng.Alive(kids[k]) {
				k++
			}
			s.next[i] = int32(k)
			if k == len(kids) {
				s.serving.Clear(i)
				return
			}
			calls = append(calls, sim.Call{From: i, To: kids[k], Pay: sim.Payload{Kind: kindDown}})
		})
		eng.ResolveCalls(calls, handle, onReply)
	}
	if remaining > 0 && !eng.Faulty() {
		return nil, ErrIncomplete
	}
	return &s.have, nil
}

// BroadcastValue distributes one float per root and lane to all members
// of its tree: perRoot holds L lanes of per-root values, lane-major by
// root slot, and a reached node i gets lane l's perRoot[l*m+f.Slot(i)]
// in lane l of the result (L lanes of n per-node values, lane-major);
// non-members and unreached members (crashed, or beyond a crashed
// ancestor) get NaN. The lanes share one pass, whose messages carry no
// value: what a reached node receives is read off its root slot. The
// result is written into out when its capacity holds it, into a fresh
// vector otherwise (out nil: the result is the caller's alone).
func (s *Scratch) BroadcastValue(eng *sim.Engine, f *forest.Forest, perRoot, out []float64) ([]float64, error) {
	m := f.NumTrees()
	L, err := lanes(perRoot, m, "trees")
	if err != nil {
		return nil, err
	}
	have, err := s.down(eng, f)
	if err != nil {
		return nil, err
	}
	n := eng.N()
	out = resized(out, L*n)
	for i := 0; i < n; i++ {
		if !have.Test(i) {
			for o := i; o < L*n; o += n {
				out[o] = math.NaN()
			}
			continue
		}
		k := f.Slot(i)
		for o, ok := i, k; o < L*n; o, ok = o+n, ok+m {
			out[o] = perRoot[ok]
		}
	}
	return out, nil
}

// BroadcastRootAddr performs the Phase II address broadcast: every root
// announces its address down its tree, so all nodes learn their root (the
// non-address-oblivious forwarding table used by Phase III). A reached
// node gets its root slot's address, f.RootOf(i); the others get -1. The
// result belongs to s and is valid until its next BroadcastRootAddr.
func (s *Scratch) BroadcastRootAddr(eng *sim.Engine, f *forest.Forest) ([]int, error) {
	have, err := s.down(eng, f)
	if err != nil {
		return nil, err
	}
	s.rootTo = resized(s.rootTo, eng.N())
	for i := range s.rootTo {
		if have.Test(i) {
			s.rootTo[i] = f.RootOf(i)
		} else {
			s.rootTo[i] = -1
		}
	}
	return s.rootTo, nil
}

// resized returns s with n entries, on s's own storage when it is large
// enough; the entries are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
