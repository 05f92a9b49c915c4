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
// serves any number of phases, on any forest size, allocating only while
// it grows. The zero value is ready to use. A Scratch runs one phase at a
// time and is not safe for concurrent use.
type Scratch struct {
	acc     []vec      // up: per-node accumulators
	pending []int32    // up: live children not merged yet
	merged  bitset.Set // up: child -> contribution registered at parent
	acked   bitset.Set // up: child -> knows it was registered
	armed   bitset.Set // up: next round's callers

	perRoot []sim.Payload // down: the payload of each root slot
	next    []int32       // down: index into Children(i) of the next unacked child
	have    bitset.Set    // down: node holds its root slot's payload
	serving bitset.Set    // down: live reached nodes with a child left
	stack   []int         // down: bookkeeping walk

	rootTo []int // BroadcastRootAddr's result
}

// vec is one node's upward accumulator: the aggregate vector an upward
// payload carries in its A, B and C fields.
type vec struct{ a, b, c float64 }

// mergeFunc folds a child's contribution into an accumulator.
type mergeFunc func(acc, in vec) vec

// load checks f and values against the engine and loads the upward
// accumulators: a = value, b = value² when withSquare, and c = 1 on
// members when withCount.
func (s *Scratch) load(eng *sim.Engine, f *forest.Forest, values []float64, withCount, withSquare bool) error {
	n := eng.N()
	if f.N() != n {
		return fmt.Errorf("convergecast: forest has %d nodes, engine %d", f.N(), n)
	}
	if len(values) != n {
		return fmt.Errorf("convergecast: %d values for %d nodes", len(values), n)
	}
	s.acc = resized(s.acc, n)
	for i, v := range values {
		a := vec{a: v}
		if withSquare {
			a.b = v * v
		}
		if withCount && f.Member(i) {
			a.c = 1
		}
		s.acc[i] = a
	}
	return nil
}

// up runs the generic upward aggregation, merging into the accumulators
// load filled, and returns them; a root's entry then holds its tree's
// aggregate. Liveness is re-evaluated whenever the membership changes,
// so that mid-run crashes (dynamic membership) degrade the result
// instead of stalling the phase: a dead child is no longer waited for, a
// node with a dead parent stops retrying, and under an active fault
// regime an incomplete phase returns the partial accumulators rather
// than ErrIncomplete.
func (s *Scratch) up(eng *sim.Engine, f *forest.Forest, merge mergeFunc) ([]vec, error) {
	n := eng.N()
	acc := s.acc
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
	// children: its first merge settles one of them.
	handle := func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
		if !s.merged.Test(caller) {
			s.merged.Set(caller)
			acc[callee] = merge(acc[callee], vec{req.A, req.B, req.C})
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
			a := acc[i]
			pay := sim.Payload{Kind: kindUp, A: a.a, B: a.b, C: a.c, X: int64(i)}
			calls = append(calls, sim.Call{From: i, To: f.Parent(i), Pay: pay})
		})
		eng.ResolveCalls(calls, handle, onReply)
	}
	if remaining > 0 && !eng.Faulty() {
		return nil, ErrIncomplete
	}
	return acc, nil
}

// Max runs Convergecast-max (Algorithm 2): each root learns the maximum
// value in its tree. The result is indexed by root slot.
func (s *Scratch) Max(eng *sim.Engine, f *forest.Forest, values []float64) ([]float64, error) {
	if err := s.load(eng, f, values, false, false); err != nil {
		return nil, err
	}
	res, err := s.up(eng, f, maxVecs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, f.NumTrees())
	for k, r := range f.Roots() {
		out[k] = res[r].a
	}
	return out, nil
}

// maxVecs is Max's merge: the larger first component.
func maxVecs(acc, in vec) vec {
	acc.a = math.Max(acc.a, in.a)
	return acc
}

// addVecs is the componentwise-sum merge shared by Sum and Moments.
func addVecs(acc, in vec) vec {
	acc.a += in.a
	acc.b += in.b
	acc.c += in.c
	return acc
}

// MomentsVec is the per-tree (Σv, Σv², size) vector of Algorithm 3,
// widened by the Σv² component that computes mean and variance in a
// single pass — the "suitable modification" extending Algorithm 3 to
// second moments within the same bounded message size. Phase III's
// push-sum carries the same vector, with Count as the weight g.
type MomentsVec struct {
	Sum   float64
	Sum2  float64
	Count float64
}

// Sum runs Convergecast-sum (Algorithm 3): each root learns its tree's
// (Σ values, tree size) vector; Sum2 stays 0. The result is indexed by
// root slot.
func (s *Scratch) Sum(eng *sim.Engine, f *forest.Forest, values []float64) ([]MomentsVec, error) {
	return s.sums(eng, f, values, false)
}

// Moments runs a three-component convergecast: each root learns its
// tree's (Σ values, Σ values², tree size). The result is indexed by root
// slot.
func (s *Scratch) Moments(eng *sim.Engine, f *forest.Forest, values []float64) ([]MomentsVec, error) {
	return s.sums(eng, f, values, true)
}

func (s *Scratch) sums(eng *sim.Engine, f *forest.Forest, values []float64, squares bool) ([]MomentsVec, error) {
	if err := s.load(eng, f, values, true, squares); err != nil {
		return nil, err
	}
	res, err := s.up(eng, f, addVecs)
	if err != nil {
		return nil, err
	}
	out := make([]MomentsVec, f.NumTrees())
	for k, r := range f.Roots() {
		out[k] = MomentsVec{Sum: res[r].a, Sum2: res[r].b, Count: res[r].c}
	}
	return out, nil
}

// down pushes the per-root payloads in s.perRoot, indexed by root slot,
// to every tree member and returns the set of members reached (valid
// until s's next phase). A node only ever receives from its parent, so a
// reached node i holds its root slot's payload, perRoot[f.Slot(i)]. A
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
	if len(s.perRoot) != f.NumTrees() {
		return nil, fmt.Errorf("convergecast: %d root payloads for %d trees", len(s.perRoot), f.NumTrees())
	}
	s.next = resized(s.next, n)
	clear(s.next)
	s.have.Resize(n)
	s.serving.Resize(n)
	for _, r := range f.Roots() {
		s.have.Set(r)
	}
	// book rebuilds the serving set and returns the number of members
	// still owed the payload: alive, not reached, with live ancestors up
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
			p := s.perRoot[f.Slot(i)]
			p.Kind = kindDown
			calls = append(calls, sim.Call{From: i, To: kids[k], Pay: p})
		})
		eng.ResolveCalls(calls, handle, onReply)
	}
	if remaining > 0 && !eng.Faulty() {
		return nil, ErrIncomplete
	}
	return &s.have, nil
}

// BroadcastValue distributes one float per root, indexed by root slot,
// to all members of its tree: a reached node i gets perRoot[f.Slot(i)];
// non-members and unreached members (crashed, or beyond a crashed
// ancestor) get NaN. The result is the caller's.
func (s *Scratch) BroadcastValue(eng *sim.Engine, f *forest.Forest, perRoot []float64) ([]float64, error) {
	s.perRoot = resized(s.perRoot, len(perRoot))
	for k, v := range perRoot {
		s.perRoot[k] = sim.Payload{A: v}
	}
	have, err := s.down(eng, f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, eng.N())
	for i := range out {
		if have.Test(i) {
			out[i] = perRoot[f.Slot(i)]
		} else {
			out[i] = math.NaN()
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
	s.perRoot = resized(s.perRoot, f.NumTrees())
	for k, r := range f.Roots() {
		s.perRoot[k] = sim.Payload{X: int64(r)}
	}
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
