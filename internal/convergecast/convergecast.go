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

// mergeFunc folds a child's contribution into the accumulator payload
// (fields A, B, C carry the aggregate vector; Kind and X are managed by
// the transport).
type mergeFunc func(acc, in sim.Payload) sim.Payload

// up runs the generic upward aggregation, merging into the per-node
// accumulators acc in place, and returns them; a root's entry then holds
// its tree's aggregate. Liveness is re-evaluated every round so that
// mid-run crashes (dynamic membership) degrade the result instead of
// stalling the phase: a dead child is no longer waited for, a node with
// a dead parent stops retrying, and under an active fault regime an
// incomplete phase returns the partial accumulators rather than
// ErrIncomplete.
func up(eng *sim.Engine, f *forest.Forest, acc []sim.Payload, merge mergeFunc) ([]sim.Payload, sim.Counters, error) {
	n := eng.N()
	if f.N() != n {
		return nil, sim.Counters{}, fmt.Errorf("convergecast: forest has %d nodes, engine %d", f.N(), n)
	}
	start := eng.Stats()
	merged := bitset.New(n) // child -> contribution registered at parent
	acked := bitset.New(n)  // child -> knows it was registered
	// expects reports whether node i still owes its parent a delivery:
	// alive, unacked, with an alive parent to deliver to.
	expects := func(i int) bool {
		return f.Member(i) && !f.IsRoot(i) && !acked.Test(i) &&
			eng.Alive(i) && eng.Alive(f.Parent(i))
	}
	// ready reports whether node i has heard from every child it can
	// still hear from (dead children are no longer waited for).
	ready := func(i int) bool {
		for _, c := range f.Children(i) {
			if !merged.Test(c) && eng.Alive(c) {
				return false
			}
		}
		return true
	}
	calls := eng.CallSlots()
	remaining := 0
	roundCap := f.MaxHeight() + extraRounds
	for round := 0; round < roundCap; round++ {
		remaining = 0
		for i := 0; i < n; i++ {
			if expects(i) {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			calls[i] = sim.Call{}
			if !expects(i) || !ready(i) {
				continue
			}
			pay := acc[i]
			pay.Kind = kindUp
			pay.X = int64(i)
			calls[i] = sim.Call{Active: true, To: f.Parent(i), Pay: pay}
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				if !merged.Test(caller) {
					merged.Set(caller)
					acc[callee] = merge(acc[callee], req)
				}
				return sim.Payload{Kind: kindUp}, true
			},
			func(caller int, resp sim.Payload) {
				acked.Set(caller)
			})
	}
	// Recount after the loop: the final acks may have landed during the
	// last permitted round, after this iteration's count was taken.
	remaining = 0
	for i := 0; i < n; i++ {
		if expects(i) {
			remaining++
		}
	}
	stats := eng.Stats().Sub(start)
	if remaining > 0 && !eng.Faulty() {
		return nil, stats, ErrIncomplete
	}
	return acc, stats, nil
}

// valueInit builds per-node payload accumulators with A = value.
func valueInit(f *forest.Forest, values []float64, withCount, withSquare bool) []sim.Payload {
	init := make([]sim.Payload, len(values))
	for i, v := range values {
		init[i].A = v
		if withSquare {
			init[i].B = v * v
		}
		if withCount && f.Member(i) {
			init[i].C = 1
		}
	}
	return init
}

// Max runs Convergecast-max (Algorithm 2): each root learns the maximum
// value in its tree. The result is indexed by root slot.
func Max(eng *sim.Engine, f *forest.Forest, values []float64) ([]float64, sim.Counters, error) {
	res, stats, err := up(eng, f, valueInit(f, values, false, false),
		func(acc, in sim.Payload) sim.Payload {
			acc.A = math.Max(acc.A, in.A)
			return acc
		})
	if err != nil {
		return nil, stats, err
	}
	out := make([]float64, f.NumTrees())
	for k, r := range f.Roots() {
		out[k] = res[r].A
	}
	return out, stats, nil
}

// addPayloads is the componentwise-sum merge shared by Sum and Moments.
func addPayloads(acc, in sim.Payload) sim.Payload {
	acc.A += in.A
	acc.B += in.B
	acc.C += in.C
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
func Sum(eng *sim.Engine, f *forest.Forest, values []float64) ([]MomentsVec, sim.Counters, error) {
	return sums(eng, f, values, false)
}

// Moments runs a three-component convergecast: each root learns its
// tree's (Σ values, Σ values², tree size). The result is indexed by root
// slot.
func Moments(eng *sim.Engine, f *forest.Forest, values []float64) ([]MomentsVec, sim.Counters, error) {
	return sums(eng, f, values, true)
}

func sums(eng *sim.Engine, f *forest.Forest, values []float64, squares bool) ([]MomentsVec, sim.Counters, error) {
	res, stats, err := up(eng, f, valueInit(f, values, true, squares), addPayloads)
	if err != nil {
		return nil, stats, err
	}
	out := make([]MomentsVec, f.NumTrees())
	for k, r := range f.Roots() {
		out[k] = MomentsVec{Sum: res[r].A, Sum2: res[r].B, Count: res[r].C}
	}
	return out, stats, nil
}

// down pushes the per-root payloads, indexed by root slot, to every tree
// member and returns the mask of members reached. A node only ever
// receives from its parent, so a reached node i holds its root slot's
// payload, perRoot[f.Slot(i)]. A node calls one child per round,
// retrying unacknowledged ones; delivered children forward to their own
// subtrees from the next round. Liveness is re-evaluated every round:
// dead children are skipped and unreachable subtrees stop counting
// toward completion, so mid-run crashes cannot stall the phase; under an
// active fault regime an incomplete broadcast returns the partial mask.
func down(eng *sim.Engine, f *forest.Forest, perRoot []sim.Payload) (*bitset.Set, sim.Counters, error) {
	n := eng.N()
	if f.N() != n {
		return nil, sim.Counters{}, fmt.Errorf("convergecast: forest has %d nodes, engine %d", f.N(), n)
	}
	if len(perRoot) != f.NumTrees() {
		return nil, sim.Counters{}, fmt.Errorf("convergecast: %d root payloads for %d trees", len(perRoot), f.NumTrees())
	}
	start := eng.Stats()
	have := bitset.New(n)
	nextChild := make([]int, n) // index into Children(i) of next un-acked child
	for _, r := range f.Roots() {
		have.Set(r)
	}
	// order lists members parents-before-children for the per-round
	// reachability sweep; reach[i] = node i holds or can still receive
	// the payload through live ancestors.
	order := f.LeavesFirst()
	reach := bitset.New(n)
	remaining := 0
	countRemaining := func() int {
		rem := 0
		for k := len(order) - 1; k >= 0; k-- {
			i := order[k]
			switch {
			case !eng.Alive(i):
				reach.Clear(i)
			case have.Test(i):
				reach.Set(i)
			case f.IsRoot(i):
				reach.Clear(i) // root without payload cannot be served
			default:
				if reach.Test(f.Parent(i)) {
					reach.Set(i)
				} else {
					reach.Clear(i)
				}
			}
			if reach.Test(i) && !have.Test(i) {
				rem++
			}
		}
		return rem
	}
	calls := eng.CallSlots()
	roundCap := f.MaxTreeSize() + f.MaxHeight() + extraRounds
	for round := 0; round < roundCap; round++ {
		remaining = countRemaining()
		if remaining == 0 {
			break
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			calls[i] = sim.Call{}
			if !have.Test(i) || !eng.Alive(i) {
				continue
			}
			kids := f.Children(i)
			// Skip children that died waiting: retrying them would block
			// the rest of the subtree forever.
			for nextChild[i] < len(kids) && !eng.Alive(kids[nextChild[i]]) {
				nextChild[i]++
			}
			if nextChild[i] >= len(kids) {
				continue
			}
			p := perRoot[f.Slot(i)]
			p.Kind = kindDown
			calls[i] = sim.Call{Active: true, To: kids[nextChild[i]], Pay: p}
		}
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				have.Set(callee)
				return sim.Payload{Kind: kindDown}, true
			},
			func(caller int, resp sim.Payload) {
				nextChild[caller]++
			})
	}
	// Recount after the loop: the final deliveries may have landed during
	// the last permitted round, after this iteration's count was taken.
	remaining = countRemaining()
	stats := eng.Stats().Sub(start)
	if remaining > 0 && !eng.Faulty() {
		return nil, stats, ErrIncomplete
	}
	return have, stats, nil
}

// BroadcastValue distributes one float per root, indexed by root slot,
// to all members of its tree: a reached node i gets perRoot[f.Slot(i)];
// non-members and unreached members (crashed, or beyond a crashed
// ancestor) get NaN.
func BroadcastValue(eng *sim.Engine, f *forest.Forest, perRoot []float64) ([]float64, sim.Counters, error) {
	pays := make([]sim.Payload, len(perRoot))
	for k, v := range perRoot {
		pays[k] = sim.Payload{A: v}
	}
	have, stats, err := down(eng, f, pays)
	if err != nil {
		return nil, stats, err
	}
	out := make([]float64, eng.N())
	for i := range out {
		if have.Test(i) {
			out[i] = perRoot[f.Slot(i)]
		} else {
			out[i] = math.NaN()
		}
	}
	return out, stats, nil
}

// BroadcastRootAddr performs the Phase II address broadcast: every root
// announces its address down its tree, so all nodes learn their root (the
// non-address-oblivious forwarding table used by Phase III). A reached
// node gets its root slot's address, f.RootOf(i); the others get -1.
func BroadcastRootAddr(eng *sim.Engine, f *forest.Forest) ([]int, sim.Counters, error) {
	pays := make([]sim.Payload, f.NumTrees())
	for k, r := range f.Roots() {
		pays[k] = sim.Payload{X: int64(r)}
	}
	have, stats, err := down(eng, f, pays)
	if err != nil {
		return nil, stats, err
	}
	out := make([]int, eng.N())
	for i := range out {
		if have.Test(i) {
			out[i] = f.RootOf(i)
		} else {
			out[i] = -1
		}
	}
	return out, stats, nil
}
