// Binding: resolving a symbolic Plan against (n, seed, horizon) into an
// immutable round-sorted action schedule, and replaying it on an engine.

package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

type actionKind uint8

const (
	actCrash actionKind = iota
	actRevive
	actReviveAll
	actReviveSome
	actOpen
	actClose
)

// action is one concrete state change at a known round.
type action struct {
	round int
	kind  actionKind
	win   int     // actOpen/actClose: index into Bound.windows
	nodes []int   // crash/revive sets
	auto  bool    // actRevive: scheduled end of a crash hold (vs. a user Rejoin)
	count int     // actReviveSome: how many dead nodes to revive
	frac  float64 // actReviveSome: fraction of the dead to revive
	order []int   // actReviveSome: node preference order (a permutation)
}

// window is one link-level fault event resolved at Bind time. While it
// is open, a LossBurst drops with extra probability loss on every link, a
// Flaky region does so on every link touching a member, a Partition
// severs the links between its groups and a LinkDown severs its link.
type window struct {
	kind Kind
	loss float64 // LossBurst, Flaky
	in   []bool  // Flaky: per-node membership
	part []int   // Partition: per-node group id
	link [2]int  // LinkDown: the endpoints, lower first
}

// Host is the engine surface a Replay drives: membership control plus
// the two hook points the schedule installs itself on. Both engines
// satisfy it through the sim.Core they embed — sim.Engine reads the
// round hook's argument as its synchronous round index, async.Engine as
// a wall-clock fault tick (async.TicksPerUnit ticks per unit of
// simulated time) — so one plan grammar, one Bind and one action
// schedule serve both execution models; only the horizon's unit differs
// at Bind time.
type Host interface {
	Alive(i int) bool
	Crash(i int)
	Revive(i int)
	SetLinkFault(f sim.LinkFault)
	SetRoundHook(h func(round int))
}

// Bound is a plan resolved against a concrete (n, seed, horizon): a
// deterministic schedule of engine state changes. It is immutable once
// Bind returns, so one Bound may drive any number of runs, concurrent
// ones included; each Attach starts a Replay holding that run's state.
type Bound struct {
	n       int
	acts    []action // sorted by round; plan order within a round
	windows []window // the plan's link-level faults, in plan order
}

// Bind resolves the plan. horizon is the anticipated total number of
// rounds; it is required (> 0) when the plan places events by horizon
// fraction or contains churn processes, and ignored otherwise. seed
// drives every node-set and churn decision, so equal (plan, n, seed,
// horizon) bind to identical schedules.
func (p *Plan) Bind(n int, seed uint64, horizon int) (*Bound, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	if p.NeedsHorizon() && horizon <= 0 {
		return nil, fmt.Errorf("%w: plan has fractional timings or churn but no horizon", ErrBadPlan)
	}
	b := &Bound{n: n}
	if p.Empty() {
		return b, nil
	}
	for idx, ev := range p.Events {
		at := ev.At.resolve(horizon)
		end := math.MaxInt
		if !ev.End.isZero() {
			end = ev.End.resolve(horizon)
			if end < at {
				return nil, fmt.Errorf("%w: event %d (%s) ends (round %d) before it starts (round %d)",
					ErrBadPlan, idx, ev.Kind, end, at)
			}
		}
		switch ev.Kind {
		case Crash:
			nodes := ev.selectNodes(n, seed, idx)
			b.add(at, action{kind: actCrash, nodes: nodes})
			if end != math.MaxInt {
				b.add(end, action{kind: actRevive, nodes: nodes, auto: true})
			}
		case Rejoin:
			switch {
			case len(ev.Nodes) > 0:
				b.add(at, action{kind: actRevive, nodes: ev.selectNodes(n, seed, idx)})
			case ev.Frac == 0 && ev.Count == 0:
				b.add(at, action{kind: actReviveAll})
			default:
				// Revive some of the currently dead nodes: the set is
				// resolved at fire time against whoever is actually down
				// (a fraction means that share of the dead population),
				// in a seed-derived deterministic preference order.
				b.add(at, action{
					kind:  actReviveSome,
					count: ev.Count,
					frac:  ev.Frac,
					order: xrand.Derive(seed, 0xFA, uint64(idx)).Perm(n),
				})
			}
		case LossBurst, Partition, LinkDown, Flaky:
			w := window{kind: ev.Kind, loss: ev.Loss}
			switch ev.Kind {
			case Partition:
				w.part = partitionGroups(n, ev.Groups, seed, idx)
			case LinkDown:
				w.link = orient(ev.A, ev.B)
			case Flaky:
				w.in = make([]bool, n)
				for _, i := range ev.selectNodes(n, seed, idx) {
					w.in[i] = true
				}
			}
			b.windows = append(b.windows, w)
			b.add(at, action{kind: actOpen, win: len(b.windows) - 1})
			if end != math.MaxInt {
				b.add(end, action{kind: actClose, win: len(b.windows) - 1})
			}
		case ChurnKind:
			b.expandChurn(ev, n, seed, idx, horizon)
		}
	}
	slices.SortStableFunc(b.acts, func(x, y action) int { return cmp.Compare(x.round, y.round) })
	return b, nil
}

func (b *Bound) add(round int, a action) {
	a.round = max(round, 0)
	b.acts = append(b.acts, a)
}

// expandChurn unrolls a Poisson churn process over [1, horizon]: crash
// events arrive with exponential gaps at rate (Rate·n)/horizon per
// round, each hitting a uniformly random node; with Down > 0 the node
// rejoins Down rounds later.
func (b *Bound) expandChurn(ev Event, n int, seed uint64, idx, horizon int) {
	rate := ev.Rate * float64(n) / float64(horizon)
	rng := xrand.Derive(seed, 0xFB, uint64(idx))
	t := 1.0
	for {
		u := rng.Float64()
		if u == 0 {
			u = 0.5
		}
		t += -math.Log(u) / rate // exponential inter-arrival gap
		round := int(math.Ceil(t))
		if round > horizon {
			return
		}
		node := rng.Intn(n)
		b.add(round, action{kind: actCrash, nodes: []int{node}})
		if ev.Down > 0 {
			b.add(round+ev.Down, action{kind: actRevive, nodes: []int{node}, auto: true})
		}
	}
}

// partitionGroups assigns every node a group id in [0, groups) from the
// bind seed: a deterministic random partition with no empty group (the
// first `groups` nodes of a random permutation anchor one group each).
func partitionGroups(n, groups int, seed uint64, idx int) []int {
	rng := xrand.Derive(seed, 0xFC, uint64(idx))
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(groups)
	}
	perm := rng.Perm(n)
	for g := 0; g < groups && g < n; g++ {
		part[perm[g]] = g
	}
	return part
}

func orient(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Rounds returns the sorted rounds at which the schedule acts (useful
// for reports and tests).
func (b *Bound) Rounds() []int {
	var out []int
	for _, a := range b.acts {
		if len(out) == 0 || out[len(out)-1] != a.round {
			out = append(out, a.round)
		}
	}
	return out
}

// Replay is one run of a Bound on one engine: how far the schedule has
// fired, which windows are open, the crash holds and the counters the
// run reports. Attach creates it.
type Replay struct {
	b    *Bound
	eng  Host
	next int   // index in b.acts of the first action not yet reached
	open []int // open windows, ascending
	down []int // per-node crash-hold refcount: overlapping crash windows
	// must all expire before an auto-revive brings the node back (a user
	// Rejoin clears every hold instead)
	fired   int
	crashed int
	revived int

	// Composites of the open windows, folded in window order so that
	// every run multiplies its floats in the same order.
	burstKeep float64   // Π (1 - loss) over open bursts
	perLink   []*window // open partitions, severed links and flaky regions

	// linkFault as a function value, built once per Attach so that
	// installing and removing it allocates nothing.
	link sim.LinkFault
}

// Attach starts a replay of the schedule on the engine: round-0 actions
// apply immediately (the static initial-crash special case), the rest
// fire from the engine's round hook. Attach overwrites any previously
// installed round hook or link fault on the engine. Every Attach replays
// the identical schedule from the start, so equal (plan, n, seed,
// horizon) stay bit-deterministic across runs.
//
// The hook must see rounds in increasing order. Both engines call it
// for every round without gaps: sim.Engine at the top of each Tick,
// before that round's deliveries, and async.Engine for every fault tick
// its clock crosses. The actions of a round the hook never sees, such as
// one before an Attach made mid-run, never fire.
//
// The round hook stays installed for the whole run, so the engine
// reports Faulty() throughout. The link-fault predicate is installed
// only while a link-level fault (burst, partition, severed link, flaky
// region) is open. Between windows the engine's transmission attempt
// pays no predicate call. The engine calls both from its sequential
// path, so a Replay needs no locking; the Bound it reads is immutable.
func (b *Bound) Attach(eng Host) *Replay {
	r := &Replay{b: b, eng: eng, down: make([]int, b.n)}
	r.link = r.linkFault
	r.recompose()
	eng.SetRoundHook(r.onRound)
	r.onRound(0)
	return r
}

// Fired returns the number of actions applied so far.
func (r *Replay) Fired() int { return r.fired }

// Crashed counts the crash transitions applied so far.
func (r *Replay) Crashed() int { return r.crashed }

// Revived counts the revive transitions applied so far.
func (r *Replay) Revived() int { return r.revived }

// onRound applies the actions scheduled for the given round.
func (r *Replay) onRound(round int) {
	acts, fired := r.b.acts, r.fired
	for ; r.next < len(acts) && acts[r.next].round <= round; r.next++ {
		a := &acts[r.next]
		if a.round < round {
			continue // a round the hook never saw
		}
		r.fired++
		switch a.kind {
		case actCrash:
			for _, i := range a.nodes {
				r.down[i]++
				if r.eng.Alive(i) {
					r.crashed++
				}
				r.eng.Crash(i)
			}
		case actRevive:
			for _, i := range a.nodes {
				if a.auto {
					// End of one crash hold: the node comes back only
					// when no other crash window still covers it.
					if r.down[i] > 0 {
						r.down[i]--
					}
					if r.down[i] > 0 {
						continue
					}
				} else {
					r.down[i] = 0 // an explicit rejoin clears every hold
				}
				if !r.eng.Alive(i) {
					r.revived++
				}
				r.eng.Revive(i)
			}
		case actReviveAll:
			for i := range r.down {
				r.down[i] = 0
				if !r.eng.Alive(i) {
					r.revived++
					r.eng.Revive(i)
				}
			}
		case actReviveSome:
			left := a.count
			if left == 0 {
				dead := 0
				for i := range r.down {
					if !r.eng.Alive(i) {
						dead++
					}
				}
				left = int(math.Ceil(a.frac * float64(dead)))
			}
			for _, i := range a.order {
				if left == 0 {
					break
				}
				if !r.eng.Alive(i) {
					r.down[i] = 0
					r.revived++
					r.eng.Revive(i)
					left--
				}
			}
		case actOpen:
			i, _ := slices.BinarySearch(r.open, a.win)
			r.open = slices.Insert(r.open, i, a.win)
		case actClose:
			if i, ok := slices.BinarySearch(r.open, a.win); ok {
				r.open = slices.Delete(r.open, i, i+1)
			}
		}
	}
	if r.fired > fired {
		r.recompose()
	}
}

// recompose folds the open windows, in window order, into burstKeep and
// perLink, and installs linkFault on the engine while any window is
// open, nil otherwise (linkFault would return 0 on every link).
func (r *Replay) recompose() {
	r.burstKeep = 1
	r.perLink = r.perLink[:0]
	for _, i := range r.open {
		if w := &r.b.windows[i]; w.kind == LossBurst {
			r.burstKeep *= 1 - w.loss
		} else {
			r.perLink = append(r.perLink, w)
		}
	}
	if len(r.open) > 0 {
		r.eng.SetLinkFault(r.link)
	} else {
		r.eng.SetLinkFault(nil)
	}
}

// linkFault is the engine's per-transmission predicate: 1 severs the
// link (an open partition separates the endpoints, or the link is
// blacked out), otherwise open bursts and flaky regions compound as
// independent extra loss.
func (r *Replay) linkFault(from, to int) float64 {
	keep := r.burstKeep
	for _, w := range r.perLink {
		switch w.kind {
		case Partition:
			if w.part[from] != w.part[to] {
				return 1
			}
		case LinkDown:
			if orient(from, to) == w.link {
				return 1
			}
		case Flaky:
			if w.in[from] || w.in[to] {
				keep *= 1 - w.loss
			}
		}
	}
	return 1 - keep
}
