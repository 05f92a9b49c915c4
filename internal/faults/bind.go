// Binding: resolving a symbolic Plan against (n, seed, horizon) into a
// concrete per-round action schedule, and driving a sim.Engine with it.

package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

type actionKind uint8

const (
	actCrash actionKind = iota
	actRevive
	actReviveAll
	actReviveSome
	actBurstStart
	actBurstEnd
	actPartStart
	actPartEnd
	actSever
	actRestore
	actFlakyStart
	actFlakyEnd
)

// action is one concrete state change at a known round.
type action struct {
	kind  actionKind
	id    int     // window handle (bursts, partitions, flaky regions)
	nodes []int   // crash/revive sets
	auto  bool    // actRevive: scheduled end of a crash hold (vs. a user Rejoin)
	count int     // actReviveSome: how many dead nodes to revive
	frac  float64 // actReviveSome: fraction of the dead to revive
	order []int   // actReviveSome: node preference order (a permutation)
	loss  float64 // burst/flaky extra loss
	part  []int   // per-node group id (partitions)
	link  [2]int  // severed link
}

// Host is the engine surface a Bound drives: membership control plus
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
// deterministic per-round schedule of engine state changes. Attach binds
// it to an engine; re-attaching to a fresh engine resets the runtime
// state and replays the identical schedule, so one binding can drive a
// sequence of runs (the session facade's amortization). A Bound drives
// one engine at a time and is not safe for concurrent engines.
type Bound struct {
	n       int
	actions map[int][]action // the immutable schedule Bind resolved

	eng       Host
	remaining map[int][]action  // this attachment's not-yet-fired rounds
	bursts    map[int]float64   // active loss bursts
	parts     map[int][]int     // active partitions: handle -> group ids
	severed   map[[2]int]int    // severed link -> refcount
	flaky     map[int]flakyArea // active flaky regions
	down      []int             // per-node crash-hold refcount: overlapping
	// crash windows must all expire before an auto-revive brings the
	// node back (a user Rejoin clears every hold instead)
	fired   int
	crashed int
	revived int

	// Order-stable composites derived from the active sets above,
	// recomputed whenever actions change them: map iteration order must
	// not leak into per-link float arithmetic, or bit-determinism breaks.
	burstKeep float64     // Π (1 - loss) over active bursts, sorted by id
	partList  [][]int     // active partitions sorted by id
	flakyList []flakyArea // active flaky regions sorted by id
	ids       []int       // recompose's sorted-handle scratch

	// linkFault as a function value, built once at the first Attach so
	// that installing and removing it allocates nothing.
	link sim.LinkFault
}

type flakyArea struct {
	in   []bool
	loss float64
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
	b := &Bound{n: n, actions: make(map[int][]action)}
	b.resetRuntime()
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
		case LossBurst:
			b.add(at, action{kind: actBurstStart, id: idx, loss: ev.Loss})
			if end != math.MaxInt {
				b.add(end, action{kind: actBurstEnd, id: idx})
			}
		case Partition:
			part := partitionGroups(n, ev.Groups, seed, idx)
			b.add(at, action{kind: actPartStart, id: idx, part: part})
			if end != math.MaxInt {
				b.add(end, action{kind: actPartEnd, id: idx})
			}
		case LinkDown:
			link := orient(ev.A, ev.B)
			b.add(at, action{kind: actSever, link: link})
			if end != math.MaxInt {
				b.add(end, action{kind: actRestore, link: link})
			}
		case Flaky:
			nodes := ev.selectNodes(n, seed, idx)
			b.add(at, action{kind: actFlakyStart, id: idx, nodes: nodes, loss: ev.Loss})
			if end != math.MaxInt {
				b.add(end, action{kind: actFlakyEnd, id: idx})
			}
		case ChurnKind:
			b.expandChurn(ev, n, seed, idx, horizon)
		}
	}
	return b, nil
}

func (b *Bound) add(round int, a action) {
	if round < 0 {
		round = 0
	}
	b.actions[round] = append(b.actions[round], a)
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

// Attach installs the schedule on the engine: round-0 actions apply
// immediately (the static initial-crash special case), the rest fire
// from the engine's round hook. Attach overwrites any previously
// installed round hook or link fault on the engine, and resets the
// Bound's own runtime state (active windows, crash holds, counters), so
// the same binding replays its exact schedule on every engine it is
// attached to — equal (plan, n, seed, horizon) stay bit-deterministic
// across attachments.
//
// The round hook stays installed for the whole run, so the engine
// reports Faulty() throughout. The link-fault predicate is installed
// only while a link-level fault (burst, partition, severed link, flaky
// region) is active. Between windows the engine's transmission attempt
// pays no predicate call.
//
// The engine invokes the round hook at the top of Tick, before that
// round's deliveries, and the link-fault predicate only from its
// sequential send path, so a Bound needs no locking.
func (b *Bound) Attach(eng Host) {
	if b.link == nil {
		b.link = b.linkFault
	}
	b.eng = eng
	b.remaining = make(map[int][]action, len(b.actions))
	for r, acts := range b.actions {
		b.remaining[r] = acts
	}
	b.resetRuntime()
	eng.SetRoundHook(b.onRound)
	b.onRound(0)
}

// Clone returns an unattached Bound sharing this binding's immutable
// schedule but none of its runtime state. A Bound drives one engine at a
// time; cloning lets concurrent runs (e.g. a parallel query batch) each
// attach their own replica of the same resolved plan — the schedule was
// fixed by Bind, so every clone replays the identical actions.
func (b *Bound) Clone() *Bound {
	c := &Bound{n: b.n, actions: b.actions}
	c.resetRuntime()
	return c
}

// resetRuntime gives b fresh attachment state: no active bursts,
// partitions, severed links, flaky regions or crash holds, and nothing
// fired yet.
func (b *Bound) resetRuntime() {
	b.bursts = make(map[int]float64)
	b.parts = make(map[int][]int)
	b.severed = make(map[[2]int]int)
	b.flaky = make(map[int]flakyArea)
	b.down = make([]int, b.n)
	b.fired, b.crashed, b.revived = 0, 0, 0
	b.recompose()
}

// Fired returns the number of actions applied so far.
func (b *Bound) Fired() int { return b.fired }

// Crashed counts the crash transitions applied so far.
func (b *Bound) Crashed() int { return b.crashed }

// Revived counts the revive transitions applied so far.
func (b *Bound) Revived() int { return b.revived }

// Rounds returns the sorted rounds at which the schedule acts (useful
// for reports and tests).
func (b *Bound) Rounds() []int {
	out := make([]int, 0, len(b.actions))
	for r := range b.actions {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// onRound applies the actions scheduled for the given round.
func (b *Bound) onRound(round int) {
	acts, ok := b.remaining[round]
	if !ok {
		return
	}
	for _, a := range acts {
		b.fired++
		switch a.kind {
		case actCrash:
			for _, i := range a.nodes {
				b.down[i]++
				if b.eng.Alive(i) {
					b.crashed++
				}
				b.eng.Crash(i)
			}
		case actRevive:
			for _, i := range a.nodes {
				if a.auto {
					// End of one crash hold: the node comes back only
					// when no other crash window still covers it.
					if b.down[i] > 0 {
						b.down[i]--
					}
					if b.down[i] > 0 {
						continue
					}
				} else {
					b.down[i] = 0 // an explicit rejoin clears every hold
				}
				if !b.eng.Alive(i) {
					b.revived++
				}
				b.eng.Revive(i)
			}
		case actReviveAll:
			for i := 0; i < b.n; i++ {
				b.down[i] = 0
				if !b.eng.Alive(i) {
					b.revived++
					b.eng.Revive(i)
				}
			}
		case actReviveSome:
			left := a.count
			if left == 0 {
				dead := 0
				for i := 0; i < b.n; i++ {
					if !b.eng.Alive(i) {
						dead++
					}
				}
				left = int(math.Ceil(a.frac * float64(dead)))
			}
			for _, i := range a.order {
				if left == 0 {
					break
				}
				if !b.eng.Alive(i) {
					b.down[i] = 0
					b.revived++
					b.eng.Revive(i)
					left--
				}
			}
		case actBurstStart:
			b.bursts[a.id] = a.loss
		case actBurstEnd:
			delete(b.bursts, a.id)
		case actPartStart:
			b.parts[a.id] = a.part
		case actPartEnd:
			delete(b.parts, a.id)
		case actSever:
			b.severed[a.link]++
		case actRestore:
			if b.severed[a.link]--; b.severed[a.link] <= 0 {
				delete(b.severed, a.link)
			}
		case actFlakyStart:
			in := make([]bool, b.n)
			for _, i := range a.nodes {
				in[i] = true
			}
			b.flaky[a.id] = flakyArea{in: in, loss: a.loss}
		case actFlakyEnd:
			delete(b.flaky, a.id)
		}
	}
	delete(b.remaining, round)
	b.recompose()
}

// recompose rebuilds the order-stable composites from the active sets,
// iterating in sorted handle order so repeated runs multiply floats in
// the same order, and installs linkFault on the attached engine while a
// link-level fault is active, nil otherwise (linkFault would return 0
// on every link).
func (b *Bound) recompose() {
	b.burstKeep = 1
	b.ids = appendSortedKeys(b.ids[:0], b.bursts)
	for _, id := range b.ids {
		b.burstKeep *= 1 - b.bursts[id]
	}
	b.partList = b.partList[:0]
	b.ids = appendSortedKeys(b.ids[:0], b.parts)
	for _, id := range b.ids {
		b.partList = append(b.partList, b.parts[id])
	}
	b.flakyList = b.flakyList[:0]
	b.ids = appendSortedKeys(b.ids[:0], b.flaky)
	for _, id := range b.ids {
		b.flakyList = append(b.flakyList, b.flaky[id])
	}
	if b.eng == nil {
		return
	}
	if len(b.bursts) > 0 || len(b.partList) > 0 || len(b.severed) > 0 || len(b.flakyList) > 0 {
		b.eng.SetLinkFault(b.link)
	} else {
		b.eng.SetLinkFault(nil)
	}
}

// appendSortedKeys appends m's keys to dst in increasing order.
func appendSortedKeys[V any](dst []int, m map[int]V) []int {
	for id := range m {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}

// linkFault is the engine's per-transmission predicate: 1 severs the
// link (an active partition separates the endpoints, or the link is
// blacked out), otherwise active bursts and flaky regions compound as
// independent extra loss.
func (b *Bound) linkFault(from, to int) float64 {
	for _, part := range b.partList {
		if part[from] != part[to] {
			return 1
		}
	}
	if len(b.severed) > 0 && b.severed[orient(from, to)] > 0 {
		return 1
	}
	keep := b.burstKeep
	for i := range b.flakyList {
		if fa := &b.flakyList[i]; fa.in[from] || fa.in[to] {
			keep *= 1 - fa.loss
		}
	}
	return 1 - keep
}
