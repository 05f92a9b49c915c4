package convergecast

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"drrgossip/internal/bitset"
	"drrgossip/internal/faults"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// The references below are Phase II's upward and downward passes as they
// were when every round swept all n nodes (and every call slot), kept
// verbatim except for the call plumbing (refCall, refResolve) and the
// leaves-first order they computed with a since-deleted forest method
// (refLeavesFirst), and with their merge type renamed (refMergeFunc).

// refMergeFunc is the former mergeFunc, which folded whole payloads.
type refMergeFunc func(acc, in sim.Payload) sim.Payload

// refCall is the slot form the reference passes stage their calls in:
// slot i holds node i's call, Active false for none.
type refCall struct {
	Active bool
	To     int
	Pay    sim.Payload
}

// refResolve resolves a slot-form call round on the engine's resolver:
// the active slots in ascending node order are exactly the calls the
// former all-slot resolver walked, in the order it walked them.
func refResolve(eng *sim.Engine, calls []refCall, handle func(callee, caller int, req sim.Payload) (sim.Payload, bool), onReply func(caller int, resp sim.Payload)) {
	var list []sim.Call
	for i, c := range calls {
		if c.Active {
			list = append(list, sim.Call{From: i, To: c.To, Pay: c.Pay})
		}
	}
	eng.ResolveCalls(list, handle, onReply)
}

// refUp is the former up.
//
// up runs the generic upward aggregation, merging into the per-node
// accumulators acc in place, and returns them; a root's entry then holds
// its tree's aggregate. Liveness is re-evaluated every round so that
// mid-run crashes (dynamic membership) degrade the result instead of
// stalling the phase: a dead child is no longer waited for, a node with
// a dead parent stops retrying, and under an active fault regime an
// incomplete phase returns the partial accumulators rather than
// ErrIncomplete.
func refUp(eng *sim.Engine, f *forest.Forest, acc []sim.Payload, merge refMergeFunc) ([]sim.Payload, sim.Counters, error) {
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
	calls := make([]refCall, n)
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
			calls[i] = refCall{}
			if !expects(i) || !ready(i) {
				continue
			}
			pay := acc[i]
			pay.Kind = kindUp
			pay.X = int64(i)
			calls[i] = refCall{Active: true, To: f.Parent(i), Pay: pay}
		}
		refResolve(eng, calls,
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

// refValueInit is the former valueInit.
//
// valueInit builds per-node payload accumulators with A = value.
func refValueInit(f *forest.Forest, values []float64, withCount, withSquare bool) []sim.Payload {
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

// refDown is the former down.
//
// down pushes the per-root payloads, indexed by root slot, to every tree
// member and returns the mask of members reached. A node only ever
// receives from its parent, so a reached node i holds its root slot's
// payload, perRoot[f.Slot(i)]. A node calls one child per round,
// retrying unacknowledged ones; delivered children forward to their own
// subtrees from the next round. Liveness is re-evaluated every round:
// dead children are skipped and unreachable subtrees stop counting
// toward completion, so mid-run crashes cannot stall the phase; under an
// active fault regime an incomplete broadcast returns the partial mask.
func refDown(eng *sim.Engine, f *forest.Forest, perRoot []sim.Payload) (*bitset.Set, sim.Counters, error) {
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
	order := refLeavesFirst(f)
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
	calls := make([]refCall, n)
	roundCap := f.MaxTreeSize() + f.MaxHeight() + extraRounds
	for round := 0; round < roundCap; round++ {
		remaining = countRemaining()
		if remaining == 0 {
			break
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			calls[i] = refCall{}
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
			calls[i] = refCall{Active: true, To: kids[nextChild[i]], Pay: p}
		}
		refResolve(eng, calls,
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

// refLeavesFirst is the former forest.LeavesFirst: members ordered by
// decreasing depth (leaves before their parents), ascending id within a
// depth.
func refLeavesFirst(f *forest.Forest) []int {
	maxD := 0
	for i := 0; i < f.N(); i++ {
		if f.Member(i) && f.Depth(i) > maxD {
			maxD = f.Depth(i)
		}
	}
	var out []int
	for d := maxD; d >= 0; d-- {
		for i := 0; i < f.N(); i++ {
			if f.Member(i) && f.Depth(i) == d {
				out = append(out, i)
			}
		}
	}
	return out
}

// randomForest builds an n-node forest from seed: nodes join in a random
// order, each a non-member with probability nonMember, else a root with
// probability root (always the first member), else the child of a random
// earlier member, so trees of every shape and height appear.
func randomForest(t testing.TB, n int, seed uint64, root, nonMember float64) *forest.Forest {
	t.Helper()
	rng := xrand.Derive(seed, 0xF0, uint64(n))
	parent := make([]int, n)
	var members []int
	for _, i := range rng.Perm(n) {
		switch {
		case rng.Float64() < nonMember:
			parent[i] = forest.NotMember
		case len(members) == 0 || rng.Float64() < root:
			parent[i] = forest.Root
			members = append(members, i)
		default:
			parent[i] = members[rng.Intn(len(members))]
			members = append(members, i)
		}
	}
	f, err := forest.FromParents(parent)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// roundLog records, at every Tick of an engine, its counters and a hash
// of the state a pass exposes between call rounds.
type roundLog struct {
	stats []sim.Counters
	state []uint64
}

// watch installs the log as eng's round observer, hashing state() at
// every Tick: the counters and state as the previous call round left
// them, before the next one.
func (l *roundLog) watch(eng *sim.Engine, state func() uint64) {
	l.stats, l.state = l.stats[:0], l.state[:0]
	eng.SetRoundObserver(func(int) {
		l.stats = append(l.stats, eng.Stats())
		l.state = append(l.state, state())
	})
}

// same fails unless both logs saw the same rounds.
func (l *roundLog) same(t testing.TB, what string, ref *roundLog) {
	t.Helper()
	if len(l.stats) != len(ref.stats) {
		t.Fatalf("%s: %d rounds, reference %d", what, len(l.stats), len(ref.stats))
	}
	for r := range l.stats {
		if l.stats[r] != ref.stats[r] {
			t.Fatalf("%s: round %d counters %+v, reference %+v", what, r+1, l.stats[r], ref.stats[r])
		}
		if l.state[r] != ref.state[r] {
			t.Fatalf("%s: round %d state differs from the reference", what, r+1)
		}
	}
}

// hashSums hashes the n aggregate vectors sum(i) returns bit for bit.
func hashSums(n int, sum func(i int) (a, b, c float64)) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		a, b, c := sum(i)
		for _, x := range []float64{a, b, c} {
			bits := math.Float64bits(x)
			for k := range buf {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// hashLanes and hashPayloads hash live and reference accumulators
// alike: the reference payloads carry the vector in A, B and C, and a
// live pass of L lanes holds A in lane 0, B in lane 1 (0 when L is 1)
// and C in the member counts (0 for a max pass).
func hashLanes(s *Scratch, n, L int, sum bool) uint64 {
	return hashSums(n, func(i int) (a, b, c float64) {
		a = s.acc[i]
		if L > 1 {
			b = s.acc[n+i]
		}
		if sum {
			c = s.cnt[i]
		}
		return a, b, c
	})
}

func hashPayloads(acc []sim.Payload) uint64 {
	return hashSums(len(acc), func(i int) (a, b, c float64) { return acc[i].A, acc[i].B, acc[i].C })
}

// diffPhaseTwo runs the live Phase II passes and the references on twin
// engines over f, each with the fault schedule b replayed (nil for
// none): Max and Moments upward, then a value and a root-address
// broadcast downward, in sequence so the schedule spans all four. After
// every call round the engine counters and every accumulator must match;
// after every pass the result, its error, every reached bit and the
// pass's counters must match; at the end the engines must agree on
// membership and on the loss sequence.
func diffPhaseTwo(t testing.TB, f *forest.Forest, opts sim.Options, b *faults.Bound, values []float64) {
	t.Helper()
	n := f.N()
	eng, ref := sim.NewEngine(n, opts), sim.NewEngine(n, opts)
	if b != nil {
		b.Attach(eng)
		b.Attach(ref)
	}
	var s Scratch
	var log, refLog roundLog
	refMax := func(acc, in sim.Payload) sim.Payload {
		acc.A = math.Max(acc.A, in.A)
		return acc
	}
	refAdd := func(acc, in sim.Payload) sim.Payload {
		acc.A += in.A
		acc.B += in.B
		acc.C += in.C
		return acc
	}
	// The live Moments pass is a sum pass over two lanes, v and v².
	squares := make([]float64, 0, 2*n)
	squares = append(squares, values...)
	for _, v := range values {
		squares = append(squares, v*v)
	}
	for k, pass := range []struct {
		sum               bool
		in                []float64
		refMerge          refMergeFunc
		withCount, withSq bool
	}{
		{false, values, refMax, false, false},
		{true, squares, refAdd, true, true},
	} {
		what := fmt.Sprintf("up pass %d", k)
		L, err := s.load(eng, f, pass.in, pass.sum)
		if err != nil {
			t.Fatal(err)
		}
		refAcc := refValueInit(f, values, pass.withCount, pass.withSq)
		live := func() uint64 { return hashLanes(&s, n, L, pass.sum) }
		log.watch(eng, live)
		refLog.watch(ref, func() uint64 { return hashPayloads(refAcc) })
		before := eng.Stats()
		err = s.up(eng, f, L, pass.sum)
		stats := eng.Stats().Sub(before)
		want, refStats, refErr := refUp(ref, f, refAcc, pass.refMerge)
		log.same(t, what, &refLog)
		if err != refErr || stats != refStats {
			t.Fatalf("%s: error %v stats %+v, reference %v %+v", what, err, stats, refErr, refStats)
		}
		if err == nil && live() != hashPayloads(want) || live() != hashPayloads(refAcc) {
			t.Fatalf("%s: accumulators differ from the reference", what)
		}
	}
	perRoot := make([]sim.Payload, f.NumTrees())
	for k, r := range f.Roots() {
		perRoot[k] = sim.Payload{A: values[r], X: int64(r)}
	}
	for k := 0; k < 2; k++ {
		what := fmt.Sprintf("down pass %d", k)
		log.watch(eng, func() uint64 { return 0 })
		refLog.watch(ref, func() uint64 { return 0 })
		before := eng.Stats()
		got, err := s.down(eng, f)
		stats := eng.Stats().Sub(before)
		want, refStats, refErr := refDown(ref, f, perRoot)
		log.same(t, what, &refLog)
		if err != refErr || stats != refStats {
			t.Fatalf("%s: error %v stats %+v, reference %v %+v", what, err, stats, refErr, refStats)
		}
		if (got == nil) != (want == nil) || got != nil && !got.Equal(want) {
			t.Fatalf("%s: reached set differs from the reference", what)
		}
	}
	if a, b := eng.Stats(), ref.Stats(); a != b {
		t.Fatalf("engine counters %+v, reference %+v", a, b)
	}
	if a, b := eng.NumAlive(), ref.NumAlive(); a != b {
		t.Fatalf("alive %d, reference %d", a, b)
	}
	for i := 0; i < n; i++ {
		eng.Send(i, (i+1)%n, sim.Payload{})
		ref.Send(i, (i+1)%n, sim.Payload{})
	}
	if a, b := eng.Stats(), ref.Stats(); a != b {
		t.Fatalf("counters after a trailing send %+v, reference %+v", a, b)
	}
}

// phaseTwoFaults crashes members a few rounds into the first pass,
// revives half the dead (initially crashed ones among them) a few rounds
// later, and churns nodes (each back after three rounds) throughout.
const phaseTwoFaults = "crash:0.1@2;rejoin:0.5@4;churn:0.2:3"

// TestPhaseTwoMatchesReference compares the event-driven up and down
// passes with refUp and refDown, the sweeping passes they replaced, on
// random forests of several shapes, each lossless, lossy, with initial
// crashes, and with mid-run crashes and rejoins.
func TestPhaseTwoMatchesReference(t *testing.T) {
	plan, err := faults.Parse(phaseTwoFaults)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name            string
		root, nonMember float64
	}{{"bushy", 0.05, 0}, {"deep", 0.002, 0.02}, {"singletons", 0.9, 0.1}}
	conds := []struct {
		name  string
		opts  sim.Options
		fault bool
	}{
		{name: "lossless", opts: sim.Options{Seed: 1}},
		{name: "lossy", opts: sim.Options{Seed: 2, Loss: 0.1}},
		{name: "crashed", opts: sim.Options{Seed: 3, CrashFrac: 0.1}},
		{name: "churn", opts: sim.Options{Seed: 4, Loss: 0.05}, fault: true},
		{name: "lossy-churn-crashed", opts: sim.Options{Seed: 5, Loss: 0.1, CrashFrac: 0.05}, fault: true},
	}
	for _, sh := range shapes {
		for _, c := range conds {
			t.Run(sh.name+"/"+c.name, func(t *testing.T) {
				const n = 600
				f := randomForest(t, n, c.opts.Seed, sh.root, sh.nonMember)
				var b *faults.Bound
				if c.fault {
					if b, err = plan.Bind(n, c.opts.Seed, 40); err != nil {
						t.Fatal(err)
					}
				}
				values := make([]float64, n)
				rng := xrand.Derive(c.opts.Seed, 0xF1, n)
				for i := range values {
					values[i] = rng.Float64()*1000 - 500
				}
				diffPhaseTwo(t, f, c.opts, b, values)
			})
		}
	}
}

// FuzzPhaseTwoMatchesReference runs the same comparison on fuzzed forest
// shapes, sizes, loss rates, initial crashes and fault plans.
func FuzzPhaseTwoMatchesReference(f *testing.F) {
	specs := []string{"", phaseTwoFaults, "crash:0.3@1", "rack:0.2@2..5", "churn:0.4:1", "loss:0.3@1..3;crash:4@2;rejoin:1@5"}
	for i, spec := range specs {
		f.Add(uint16(30+17*i), uint64(i), uint8(i*40), uint8(i*7), uint8(i%3*13), uint8(i%5), spec, uint8(8+i))
	}
	f.Fuzz(func(t *testing.T, size uint16, seed uint64, root, nonMember, loss, crash uint8, spec string, horizon uint8) {
		p, err := faults.Parse(spec)
		if err != nil {
			return
		}
		n := 2 + int(size)%300
		b, err := p.Bind(n, seed, 1+int(horizon)%48)
		if err != nil {
			return
		}
		fo := randomForest(t, n, seed, float64(root)/255, float64(nonMember%128)/255)
		values := make([]float64, n)
		rng := xrand.Derive(seed, 0xF2, uint64(n))
		for i := range values {
			values[i] = rng.Float64()
		}
		opts := sim.Options{Seed: seed, Loss: float64(loss%32) / 256, CrashFrac: float64(crash%5) / 20}
		diffPhaseTwo(t, fo, opts, b, values)
	})
}
