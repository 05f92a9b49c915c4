package faults

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

// refBound is the fault binding as it stood before the schedule became
// one round-sorted action slice replayed per run: the same Bind and the
// same per-round actions, kept verbatim (Clone aside, which only copied
// the schedule) under ref-prefixed names as the specification the
// current Bound is checked against round by round.

type refActionKind uint8

const (
	refActCrash refActionKind = iota
	refActRevive
	refActReviveAll
	refActReviveSome
	refActBurstStart
	refActBurstEnd
	refActPartStart
	refActPartEnd
	refActSever
	refActRestore
	refActFlakyStart
	refActFlakyEnd
)

// refAction is one concrete state change at a known round.
type refAction struct {
	kind  refActionKind
	id    int     // window handle (bursts, partitions, flaky regions)
	nodes []int   // crash/revive sets
	auto  bool    // refActRevive: scheduled end of a crash hold (vs. a user Rejoin)
	count int     // refActReviveSome: how many dead nodes to revive
	frac  float64 // refActReviveSome: fraction of the dead to revive
	order []int   // refActReviveSome: node preference order (a permutation)
	loss  float64 // burst/flaky extra loss
	part  []int   // per-node group id (partitions)
	link  [2]int  // severed link
}

// refBound is a plan resolved against a concrete (n, seed, horizon): a
// deterministic per-round schedule of engine state changes. Attach binds
// it to an engine; re-attaching to a fresh engine resets the runtime
// state and replays the identical schedule, so one binding can drive a
// sequence of runs (the session facade's amortization). A refBound drives
// one engine at a time and is not safe for concurrent engines.
type refBound struct {
	n       int
	actions map[int][]refAction // the immutable schedule Bind resolved

	eng       Host
	remaining map[int][]refAction  // this attachment's not-yet-fired rounds
	bursts    map[int]float64      // active loss bursts
	parts     map[int][]int        // active partitions: handle -> group ids
	severed   map[[2]int]int       // severed link -> refcount
	flaky     map[int]refFlakyArea // active flaky regions
	down      []int                // per-node crash-hold refcount: overlapping
	// crash windows must all expire before an auto-revive brings the
	// node back (a user Rejoin clears every hold instead)
	fired   int
	crashed int
	revived int

	// Order-stable composites derived from the active sets above,
	// recomputed whenever actions change them: map iteration order must
	// not leak into per-link float arithmetic, or bit-determinism breaks.
	burstKeep float64        // Π (1 - loss) over active bursts, sorted by id
	partList  [][]int        // active partitions sorted by id
	flakyList []refFlakyArea // active flaky regions sorted by id
	ids       []int          // recompose's sorted-handle scratch

	// linkFault as a function value, built once at the first Attach so
	// that installing and removing it allocates nothing.
	link sim.LinkFault
}

type refFlakyArea struct {
	in   []bool
	loss float64
}

// Bind resolves the plan. horizon is the anticipated total number of
// rounds; it is required (> 0) when the plan places events by horizon
// fraction or contains churn processes, and ignored otherwise. seed
// drives every node-set and churn decision, so equal (plan, n, seed,
// horizon) bind to identical schedules.
func refBind(p *Plan, n int, seed uint64, horizon int) (*refBound, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	if p.NeedsHorizon() && horizon <= 0 {
		return nil, fmt.Errorf("%w: plan has fractional timings or churn but no horizon", ErrBadPlan)
	}
	b := &refBound{n: n, actions: make(map[int][]refAction)}
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
			b.add(at, refAction{kind: refActCrash, nodes: nodes})
			if end != math.MaxInt {
				b.add(end, refAction{kind: refActRevive, nodes: nodes, auto: true})
			}
		case Rejoin:
			switch {
			case len(ev.Nodes) > 0:
				b.add(at, refAction{kind: refActRevive, nodes: ev.selectNodes(n, seed, idx)})
			case ev.Frac == 0 && ev.Count == 0:
				b.add(at, refAction{kind: refActReviveAll})
			default:
				// Revive some of the currently dead nodes: the set is
				// resolved at fire time against whoever is actually down
				// (a fraction means that share of the dead population),
				// in a seed-derived deterministic preference order.
				b.add(at, refAction{
					kind:  refActReviveSome,
					count: ev.Count,
					frac:  ev.Frac,
					order: xrand.Derive(seed, 0xFA, uint64(idx)).Perm(n),
				})
			}
		case LossBurst:
			b.add(at, refAction{kind: refActBurstStart, id: idx, loss: ev.Loss})
			if end != math.MaxInt {
				b.add(end, refAction{kind: refActBurstEnd, id: idx})
			}
		case Partition:
			part := refPartitionGroups(n, ev.Groups, seed, idx)
			b.add(at, refAction{kind: refActPartStart, id: idx, part: part})
			if end != math.MaxInt {
				b.add(end, refAction{kind: refActPartEnd, id: idx})
			}
		case LinkDown:
			link := refOrient(ev.A, ev.B)
			b.add(at, refAction{kind: refActSever, link: link})
			if end != math.MaxInt {
				b.add(end, refAction{kind: refActRestore, link: link})
			}
		case Flaky:
			nodes := ev.selectNodes(n, seed, idx)
			b.add(at, refAction{kind: refActFlakyStart, id: idx, nodes: nodes, loss: ev.Loss})
			if end != math.MaxInt {
				b.add(end, refAction{kind: refActFlakyEnd, id: idx})
			}
		case ChurnKind:
			b.expandChurn(ev, n, seed, idx, horizon)
		}
	}
	return b, nil
}

func (b *refBound) add(round int, a refAction) {
	if round < 0 {
		round = 0
	}
	b.actions[round] = append(b.actions[round], a)
}

// expandChurn unrolls a Poisson churn process over [1, horizon]: crash
// events arrive with exponential gaps at rate (Rate·n)/horizon per
// round, each hitting a uniformly random node; with Down > 0 the node
// rejoins Down rounds later.
func (b *refBound) expandChurn(ev Event, n int, seed uint64, idx, horizon int) {
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
		b.add(round, refAction{kind: refActCrash, nodes: []int{node}})
		if ev.Down > 0 {
			b.add(round+ev.Down, refAction{kind: refActRevive, nodes: []int{node}, auto: true})
		}
	}
}

// refPartitionGroups assigns every node a group id in [0, groups) from the
// bind seed: a deterministic random partition with no empty group (the
// first `groups` nodes of a random permutation anchor one group each).
func refPartitionGroups(n, groups int, seed uint64, idx int) []int {
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

func refOrient(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Attach installs the schedule on the engine: round-0 actions apply
// immediately (the static initial-crash special case), the rest fire
// from the engine's round hook. Attach overwrites any previously
// installed round hook or link fault on the engine, and resets the
// refBound's own runtime state (active windows, crash holds, counters), so
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
// sequential send path, so a refBound needs no locking.
func (b *refBound) Attach(eng Host) {
	if b.link == nil {
		b.link = b.linkFault
	}
	b.eng = eng
	b.remaining = make(map[int][]refAction, len(b.actions))
	for r, acts := range b.actions {
		b.remaining[r] = acts
	}
	b.resetRuntime()
	eng.SetRoundHook(b.onRound)
	b.onRound(0)
}

// resetRuntime gives b fresh attachment state: no active bursts,
// partitions, severed links, flaky regions or crash holds, and nothing
// fired yet.
func (b *refBound) resetRuntime() {
	b.bursts = make(map[int]float64)
	b.parts = make(map[int][]int)
	b.severed = make(map[[2]int]int)
	b.flaky = make(map[int]refFlakyArea)
	b.down = make([]int, b.n)
	b.fired, b.crashed, b.revived = 0, 0, 0
	b.recompose()
}

// Fired returns the number of actions applied so far.
func (b *refBound) Fired() int { return b.fired }

// Crashed counts the crash transitions applied so far.
func (b *refBound) Crashed() int { return b.crashed }

// Revived counts the revive transitions applied so far.
func (b *refBound) Revived() int { return b.revived }

// Rounds returns the sorted rounds at which the schedule acts (useful
// for reports and tests).
func (b *refBound) Rounds() []int {
	out := make([]int, 0, len(b.actions))
	for r := range b.actions {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// onRound applies the actions scheduled for the given round.
func (b *refBound) onRound(round int) {
	acts, ok := b.remaining[round]
	if !ok {
		return
	}
	for _, a := range acts {
		b.fired++
		switch a.kind {
		case refActCrash:
			for _, i := range a.nodes {
				b.down[i]++
				if b.eng.Alive(i) {
					b.crashed++
				}
				b.eng.Crash(i)
			}
		case refActRevive:
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
		case refActReviveAll:
			for i := 0; i < b.n; i++ {
				b.down[i] = 0
				if !b.eng.Alive(i) {
					b.revived++
					b.eng.Revive(i)
				}
			}
		case refActReviveSome:
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
		case refActBurstStart:
			b.bursts[a.id] = a.loss
		case refActBurstEnd:
			delete(b.bursts, a.id)
		case refActPartStart:
			b.parts[a.id] = a.part
		case refActPartEnd:
			delete(b.parts, a.id)
		case refActSever:
			b.severed[a.link]++
		case refActRestore:
			if b.severed[a.link]--; b.severed[a.link] <= 0 {
				delete(b.severed, a.link)
			}
		case refActFlakyStart:
			in := make([]bool, b.n)
			for _, i := range a.nodes {
				in[i] = true
			}
			b.flaky[a.id] = refFlakyArea{in: in, loss: a.loss}
		case refActFlakyEnd:
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
func (b *refBound) recompose() {
	b.burstKeep = 1
	b.ids = refAppendSortedKeys(b.ids[:0], b.bursts)
	for _, id := range b.ids {
		b.burstKeep *= 1 - b.bursts[id]
	}
	b.partList = b.partList[:0]
	b.ids = refAppendSortedKeys(b.ids[:0], b.parts)
	for _, id := range b.ids {
		b.partList = append(b.partList, b.parts[id])
	}
	b.flakyList = b.flakyList[:0]
	b.ids = refAppendSortedKeys(b.ids[:0], b.flaky)
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

// refAppendSortedKeys appends m's keys to dst in increasing order.
func refAppendSortedKeys[V any](dst []int, m map[int]V) []int {
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
func (b *refBound) linkFault(from, to int) float64 {
	for _, part := range b.partList {
		if part[from] != part[to] {
			return 1
		}
	}
	if len(b.severed) > 0 && b.severed[refOrient(from, to)] > 0 {
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

// refCases cover every event kind and the corners of the window and
// crash-hold bookkeeping: overlapping windows on one link (written both
// ways round) and overlapping bursts, windows that close in the round
// they open, windows open at round 0, crash holds overlapping a rejoin,
// churn with downtime, and rejoins of all, a fraction and a count.
var refCases = []struct {
	name    string
	spec    string
	n       int
	horizon int
}{
	{"crash", "crash:0.25@4r..12r", 32, 0},
	{"crash-count", "crash:5@3r", 24, 0},
	{"rack", "rack:0.2@0.2..0.6", 32, 40},
	{"loss", "loss:0.25@0.2..0.6", 16, 40},
	{"part", "part:3@5r..15r", 24, 0},
	{"flaky", "flaky:0.2:0.5@3r..9r", 32, 0},
	{"link", "link:3-9@2r..8r", 16, 0},
	{"churn", "churn:0.3", 32, 60},
	{"overlapping-links", "link:3-5@2r..8r;link:5-3@4r..10r", 12, 0},
	{"overlapping-bursts", "loss:0.1@2r..6r;loss:0.3@4r..10r;loss:0.2@5r..7r", 8, 0},
	{"ends-where-it-starts", "loss:0.2@5r..5r;part:2@3r..3r;flaky:0.3:0.4@4r..4r;link:1-2@6r..6r;crash:0.25@7r..7r", 16, 0},
	{"open-at-zero", "loss:0.3@0r..4r;part:2@0r..6r;flaky:0.25:0.5@0r;link:0-1@0r..3r;crash:0.25@0r", 16, 0},
	{"holds-over-rejoin", "crash:0.5@2r..10r;crash:0.5@4r..14r;rejoin:0.25@6r;crash:#1,2,3@8r..12r;rejoin:#2@9r", 24, 0},
	{"churn-downtime", "churn:0.5:5", 32, 80},
	{"rejoin-all", "crash:0.5@2r;rejoin@6r", 20, 0},
	{"rejoin-fraction", "crash:0.5@2r;rejoin:0.3@6r", 20, 0},
	{"rejoin-count", "crash:0.5@2r;rejoin:4@6r", 20, 0},
	{"mixed", "crash:0.3@0.3;loss:0.5@0.5..0.9;rejoin:0.5@0.95;part:2@0.1..0.4;flaky:0.2:0.8@0.2..0.7", 32, 50},
}

// faultTestSpecs are the plan specs the package's other tests parse.
var faultTestSpecs = []string{
	"crash:0.2@0.5", "crash:5@100r", "rack:0.1@0.25..0.75", "rejoin@0.8",
	"rejoin:0.5@0.8", "churn:0.3", "churn:0.3:40", "loss:0.25@0.2..0.6",
	"part:2@0.25..0.75", "flaky:0.2:0.5@0.1..0.9", "link:3-9@10..200",
	"crash:0.2@0.5;rejoin@0.8", "part:2@0.25..0.5 ; loss:0.2@0.5..0.9",
	"crash:0.2@100r", "crash:0.25@10r;rejoin@20r", "crash:0.25@5r;rejoin@10r",
	"crash:0.25@5r;rejoin:0.2@10r", "crash:0.5@5r;rejoin:10@10r",
	"crash:#3,7,9@0r;flaky:#1:0.5@2r..9r;rejoin:#3@12r",
	"crash:0.4@0.3;part:4@0.5..0.8;loss:0.6@10r..90r",
	"crash:0.25@4r..12r;loss:0.3@2r..20r",
	"churn:0.4:15;part:2@0.2..0.6;flaky:0.3:0.4@0.1..0.9",
	"link:2-5@1r..100r",
	"loss:0.1@2r..6r;loss:0.3@4r..10r;flaky:0.2:0.5@8r..12r;part:2@14r..16r;link:3-5@18r..20r",
}

// maxRefRounds caps the rounds a differential run replays.
const maxRefRounds = 300

// diffBind binds p at (n, seed, horizon) both as the current Bound and
// as refBound, attaches each to its own engine after late ticks, and
// compares them at the attachment and after every later round: the
// alive set, the Fired/Crashed/Revived counters, whether a link
// predicate is installed and its value on every ordered pair of nodes.
// The bind errors and Rounds() must agree too.
func diffBind(t testing.TB, p *Plan, n int, seed uint64, horizon, late int) {
	t.Helper()
	got, gotErr := p.Bind(n, seed, horizon)
	want, wantErr := refBind(p, n, seed, horizon)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Bind error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	rounds := want.Rounds()
	if !slices.Equal(got.Rounds(), rounds) {
		t.Fatalf("Rounds() = %v, reference %v", got.Rounds(), rounds)
	}
	if unopenedLinkClose(p, horizon, late) {
		t.Skip("the reference lifts another window's blackout here; see TestLateAttachKeepsLinkWindows")
	}
	last := late + 2
	if len(rounds) > 0 {
		last = max(last, min(rounds[len(rounds)-1]+2, maxRefRounds))
	}
	gh := &predHost{Engine: sim.NewEngine(n, sim.Options{Seed: seed})}
	wh := &predHost{Engine: sim.NewEngine(n, sim.Options{Seed: seed})}
	for r := 0; r < late; r++ {
		gh.Tick()
		wh.Tick()
	}
	gc := got.Attach(gh)
	want.Attach(wh)
	for r := late; r <= last; r++ {
		if r > late {
			gh.Tick()
			wh.Tick()
		}
		for i := 0; i < n; i++ {
			if gh.Alive(i) != wh.Alive(i) {
				t.Fatalf("round %d: node %d alive %v, reference %v", r, i, gh.Alive(i), wh.Alive(i))
			}
		}
		if gc.Fired() != want.Fired() || gc.Crashed() != want.Crashed() || gc.Revived() != want.Revived() {
			t.Fatalf("round %d: fired/crashed/revived %d/%d/%d, reference %d/%d/%d", r,
				gc.Fired(), gc.Crashed(), gc.Revived(), want.Fired(), want.Crashed(), want.Revived())
		}
		if (gh.pred == nil) != (wh.pred == nil) {
			t.Fatalf("round %d: predicate installed %v, reference %v", r, gh.pred != nil, wh.pred != nil)
		}
		if gh.pred == nil {
			continue
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				g, w := gh.pred(from, to), wh.pred(from, to)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("round %d: link %d->%d drops with %v, reference %v", r, from, to, g, w)
				}
			}
		}
	}
}

// unopenedLinkClose reports whether a replay attached after late rounds
// closes a LinkDown window whose opening fell in the rounds it never saw
// while another window covers the same link. The reference refcounts
// blackouts per link, so that close cancels the other window's count and
// lifts its blackout early; a Bound closes only the window itself.
func unopenedLinkClose(p *Plan, horizon, late int) bool {
	for i, ev := range p.Events {
		if ev.Kind != LinkDown || ev.End.isZero() {
			continue
		}
		if at := ev.At.resolve(horizon); at < 1 || at > late || ev.End.resolve(horizon) <= late {
			continue
		}
		for j, o := range p.Events {
			if j != i && o.Kind == LinkDown && orient(o.A, o.B) == orient(ev.A, ev.B) {
				return true
			}
		}
	}
	return false
}

// A replay attached mid-run that closes a link window it never saw open
// keeps the blackout of another window on the same link until that
// window's own end: link:3-5 opens at round 2, before the attachment,
// and closes at 8, while link:5-3 covers rounds 4 to 10.
func TestLateAttachKeepsLinkWindows(t *testing.T) {
	p, err := Parse("link:3-5@2r..8r;link:5-3@4r..10r")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(12, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &predHost{Engine: sim.NewEngine(12, sim.Options{Seed: 11})}
	for h.Round() < 3 {
		h.Tick()
	}
	b.Attach(h)
	for r := 4; r <= 10; r++ {
		h.Tick()
		severed := h.pred != nil && h.pred(3, 5) == 1 && h.pred(5, 3) == 1
		if severed != (r < 10) {
			t.Fatalf("round %d: link 3-5 severed = %v, want %v", r, severed, r < 10)
		}
	}
}

// The binding replays every plan of refCases exactly as the reference
// does, attached before the first round and after three rounds have
// already passed (whose actions then never fire).
func TestBindMatchesReference(t *testing.T) {
	for _, c := range refCases {
		p, err := Parse(c.spec)
		if err == nil {
			_, err = p.Bind(c.n, 11, c.horizon)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, late := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/late=%d", c.name, late), func(t *testing.T) {
				diffBind(t, p, c.n, 11, c.horizon, late)
			})
		}
	}
}

// corpusSpecs returns the plan= fields of a chaos corpus file.
func corpusSpecs(tb testing.TB, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var specs []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if spec, ok := strings.CutPrefix(field, "plan="); ok {
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// FuzzBindMatchesReference runs diffBind on arbitrary specs, network
// sizes up to 32, seeds, horizons and attachment delays, seeded with
// refCases, the specs of the package's tests and the plans of both
// chaos corpora.
func FuzzBindMatchesReference(f *testing.F) {
	specs := slices.Clone(faultTestSpecs)
	for _, c := range refCases {
		specs = append(specs, c.spec)
	}
	for _, path := range []string{"../chaos/testdata/seed_corpus.txt", "../chaos/testdata/regressions.txt"} {
		specs = append(specs, corpusSpecs(f, path)...)
	}
	for i, spec := range specs {
		f.Add(spec, uint8(16+i%17), uint64(i), uint16(40+i), uint8(i%5))
	}
	f.Fuzz(func(t *testing.T, spec string, n uint8, seed uint64, horizon uint16, late uint8) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		diffBind(t, p, 2+int(n)%31, seed, int(horizon)%400, int(late)%16)
	})
}
