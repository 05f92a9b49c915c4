package gossip

import (
	"fmt"

	"drrgossip/internal/forest"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// Transport is the root-to-root channel Phase III runs over: how a root
// reaches the root of a (near-)uniformly random node, how an inquired
// root answers, and which reliability rule protects push-sum shares. The
// drivers (Max, Spread, Ave) are written once against it; Relay builds
// the dense tree-relay transport of Section 3 and Route the overlay
// transport of Section 4.
//
// A Transport is bound to one engine and forest and keeps per-run
// scratch state, so build a fresh one per protocol run.
type Transport interface {
	// env returns the engine and forest the transport is bound to.
	env() (*sim.Engine, *forest.Forest)
	// iterations scales a procedure's base iteration count.
	iterations(base int) int
	// ticks is the number of rounds one exchange needs to land.
	ticks() int
	// push ships pay from root r to the root of a random node.
	push(r int, pay sim.Payload)
	// reply ships pay from root `from` back to the inquiring root `to`.
	reply(from, to int, pay sim.Payload)
	// draw picks root r's next push-sum destination. False means no call
	// can be established: the share stays home and r must not halve.
	draw(r int, reliable bool) bool
	// ship sends the share pay to the destination draw picked. It
	// reports whether the share left r as far as the sender can tell
	// (in reliable mode false means every retry failed and r restores
	// the share), the destination root, and the round by which the
	// share is due there (the ack deadline).
	ship(r int, pay sim.Payload, reliable bool) (ok bool, dst, due int)
}

// relay is the dense transport (Section 3): a root calls a uniformly
// random node, which forwards the message to its own root within the
// same round (sim.SendVia, 2 hops). A root is therefore selected with
// probability proportional to its tree size — the non-uniformity
// Theorems 5-7 analyse. Iteration budgets carry the paper's 1/(1-ρ)
// loss inflation, and reliable shares are retried up to 8 times,
// detecting a lost hop from the engine's drop counter.
type relay struct {
	eng      *sim.Engine
	f        *forest.Forest
	rootTo   []int
	hop, dst int // the last draw
}

// Relay builds the dense tree-relay transport; rootTo gives every node's
// root address (from the Phase II broadcast).
func Relay(eng *sim.Engine, f *forest.Forest, rootTo []int) (Transport, error) {
	if f.N() != eng.N() {
		return nil, fmt.Errorf("gossip: forest has %d nodes, engine %d", f.N(), eng.N())
	}
	if len(rootTo) != eng.N() {
		return nil, fmt.Errorf("gossip: rootTo has %d entries, engine %d", len(rootTo), eng.N())
	}
	if f.NumTrees() == 0 {
		return nil, fmt.Errorf("gossip: empty forest")
	}
	return &relay{eng: eng, f: f, rootTo: rootTo}, nil
}

func (t *relay) env() (*sim.Engine, *forest.Forest) { return t.eng, t.f }

func (t *relay) iterations(base int) int { return LossInflate(base, t.eng) }

func (t *relay) ticks() int { return 1 }

// target picks the relay node (uniform over V minus the chooser) and the
// root it forwards to. A crashed or root-less relay still consumes the
// send (the message dies at the relay).
func (t *relay) target(chooser int) {
	t.hop = t.eng.RNG(chooser).IntnOther(t.eng.N(), chooser)
	t.dst = t.rootTo[t.hop]
	if t.dst < 0 {
		t.dst = t.hop // dead end: deliver "to the relay", which drops it
	}
}

func (t *relay) push(r int, pay sim.Payload) {
	t.target(r)
	t.eng.SendVia(r, t.hop, t.dst, pay)
}

func (t *relay) reply(from, to int, pay sim.Payload) { t.eng.Send(from, to, pay) }

func (t *relay) draw(r int, reliable bool) bool {
	t.target(r)
	if !t.eng.Alive(t.hop) || (reliable && (!t.f.IsRoot(t.dst) || !t.eng.Alive(t.dst))) {
		// The call to the relay is never established (crashed relay), or
		// — in reliable mode — the destination cannot take the share: no
		// live root to credit, or the root is currently down (a
		// dead-at-send destination never has the message scheduled, so
		// drop-sniffing would wrongly report it delivered). Both are
		// possible only under dynamic membership. The sender detects the
		// failure and retains its share; only the call attempt is paid
		// for.
		t.eng.Send(r, t.hop, sim.Payload{Kind: kindNoCall})
		return false
	}
	return true
}

func (t *relay) ship(r int, pay sim.Payload, reliable bool) (bool, int, int) {
	ok := t.sendVia(r, pay)
	for try := 0; reliable && try < 8 && !ok; try++ {
		ok = t.sendVia(r, pay)
	}
	return ok, t.dst, t.eng.Round() + 1
}

// sendVia relays pay to the drawn destination and reports whether no hop
// was lost.
func (t *relay) sendVia(r int, pay sim.Payload) bool {
	before := t.eng.Stats().Drops
	t.eng.SendVia(r, t.hop, t.dst, pay)
	return t.eng.Stats().Drops == before
}

// route is the sparse transport (Section 4, Theorems 13-14): a root
// samples a near-uniform random node through the overlay's sampler,
// routes to it and climbs its ranking tree to the root, one hop per
// round. An exchange lands within RouteBound + MaxHeight + 2 rounds.
// Iteration budgets are not loss-inflated, and reliable shares use
// hop-level retransmission (sim.Engine.SendRoutedReliable). All routes
// are built in one reused path buffer.
type route struct {
	eng    *sim.Engine
	f      *forest.Forest
	ov     overlay.Overlay
	path   []int
	nticks int
}

// Route builds the overlay-routed transport over f, whose tree edges
// must be overlay links (a Local-DRR forest).
func Route(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest) Transport {
	return &route{eng: eng, f: f, ov: ov, nticks: ov.RouteBound() + f.MaxHeight() + 2}
}

func (t *route) env() (*sim.Engine, *forest.Forest) { return t.eng, t.f }

func (t *route) iterations(base int) int { return base }

func (t *route) ticks() int { return t.nticks }

func (t *route) push(r int, pay sim.Payload) {
	t.path = sampleRootPath(t.eng, t.ov, t.f, r, t.path)
	t.eng.SendRouted(r, t.path, pay)
}

func (t *route) reply(from, to int, pay sim.Payload) {
	t.path = t.ov.AppendRoute(t.path[:0], from, to)
	t.eng.SendRouted(from, t.path, pay)
}

func (t *route) draw(r int, _ bool) bool {
	t.path = sampleRootPath(t.eng, t.ov, t.f, r, t.path)
	return len(t.path) > 0 // sampled own root (or a dead end): mass stays
}

func (t *route) ship(r int, pay sim.Payload, reliable bool) (bool, int, int) {
	dst, due := t.path[len(t.path)-1], t.eng.Round()+len(t.path)
	if !reliable {
		t.eng.SendRouted(r, t.path, pay)
		return true, dst, due
	}
	return t.eng.SendRoutedReliable(r, t.path, pay), dst, due
}

// appendClimb appends the tree path from node j up to its root
// (excluding j itself) and returns the extended buffer; nothing is
// appended when j is a root.
func appendClimb(dst []int, f *forest.Forest, j int) []int {
	for cur := j; !f.IsRoot(cur); {
		cur = f.Parent(cur)
		dst = append(dst, cur)
	}
	return dst
}

// sampleRootPath draws a near-uniform random node as seen from root r
// and builds in buf the hop path to that node's root: overlay-route to
// the sampled node, then climb its ranking tree. It returns buf (reset
// and refilled). The routing cost of rejected sampling attempts is
// charged to the engine. An empty path means the sample landed on r
// itself — or, under dynamic membership, on a node that has crashed out
// of the forest: the route is still paid for, but there is no tree to
// climb and callers keep their mass.
func sampleRootPath(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, r int, buf []int) []int {
	j, path, totalHops := ov.AppendSample(buf[:0], eng.RNG(r), r)
	if extra := totalHops - len(path); extra > 0 {
		eng.Charge(int64(extra)) // rejected routing attempts are traffic too
	}
	if !f.Member(j) {
		eng.Charge(int64(len(path))) // the route to the dead end is traffic too
		return path[:0]
	}
	return appendClimb(path, f, j)
}
