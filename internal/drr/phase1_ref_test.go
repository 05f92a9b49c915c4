package drr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drrgossip/internal/bitset"
	"drrgossip/internal/chord"
	"drrgossip/internal/faults"
	"drrgossip/internal/forest"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

// refLocalKindConnect is the connection-message kind Local-DRR used
// while it had its own copy of the connection step. No ResolveCalls
// handler reads a kind, so the shared step's kindConnect changes
// nothing observable.
const refLocalKindConnect uint8 = 0x12

// refResult is Result as the reference drivers return it, with the
// phase's counters; the live drivers leave the bill to the engine.
type refResult struct {
	Forest  *forest.Forest
	Ranks   []float64
	Probes  []int
	Stats   sim.Counters
	Orphans int
}

// refCall is the slot form the reference drivers stage their calls in:
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

// refRun is Run as it was before DRR and Local-DRR shared one
// connection step: a found bitset, not parent[i] >= 0, marked the nodes
// that had a parent. It is kept verbatim as the differential reference.
func refRun(eng *sim.Engine, opts Options) (*refResult, error) {
	n := eng.N()
	budget := opts.ProbeBudget
	if budget == 0 {
		budget = DefaultProbeBudget(n)
	}
	if budget < 1 {
		return nil, fmt.Errorf("drr: probe budget must be >= 1, got %d", budget)
	}
	start := eng.Stats()

	ranks := make([]float64, n)
	parent := make([]int, n)
	// found/acked are per-node membership sets; dense bitsets keep the
	// Phase I state at n/8 bytes apiece, which matters at million-node
	// scale. They are only mutated on the engine's sequential paths
	// (ResolveCalls handlers).
	found := bitset.New(n)
	probes := make([]int, n)
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			ranks[i] = eng.RNG(i).Float64()
			parent[i] = forest.Root
		} else {
			ranks[i] = math.NaN()
			parent[i] = forest.NotMember
		}
	}

	// Probing: one random sample per round per still-searching node.
	calls := make([]refCall, n)
	for k := 0; k < budget; k++ {
		eng.Tick()
		for i := 0; i < n; i++ {
			calls[i] = refCall{}
			if !eng.Alive(i) || found.Test(i) {
				continue
			}
			u := eng.RNG(i).IntnOther(n, i)
			probes[i]++
			calls[i] = refCall{Active: true, To: u, Pay: sim.Payload{Kind: kindProbe}}
		}
		refResolve(eng, calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				// Reply with the callee's rank.
				return sim.Payload{Kind: kindProbe, A: ranks[callee], X: int64(callee)}, true
			},
			func(caller int, resp sim.Payload) {
				if resp.A > ranks[caller] {
					found.Set(caller)
					parent[caller] = int(resp.X)
				}
			})
	}

	// Connection: nodes that found a parent send it a connection message
	// carrying their identifier; the parent acknowledges (idempotently, so
	// retries after a lost ack are harmless). Unacknowledged nodes retry up
	// to connectRetries times and then fall back to being roots.
	acked := bitset.New(n)
	orphans := 0
	for attempt := 0; attempt < connectRetries; attempt++ {
		eng.Tick()
		active := false
		for i := 0; i < n; i++ {
			calls[i] = refCall{}
			if !eng.Alive(i) || !found.Test(i) || acked.Test(i) {
				continue
			}
			active = true
			calls[i] = refCall{Active: true, To: parent[i], Pay: sim.Payload{Kind: kindConnect, X: int64(i)}}
		}
		if !active {
			break
		}
		refResolve(eng, calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				return sim.Payload{Kind: kindConnect}, true
			},
			func(caller int, resp sim.Payload) {
				acked.Set(caller)
			})
	}
	for i := 0; i < n; i++ {
		if found.Test(i) && !acked.Test(i) {
			// The child cannot be sure its parent registered it; failing
			// open to a root keeps the forest consistent.
			parent[i] = forest.Root
			found.Clear(i)
			orphans++
		}
	}
	// Dynamic membership: nodes that crashed during the phase leave the
	// forest, and their orphaned children are promoted to roots, so the
	// forest stays valid under mid-run churn. A no-op in the static model.
	orphans += forest.RepairParents(parent, eng.Alive)
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, fmt.Errorf("drr: invalid forest: %w", err)
	}
	return &refResult{
		Forest:  f,
		Ranks:   ranks,
		Probes:  probes,
		Stats:   eng.Stats().Sub(start),
		Orphans: orphans,
	}, nil
}

// refRunLocal is RunLocal as it was when Local-DRR was its own package,
// with its own rank draw and its own copy of the connection step. It is
// kept verbatim as the differential reference.
func refRunLocal(eng *sim.Engine, g *graph.Graph) (*refResult, error) {
	n := eng.N()
	if g.N() != n {
		return nil, fmt.Errorf("localdrr: graph has %d nodes, engine %d", g.N(), n)
	}
	exchanges := 1
	if eng.Loss() != 0 {
		exchanges = lossyRankExchanges
	}
	start := eng.Stats()

	ranks := make([]float64, n)
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			ranks[i] = eng.RNG(i).Float64()
		} else {
			ranks[i] = math.NaN()
		}
	}

	// Rank exchange: every node sends its rank to all neighbours (the
	// sparse model allows simultaneous neighbour messages in one round).
	// A receiver only needs the best rank it heard, so each exchange
	// folds receipts into heard/heardFrom as they are sent — senders in
	// ascending id, first maximum kept — and after the Tick folds those
	// into best/bestRank for receivers still alive: the same result, tie
	// for tie, as scanning the delivered inboxes in send order.
	best := make([]int, n) // highest-ranked neighbour heard from, -1 none
	bestRank := make([]float64, n)
	heardFrom := make([]int, n) // this exchange's best sender, -1 none
	heard := make([]float64, n)
	for i := range best {
		best[i] = -1
		bestRank[i] = math.Inf(-1)
	}
	// nbuf is this run's private neighbour buffer: parallel batch workers
	// share one overlay graph, so the graph-owned Neighbors scratch of
	// implicit/CSR representations must not be touched from here.
	nbuf := make([]int, 0, 64)
	for r := 0; r < exchanges; r++ {
		for i := range heard {
			heardFrom[i] = -1
			heard[i] = math.Inf(-1)
		}
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			nbuf = g.NeighborsInto(i, nbuf)
			from, rank := i, ranks[i]
			eng.SendEach(from, nbuf, func(to int) {
				if rank > heard[to] {
					heard[to] = rank
					heardFrom[to] = from
				}
			})
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			if eng.Alive(i) && heard[i] > bestRank[i] {
				bestRank[i] = heard[i]
				best[i] = heardFrom[i]
			}
		}
	}

	// Local decision: connect to the highest-ranked neighbour if it
	// outranks us, else become a root.
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		switch {
		case !eng.Alive(i):
			parent[i] = forest.NotMember
		case best[i] >= 0 && bestRank[i] > ranks[i]:
			parent[i] = best[i]
		default:
			parent[i] = forest.Root
		}
	}

	// Connection handshake with ack/retransmit, as in global DRR. The ack
	// set is a dense bitset (n/8 bytes) mutated only from the sequential
	// ResolveCalls path.
	acked := bitset.New(n)
	calls := make([]refCall, n)
	orphans := 0
	for attempt := 0; attempt < connectRetries; attempt++ {
		eng.Tick()
		active := false
		for i := 0; i < n; i++ {
			calls[i] = refCall{}
			if !eng.Alive(i) || parent[i] < 0 || acked.Test(i) {
				continue
			}
			active = true
			calls[i] = refCall{Active: true, To: parent[i], Pay: sim.Payload{Kind: refLocalKindConnect, X: int64(i)}}
		}
		if !active {
			break
		}
		refResolve(eng, calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				return sim.Payload{Kind: refLocalKindConnect}, true
			},
			func(caller int, resp sim.Payload) {
				acked.Set(caller)
			})
	}
	for i := 0; i < n; i++ {
		if parent[i] >= 0 && !acked.Test(i) {
			parent[i] = forest.Root
			orphans++
		}
	}
	// Dynamic membership: drop nodes that crashed during the phase and
	// promote their orphaned children (no-op in the static model).
	orphans += forest.RepairParents(parent, eng.Alive)
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, fmt.Errorf("localdrr: invalid forest: %w", err)
	}
	return &refResult{
		Forest:  f,
		Ranks:   ranks,
		Stats:   eng.Stats().Sub(start),
		Orphans: orphans,
	}, nil
}

// phaseOneAlgos names the differential cases' Phase I: DRR on the
// complete graph, or Local-DRR on one of four sparse graph families.
var phaseOneAlgos = []string{"drr", "ring", "torus", "smallworld", "chord"}

// phaseOneGraph builds the graph Local-DRR runs on for algo with about
// n nodes (n >= 6), or nil for DRR.
func phaseOneGraph(algo string, n int, seed uint64) *graph.Graph {
	switch algo {
	case "ring":
		return graph.Ring(n)
	case "torus":
		rows := 3 + n%7
		return graph.Torus(rows, max(3, n/rows))
	case "smallworld":
		return graph.SmallWorld(n, 2, 0.2, seed)
	case "chord":
		return chord.MustNew(n, chord.Options{Bits: 30, Placement: chord.Hashed, Seed: seed}).Graph()
	}
	return nil
}

// diffPhaseOne runs the live Phase I and its reference on twin engines,
// each with the fault schedule b replayed (nil for none), and demands
// bit-identical outcomes: parent vector, ranks, probes, orphans and
// phase counters, then identical engine state. g nil runs DRR with the
// given probe budget, otherwise Local-DRR over g.
func diffPhaseOne(t *testing.T, g *graph.Graph, n, budget int, opts sim.Options, b *faults.Bound) {
	t.Helper()
	engs := [2]*sim.Engine{sim.NewEngine(n, opts), sim.NewEngine(n, opts)}
	if b != nil {
		for _, eng := range engs {
			b.Attach(eng)
		}
	}
	var got *Result
	var want *refResult
	var gotErr, wantErr error
	before := engs[0].Stats()
	if g == nil {
		got, gotErr = Run(engs[0], Options{ProbeBudget: budget})
		want, wantErr = refRun(engs[1], Options{ProbeBudget: budget})
	} else {
		got, gotErr = RunLocal(engs[0], g, Options{})
		want, wantErr = refRunLocal(engs[1], g)
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for i := 0; i < n; i++ {
		if p, q := got.Forest.Parent(i), want.Forest.Parent(i); p != q {
			t.Fatalf("node %d: parent %d, want %d", i, p, q)
		}
		if a, b := math.Float64bits(got.Ranks[i]), math.Float64bits(want.Ranks[i]); a != b {
			t.Fatalf("node %d: rank bits %x, want %x", i, a, b)
		}
	}
	if (got.Probes == nil) != (want.Probes == nil) || !slices.Equal(got.Probes, want.Probes) {
		t.Fatalf("probes %v, want %v", got.Probes, want.Probes)
	}
	if stats := engs[0].Stats().Sub(before); stats != want.Stats || got.Orphans != want.Orphans {
		t.Fatalf("stats %+v orphans %d, want %+v orphans %d",
			stats, got.Orphans, want.Stats, want.Orphans)
	}
	if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
		t.Fatalf("engine counters %+v, want %+v", a, b)
	}
	if a, b := engs[0].NumAlive(), engs[1].NumAlive(); a != b {
		t.Fatalf("alive %d, want %d", a, b)
	}
	// The loss sequence ends in the same place: one more lossy send per
	// node must share its fate on both.
	for i := 0; i < n; i++ {
		for _, eng := range engs {
			eng.Send(i, (i+1)%n, sim.Payload{})
		}
	}
	if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
		t.Fatalf("counters after a trailing send %+v, want %+v", a, b)
	}
}

// phaseOneCrashes crashes nodes mid-phase: 5% at the first Tick (the
// rank exchange's delivery, DRR's first probe), 10% from round 2 to 4,
// and revives half the dead at round 3, initially crashed nodes among
// them.
const phaseOneCrashes = "crash:0.05@1;crash:0.1@2..4;rejoin:0.5@3"

// TestPhaseOneMatchesReference compares Run and RunLocal with refRun and
// refRunLocal, the code they replaced, on DRR over the complete graph
// and Local-DRR over ring, torus, small-world and Chord graphs, each
// lossless, lossy, with mid-run crashes, and with both.
func TestPhaseOneMatchesReference(t *testing.T) {
	sizes := map[string]int{"drr": 700, "ring": 500, "torus": 600, "smallworld": 600, "chord": 512}
	conds := []struct {
		name  string
		opts  sim.Options
		crash bool
	}{
		{name: "lossless", opts: sim.Options{Seed: 1}},
		{name: "lossy", opts: sim.Options{Seed: 2, Loss: 0.05}},
		{name: "crashes", opts: sim.Options{Seed: 3, CrashFrac: 0.05}, crash: true},
		{name: "lossy-crashes", opts: sim.Options{Seed: 4, Loss: 0.05, CrashFrac: 0.05}, crash: true},
	}
	plan, err := faults.Parse(phaseOneCrashes)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range phaseOneAlgos {
		for _, c := range conds {
			t.Run(algo+"/"+c.name, func(t *testing.T) {
				g := phaseOneGraph(algo, sizes[algo], c.opts.Seed)
				n := sizes[algo]
				if g != nil {
					n = g.N()
				}
				var b *faults.Bound
				if c.crash {
					if b, err = plan.Bind(n, c.opts.Seed, 0); err != nil {
						t.Fatal(err)
					}
				}
				diffPhaseOne(t, g, n, 0, c.opts, b)
			})
		}
	}
}

// FuzzPhaseOneMatchesReference runs the same comparison on fuzzed
// networks, probe budgets, loss rates, initial crashes and fault plans.
func FuzzPhaseOneMatchesReference(f *testing.F) {
	specs := []string{"", phaseOneCrashes, "crash:0.2@0.5", "rack:0.1@1..3", "churn:0.3:2", "loss:0.2@1..2;crash:3@2"}
	for i, spec := range specs {
		for algo := range phaseOneAlgos {
			f.Add(uint8(algo), uint16(40+7*i), uint64(i), uint8(0), uint8(i%3*13), uint8(i%5), spec, uint8(12+i))
		}
	}
	f.Fuzz(func(t *testing.T, algo uint8, size uint16, seed uint64, budget, loss, crash uint8, spec string, horizon uint8) {
		p, err := faults.Parse(spec)
		if err != nil {
			return
		}
		name := phaseOneAlgos[int(algo)%len(phaseOneAlgos)]
		n := 6 + int(size)%250
		g := phaseOneGraph(name, n, seed)
		if g != nil {
			n = g.N()
		}
		b, err := p.Bind(n, seed, 1+int(horizon)%32)
		if err != nil {
			return
		}
		opts := sim.Options{Seed: seed, Loss: float64(loss%32) / 256, CrashFrac: float64(crash%5) / 20}
		diffPhaseOne(t, g, n, int(budget)%12, opts, b)
	})
}
