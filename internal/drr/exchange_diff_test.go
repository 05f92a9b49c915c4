package drr

import (
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/bitset"
	"drrgossip/internal/chord"
	"drrgossip/internal/forest"
	"drrgossip/internal/graph"
	"drrgossip/internal/sim"
)

const kindRank uint8 = 0x11

// runInbox is RunLocal as it was when the rank exchange went through
// eng.Send and eng.Inbox: every rank became a queued Message and each
// receiver scanned its delivered inbox. It is kept verbatim as the
// differential reference for the SendEach exchange.
func runInbox(eng *sim.Engine, g *graph.Graph) (*refResult, error) {
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
	best := make([]int, n) // highest-ranked neighbour heard from, -1 none
	bestRank := make([]float64, n)
	for i := range best {
		best[i] = -1
		bestRank[i] = math.Inf(-1)
	}
	// nbuf is this run's private neighbour buffer: parallel batch workers
	// share one overlay graph, so the graph-owned Neighbors scratch of
	// implicit/CSR representations must not be touched from here.
	nbuf := make([]int, 0, 64)
	for r := 0; r < exchanges; r++ {
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			nbuf = g.NeighborsInto(i, nbuf)
			for _, nb := range nbuf {
				eng.Send(i, nb, sim.Payload{Kind: kindRank, A: ranks[i], X: int64(i)})
			}
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			for _, m := range eng.Inbox(i) {
				if m.Pay.Kind == kindRank && m.Pay.A > bestRank[i] {
					bestRank[i] = m.Pay.A
					best[i] = int(m.Pay.X)
				}
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

// TestRankExchangeMatchesInboxReference runs RunLocal and the verbatim
// Send/Inbox reference on twin engines and demands bit-identical
// results — parent vector, ranks, phase counters, orphan count — and
// identical engine state afterwards, across overlays and engine
// conditions: lossless, lossy (the repeated-exchange path), severed
// links, and receivers crashed at the first Tick and revived at the
// second.
func TestRankExchangeMatchesInboxReference(t *testing.T) {
	graphs := []*graph.Graph{
		chord.MustNew(1024, chord.Options{}).Graph(),
		graph.SmallWorld(1024, 4, 0.2, 7),
		graph.Star(300),
		graph.Ring(500),
	}
	severed := func(from, to int) float64 {
		if (31*from+to)%7 == 0 {
			return 1
		}
		return 0
	}
	// flap crashes every 8th receiver, the star's hub (node 0) among
	// them, at round 1 and revives them at round 2: a flapped receiver
	// must lose the first exchange's receipts and hear nothing sent while
	// it was down.
	flap := func(eng *sim.Engine) func(int) {
		return func(r int) {
			for v := 0; v < eng.N(); v += 8 {
				switch r {
				case 1:
					eng.Crash(v)
				case 2:
					eng.Revive(v)
				}
			}
		}
	}
	conds := []struct {
		name  string
		opts  sim.Options
		fault sim.LinkFault
		hook  bool
	}{
		{name: "lossless", opts: sim.Options{Seed: 1}},
		{name: "lossy", opts: sim.Options{Seed: 2, Loss: 0.1}},
		{name: "severed", opts: sim.Options{Seed: 3}, fault: severed},
		{name: "crash-revive", opts: sim.Options{Seed: 4}, hook: true},
		{name: "lossy-crash-revive", opts: sim.Options{Seed: 6, Loss: 0.3}, hook: true},
		{name: "lossy-severed-crash-revive", opts: sim.Options{Seed: 5, Loss: 0.1, CrashFrac: 0.1}, fault: severed, hook: true},
	}
	for _, g := range graphs {
		for _, c := range conds {
			t.Run(g.Name()+"/"+c.name, func(t *testing.T) {
				engs := [2]*sim.Engine{sim.NewEngine(g.N(), c.opts), sim.NewEngine(g.N(), c.opts)}
				for _, eng := range engs {
					eng.SetLinkFault(c.fault)
					if c.hook {
						eng.SetRoundHook(flap(eng))
					}
				}
				before := engs[0].Stats()
				got, err := RunLocal(engs[0], g, Options{})
				stats := engs[0].Stats().Sub(before)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runInbox(engs[1], g)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < g.N(); i++ {
					if p, q := got.Forest.Parent(i), want.Forest.Parent(i); p != q {
						t.Fatalf("node %d: parent %d, want %d", i, p, q)
					}
					if a, b := math.Float64bits(got.Ranks[i]), math.Float64bits(want.Ranks[i]); a != b {
						t.Fatalf("node %d: rank bits %x, want %x", i, a, b)
					}
				}
				if stats != want.Stats || got.Orphans != want.Orphans {
					t.Fatalf("stats %+v orphans %d, want %+v orphans %d",
						stats, got.Orphans, want.Stats, want.Orphans)
				}
				if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
					t.Fatalf("engine counters %+v, want %+v", a, b)
				}
				if a, b := engs[0].NumAlive(), engs[1].NumAlive(); a != b {
					t.Fatalf("alive %d, want %d", a, b)
				}
				// The loss sequence ends in the same place: one more
				// lossy send per node must share its fate on both.
				for i := 0; i < g.N(); i++ {
					for _, eng := range engs {
						eng.Send(i, (i+1)%g.N(), sim.Payload{})
					}
				}
				if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
					t.Fatalf("counters after a trailing round %+v, want %+v", a, b)
				}
			})
		}
	}
}

// TestRunAllocsFlatInN pins that Phase I allocates O(1) objects per run
// on a reused engine: the rank exchange keeps O(n) per-receiver state in
// a handful of slices instead of one queued Message per directed edge,
// so the object count must not grow from n = 2^11 to 2^13 on Chord.
func TestRunAllocsFlatInN(t *testing.T) {
	allocs := func(n int) float64 {
		g := chord.MustNew(n, chord.Options{}).Graph()
		opts := sim.Options{Seed: 9}
		eng := sim.NewEngine(n, opts)
		return testing.AllocsPerRun(3, func() {
			eng.Reset(opts)
			if _, err := RunLocal(eng, g, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<11), allocs(1<<13)
	if large > small+8 {
		t.Fatalf("RunLocal allocates %.0f objects at n=2^13 vs %.0f at n=2^11; want flat in n", large, small)
	}
	t.Logf("objects per RunLocal: %.0f at n=2^11, %.0f at n=2^13", small, large)
}
