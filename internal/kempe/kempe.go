// Package kempe implements the two uniform-gossip baselines of Kempe,
// Dobra and Gehrke (FOCS 2003) that the experiments compare DRR-gossip
// against.
//
// PushSum computes the Average on the complete graph (Table 1). Every
// node gossips every round, so the protocol is address-oblivious, takes
// O(log n) rounds, and uses Θ(n log n) messages — time-optimal but a
// log n / log log n factor more messages than DRR-gossip (and, by
// Theorem 15, message-optimal among address-oblivious algorithms).
//
// PushMaxOnChord computes the Max on Chord, routing each gossip message
// with the overlay's O(log n)-hop protocol. That gives the O(log^2 n)
// time and O(n log^2 n) messages that Section 4 contrasts with
// DRR-gossip's O(n log n) messages on Chord.
package kempe

import (
	"fmt"
	"math"

	"drrgossip/internal/chord"
	"drrgossip/internal/sim"
)

const (
	kindShare uint8 = 0x51
	kindMax   uint8 = 0x52
)

// Options tune the baselines; zero values pick paper-scaled defaults.
type Options struct {
	// Rounds is the number of gossip rounds (0 = O(log n) defaults:
	// 2 log n + 12 for Push-Max, 4 log n + 24 for Push-Sum, inflated for
	// loss and crashes).
	Rounds int
}

// Result reports a baseline run.
type Result struct {
	// Estimates is each node's final estimate (NaN for crashed nodes).
	Estimates []float64
	// S and W are the final push-sum components (nil for Push-Max); with
	// zero loss they satisfy ΣS = Σ values and ΣW = number of alive nodes.
	S, W  []float64
	Stats sim.Counters
}

func ceilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

func inflate(base int, eng *sim.Engine) int {
	alive := float64(eng.NumAlive()) / float64(eng.N())
	loss := eng.Loss()
	if loss > 0.45 {
		loss = 0.45
	}
	return int(math.Ceil(float64(base)/((1-2*loss)*alive))) + 1
}

// PushSum runs the Push-Sum protocol for the Average: every node keeps
// (s, w), halves both each round, keeps one half and sends the other to a
// uniformly random node; s/w converges to the global average at every
// node in O(log n + log 1/ε) rounds.
//
// A share aimed at an initially-crashed node is retained (the call is
// never established); a share lost to link failure destroys mass, exactly
// as in the DRR-gossip Phase III analysis.
func PushSum(eng *sim.Engine, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kempe: %d values for %d nodes", len(values), eng.N())
	}
	n := eng.N()
	rounds := opts.Rounds
	if rounds == 0 {
		rounds = inflate(4*ceilLog2(n)+24, eng)
	}
	start := eng.Stats()
	s := make([]float64, n)
	w := make([]float64, n)
	for i := range s {
		if eng.Alive(i) {
			s[i] = values[i]
			w[i] = 1
		}
	}
	for t := 0; t < rounds; t++ {
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			target := eng.RNG(i).IntnOther(n, i)
			if !eng.Alive(target) {
				eng.Send(i, target, sim.Payload{Kind: kindShare}) // failed call attempt
				continue
			}
			s[i] /= 2
			w[i] /= 2
			eng.Send(i, target, sim.Payload{Kind: kindShare, A: s[i], B: w[i]})
		}
		eng.Tick()
		sim.ParallelFor(n, func(i int) {
			if !eng.Alive(i) {
				return
			}
			for _, m := range eng.Inbox(i) {
				if m.Pay.Kind == kindShare {
					s[i] += m.Pay.A
					w[i] += m.Pay.B
				}
			}
		})
	}
	est := make([]float64, n)
	for i := range est {
		switch {
		case !eng.Alive(i):
			est[i] = math.NaN()
		case w[i] != 0:
			est[i] = s[i] / w[i]
		default:
			est[i] = math.NaN()
		}
	}
	return &Result{Estimates: est, S: s, W: w, Stats: eng.Stats().Sub(start)}, nil
}

// PushMaxOnChord runs push gossip for Max: every round every node sends
// its current maximum to a uniform random node, routed over the Chord
// overlay by the sampling protocol.
// Time O(log^2 n), messages O(n log^2 n).
func PushMaxOnChord(eng *sim.Engine, ring *chord.Ring, values []float64, opts Options) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kempe: %d values for %d nodes", len(values), eng.N())
	}
	if ring.N() != eng.N() {
		return nil, fmt.Errorf("kempe: ring has %d nodes, engine %d", ring.N(), eng.N())
	}
	if eng.NumAlive() != eng.N() {
		return nil, fmt.Errorf("kempe: chord baseline requires all nodes alive")
	}
	n := eng.N()
	iters := opts.Rounds
	if iters == 0 {
		iters = inflate(2*ceilLog2(n)+12, eng)
	}
	ticks := 2*ceilLog2(n) + 2
	start := eng.Stats()
	est := append([]float64(nil), values...)
	var path []int // one route buffer for every routed message
	for t := 0; t < iters; t++ {
		for i := 0; i < n; i++ {
			var totalHops int
			_, path, totalHops = ring.AppendSample(path[:0], eng.RNG(i), i)
			if extra := totalHops - len(path); extra > 0 {
				eng.Charge(int64(extra))
			}
			if len(path) == 0 {
				continue
			}
			eng.SendRouted(i, path, sim.Payload{Kind: kindMax, A: est[i]})
		}
		for k := 0; k < ticks; k++ {
			eng.Tick()
			for i := 0; i < n; i++ {
				for _, m := range eng.Inbox(i) {
					if m.Pay.Kind == kindMax && m.Pay.A > est[i] {
						est[i] = m.Pay.A
					}
				}
			}
		}
	}
	return &Result{Estimates: est, Stats: eng.Stats().Sub(start)}, nil
}
