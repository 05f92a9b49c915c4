// Package oblivious is the experimental harness for Theorem 15: any
// address-oblivious algorithm computing an aggregate (e.g. Max) needs
// Ω(n log n) messages, regardless of round count or message size.
//
// The harness implements the theorem's adversary criterion exactly: a
// node can be sure of the maximum only once it knows every node's value,
// directly or indirectly (otherwise the adversary places the maximum at a
// node it has not heard about). Knowledge is tracked as one bitset per
// node; messages may carry the sender's entire knowledge set (the theorem
// allows arbitrarily long messages) and each transfer costs one message.
//
// Running the best address-oblivious strategies (uniform push, pull and
// push-pull, the Kempe-style protocols) against this criterion measures
// Θ(n log n) messages to make even half the nodes certain — matching the
// lower bound and exhibiting the separation from non-address-oblivious
// DRR-gossip (Θ(n log log n)) and from single-rumor spreading
// (Θ(n log log n), internal/karp): computing aggregates is strictly
// harder than rumor spreading in the address-oblivious model.
package oblivious

import (
	"fmt"
	"math"

	"drrgossip/internal/bitset"
	"drrgossip/internal/xrand"
)

// Protocol selects the address-oblivious gossip strategy.
type Protocol int

const (
	// Push: every node sends its knowledge to a random node each round.
	Push Protocol = iota
	// Pull: every node asks a random node for its knowledge each round;
	// only the response carrying knowledge is charged.
	Pull
	// PushPull: both directions of each random call carry knowledge.
	PushPull
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Options configure a knowledge-spreading run.
type Options struct {
	Protocol Protocol
	Loss     float64 // per-message drop probability
	Seed     uint64
}

// Result reports when the adversary criterion was met.
type Result struct {
	N        int
	Protocol Protocol
	// RoundsHalf/MessagesHalf: first round (and messages so far) at which
	// at least half the nodes knew every value — the criterion of the
	// Theorem 15 proof. -1 if never reached.
	RoundsHalf   int
	MessagesHalf int64
	// RoundsAll/MessagesAll: same for all nodes knowing every value.
	RoundsAll   int
	MessagesAll int64
	// Totals at stop.
	Rounds   int
	Messages int64
}

// Run executes the chosen protocol on n nodes until every node knows
// every value or the round budget is exhausted.
func Run(n int, opts Options) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("oblivious: need n >= 2, got %d", n)
	}
	if !(opts.Loss >= 0 && opts.Loss < 1) { // negated so NaN is rejected too
		return nil, fmt.Errorf("oblivious: loss must be in [0,1)")
	}
	maxRounds := 8*int(math.Ceil(math.Log2(float64(n)))) + 40

	cur := make([]*bitset.Set, n)
	next := make([]*bitset.Set, n)
	rngs := make([]*xrand.Stream, n)
	for i := 0; i < n; i++ {
		cur[i] = bitset.New(n)
		cur[i].Set(i)
		next[i] = bitset.New(n)
		rngs[i] = xrand.Derive(opts.Seed, 0x0B11, uint64(i))
	}
	res := &Result{N: n, Protocol: opts.Protocol, RoundsHalf: -1, RoundsAll: -1}
	var seq uint64
	lossKey := xrand.KeyOf(opts.Seed, 0x0B12)
	deliver := func() bool {
		seq++
		res.Messages++
		return opts.Loss == 0 || lossKey.Float(seq) >= opts.Loss
	}

	for round := 1; round <= maxRounds; round++ {
		// Synchronous semantics: all transfers read the round-start
		// knowledge (cur) and accumulate into next.
		for i := 0; i < n; i++ {
			next[i].Reset()
			next[i].UnionWith(cur[i])
		}
		for i := 0; i < n; i++ {
			partner := rngs[i].IntnOther(n, i)
			switch opts.Protocol {
			case Push:
				if deliver() {
					next[partner].UnionWith(cur[i])
				}
			case Pull:
				// The request carries no knowledge (free); the response
				// does (one message).
				if deliver() {
					next[i].UnionWith(cur[partner])
				}
			case PushPull:
				if deliver() {
					next[partner].UnionWith(cur[i])
				}
				if deliver() {
					next[i].UnionWith(cur[partner])
				}
			default:
				return nil, fmt.Errorf("oblivious: unknown protocol %d", opts.Protocol)
			}
		}
		cur, next = next, cur
		res.Rounds = round

		full := 0
		for i := 0; i < n; i++ {
			if cur[i].Full() {
				full++
			}
		}
		if res.RoundsHalf < 0 && full*2 >= n {
			res.RoundsHalf = round
			res.MessagesHalf = res.Messages
		}
		if full == n {
			res.RoundsAll = round
			res.MessagesAll = res.Messages
			break
		}
	}
	return res, nil
}
