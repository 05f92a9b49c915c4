// Package karp implements randomized rumor spreading with the
// median-counter termination rule of Karp, Schindelhauer, Shenker and
// Vöcking (FOCS 2000): push-pull gossip where every player keeps a
// counter that climbs once the rumor has saturated the network, after
// which the player stops transmitting.
//
// Contract: O(log n) rounds and O(n log log n) rumor transmissions,
// address-obliviously. The F12 experiment runs it next to the
// address-oblivious aggregate lower bound (internal/oblivious) to exhibit
// the paper's separation: spreading one rumor is strictly cheaper than
// computing an aggregate in the address-oblivious model.
//
// Accounting note: Karp et al. count transmissions of the rumor;
// establishing a connection is free in their model. Result.Transmissions
// is therefore the paper-comparable metric; the engine's message
// counter (sim.Core.Stats) bills every call as well.
package karp

import (
	"fmt"
	"math"

	"drrgossip/internal/sim"
)

// Result reports a rumor-spreading run.
type Result struct {
	// RoundsToAllInformed is the first round at which every alive node
	// knew the rumor (-1 if never).
	RoundsToAllInformed int
	// Rounds is the total rounds until the protocol quiesced.
	Rounds int
	// Transmissions counts rumor transmissions (push and pull answers),
	// the Karp et al. complexity metric.
	Transmissions int64
	// Informed is the number of informed alive nodes at the end.
	Informed    int
	AllInformed bool
}

const kindExchange uint8 = 0x71

// counterMax is the counter value at which a player stops transmitting:
// ceil(log2 log2 n) + 4.
func counterMax(n int) int {
	loglog := math.Ceil(math.Log2(math.Log2(float64(n))))
	if loglog < 1 {
		loglog = 1
	}
	return int(loglog) + 4
}

// maxRounds bounds the run: 6 log2 n + 30, loss-inflated.
func maxRounds(n int, loss float64) int {
	base := 6*int(math.Ceil(math.Log2(float64(n)))) + 30
	if loss > 0 {
		base = int(float64(base)/(1-2*math.Min(loss, 0.4))) + 1
	}
	return base
}

// Spread spreads a rumor from source to all nodes. The source must be
// alive.
func Spread(eng *sim.Engine, source int) (*Result, error) {
	n := eng.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("karp: source %d out of range", source)
	}
	if !eng.Alive(source) {
		return nil, fmt.Errorf("karp: source %d crashed", source)
	}
	ctMax := counterMax(n)
	budget := maxRounds(n, eng.Loss())

	informed := make([]bool, n)
	ctr := make([]int, n)
	informed[source] = true
	var transmissions int64
	res := &Result{RoundsToAllInformed: -1}

	active := func(i int) bool { return informed[i] && ctr[i] < ctMax }
	// encode packs a node's state into a payload.
	encode := func(i int, kind uint8) sim.Payload {
		inf := int64(0)
		if informed[i] {
			inf = 1
		}
		return sim.Payload{Kind: kind, X: inf, Y: int64(ctr[i])}
	}

	round := 0
	for ; round < budget; round++ {
		anyActive := false
		calls := eng.CallSlots()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			if active(i) {
				anyActive = true
			}
			// Every player calls a random partner each round (push-pull);
			// transmitting the rumor within the call is what costs.
			calls = append(calls, sim.Call{From: i, To: eng.RNG(i).IntnOther(n, i), Pay: encode(i, kindExchange)})
		}
		if !anyActive {
			break
		}
		eng.Tick()
		learn := make(map[int]bool)
		sawGE := make(map[int]bool)
		eng.ResolveCalls(calls,
			func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
				callerInformed := req.X == 1
				callerCtr := int(req.Y)
				callerActive := callerInformed && callerCtr < ctMax
				// Push: an active caller transmits the rumor (this is
				// what Karp et al. count); the callee learns from it.
				if callerActive {
					transmissions++
					if !informed[callee] {
						learn[callee] = true
					}
				}
				// State exchange is free on an established connection, so
				// counters keep climbing even against stopped players —
				// without this, the last active stragglers could never
				// meet a peer of equal counter and would never quiesce.
				if callerInformed && informed[callee] && callerCtr >= ctr[callee] {
					sawGE[callee] = true
				}
				// Pull: an active callee answers an *uninformed* caller
				// with the rumor (the request carries the caller's state,
				// so no rumor is wasted on informed requesters — pushes,
				// in contrast, are blind). Its state rides along for free
				// either way.
				pay := encode(callee, kindExchange)
				if active(callee) && !callerInformed {
					transmissions++
					pay.A = 1 // rumor included
				}
				return pay, true
			},
			func(caller int, resp sim.Payload) {
				calleeInformed := resp.X == 1
				calleeCtr := int(resp.Y)
				if resp.A == 1 && !informed[caller] {
					learn[caller] = true
				}
				if calleeInformed && informed[caller] && calleeCtr >= ctr[caller] {
					sawGE[caller] = true
				}
			})
		// Apply state transitions after the exchange (synchronous rounds:
		// everyone acted on round-start state; at most one counter
		// increment per node per round, as in the median rule).
		for node := range learn {
			if !informed[node] {
				informed[node] = true
				ctr[node] = 1
			}
		}
		for node := range sawGE {
			if informed[node] && !learn[node] {
				ctr[node]++
			}
		}
		if res.RoundsToAllInformed < 0 {
			all := true
			for i := 0; i < n; i++ {
				if eng.Alive(i) && !informed[i] {
					all = false
					break
				}
			}
			if all {
				res.RoundsToAllInformed = round + 1
			}
		}
	}

	for i := 0; i < n; i++ {
		if eng.Alive(i) && informed[i] {
			res.Informed++
		}
	}
	res.Rounds = round
	res.Transmissions = transmissions
	res.AllInformed = res.Informed == eng.NumAlive()
	return res, nil
}
