package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/xrand"
)

var errHooksTrip = errors.New("hooks digest: abort check tripped")

// hooksLinkFault is the digests' hand-written link fault: the pair
// (3, 4) is severed both ways and every link inside nodes 0..15 loses
// half its traffic on top of the uniform loss.
func hooksLinkFault(from, to int) float64 {
	switch {
	case from == 3 && to == 4, from == 4 && to == 3:
		return 1
	case from < 16 && to < 16:
		return 0.5
	}
	return 0
}

// hooksRun drives e through every hook slot the engine offers — link
// fault, a round hook that crashes and revives nodes, the membership,
// phase and round observers, the residual stride, the abort check —
// under Send and ResolveCalls traffic whose calls draw on the per-node
// streams, until the abort check trips. It returns a digest of every
// observed event, every call and reply, every inbox and the final
// counters.
func hooksRun(e *Engine) string {
	n := e.N()
	h := sha256.New()
	traffic := xrand.Derive(0x4f0c, 0x7e57)
	churn := xrand.Derive(0x4f0c, 0xc4a2)
	fmt.Fprintf(h, "seed=%d loss=%v alive=%d faulty=%v;", e.Seed(), e.Loss(), e.NumAlive(), e.Faulty())
	e.SetLinkFault(hooksLinkFault)
	e.SetRoundHook(func(round int) {
		if round%7 == 3 {
			e.Crash(churn.Intn(n))
		}
		if round%11 == 5 {
			e.Revive(churn.Intn(n))
		}
	})
	e.SetMembershipObserver(func(node int, alive bool) {
		fmt.Fprintf(h, "m%d:%d/%v;", e.Round(), node, alive)
	})
	e.SetPhaseObserver(func(p string) { fmt.Fprintf(h, "p%d:%s;", e.Round(), p) })
	e.SetResidualStride(3)
	e.SetRoundObserver(func(round int) {
		if round%3 == 0 {
			fmt.Fprintf(h, "r%d:%+v/%x/%d/%s;", round, e.Stats(), math.Float64bits(e.Residual()), e.NumAlive(), e.Phase())
		}
	})
	e.SetAbortCheck(func(round int) error {
		if round >= 150 {
			return errHooksTrip
		}
		return nil
	}, 5)
	fmt.Fprintf(h, "faulty=%v;", e.Faulty())

	calls := make([]Call, 0, n)
	phases := []string{"drr", "aggregate", "gossip"}
	func() {
		defer func() {
			r := recover()
			ae, ok := r.(*AbortError)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(h, "abort@%d:%v;", e.Round(), errors.Is(ae, errHooksTrip))
		}()
		for round := 0; ; round++ {
			e.SetPhase(phases[round/20%len(phases)]) // fires on changes only
			for k := 0; k < 40; k++ {
				from := traffic.Intn(n)
				e.Send(from, traffic.IntnOther(n, from), Payload{Kind: 1, X: int64(k)})
			}
			e.Send(3, 4, Payload{Kind: 4}) // across the severed pair
			e.Send(4, 3, Payload{Kind: 4})
			calls = calls[:0]
			for i := 0; i < n; i++ {
				if e.Alive(i) && e.RNG(i).Bool(0.5) {
					calls = append(calls, Call{From: i, To: e.RNG(i).IntnOther(n, i), Pay: Payload{Kind: 2, X: int64(i)}})
				}
			}
			e.ResolveCalls(calls,
				func(callee, caller int, req Payload) (Payload, bool) {
					fmt.Fprintf(h, "c%d>%d;", caller, callee)
					return Payload{Kind: 3, X: int64(callee)}, callee%3 != 0
				},
				func(caller int, resp Payload) { fmt.Fprintf(h, "a%d<%d;", caller, resp.X) })
			if e.WantResidual() {
				e.ReportResidual(float64(e.NumAlive()) / float64(round+1))
			}
			e.Tick()
			for i := 0; i < n; i++ {
				for _, m := range e.Inbox(i) {
					fmt.Fprintf(h, "%d<-%d/%d/%d;", i, m.From, m.Pay.Kind, m.Pay.X)
				}
			}
		}
	}()
	fmt.Fprintf(h, "%+v/%d/%v", e.Stats(), e.NumAlive(), e.AliveIDs())
	return hex.EncodeToString(h.Sum(nil))
}

// engineHooksDigest pins hooksRun on a fresh 128-node engine. It was
// recorded before the state and hooks sim.Engine shares with the
// asynchronous engine moved into one embedded core, so it is the
// differential check on that move: membership, loss hashing, link-fault
// compounding, per-node streams, every tap and the watchdog must
// reproduce it bit for bit.
const engineHooksDigest = "5c8311bf2b9748aa967406a54361cd5c83bc902b7334b5454ffa28bc6a42eab0"

func TestEngineHooksDigest(t *testing.T) {
	const n = 128
	opts := Options{Seed: 23, Loss: 0.05, CrashFrac: 0.1}
	if got := hooksRun(NewEngine(n, opts)); got != engineHooksDigest {
		t.Fatalf("fresh engine: hooks digest %s, want %s", got, engineHooksDigest)
	}
	e := NewEngine(n, Options{Seed: 5})
	hooksRun(e)
	e.Reset(opts)
	if got := hooksRun(e); got != engineHooksDigest {
		t.Fatalf("reset engine: hooks digest %s, want %s", got, engineHooksDigest)
	}
}
