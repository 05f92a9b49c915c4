package async

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/sim"
	"drrgossip/internal/xrand"
)

var errHooksTrip = errors.New("hooks digest: abort check tripped")

// hooksRun drives e through every hook slot the engine offers — a link
// fault with one severed pair and one lossy region, a fault-tick hook
// that crashes and revives nodes, the membership, phase and round
// observers, residual reports and the abort check — while every alive
// tick exchanges with a partner drawn from the node's own stream, until
// the abort check stops Run. It returns a digest of every exchange and
// observed event and the final counters and clock.
func hooksRun(e *Engine) string {
	n := e.N()
	h := sha256.New()
	churn := xrand.Derive(0x4f0c, 0xc4a2)
	fmt.Fprintf(h, "seed=%d alive=%d;", e.Seed(), e.NumAlive())
	e.SetLinkFault(func(from, to int) float64 {
		switch {
		case from == 3 && to == 4, from == 4 && to == 3:
			return 1
		case from < 16 && to < 16:
			return 0.5
		}
		return 0
	})
	e.SetRoundHook(func(tick int) {
		if tick%1009 == 0 {
			e.Crash(churn.Intn(n))
		}
		if tick%1201 == 0 {
			e.Revive(churn.Intn(n))
		}
	})
	e.SetMembershipObserver(func(node int, alive bool) {
		fmt.Fprintf(h, "m%d:%d/%v;", e.Round(), node, alive)
	})
	e.SetPhaseObserver(func(p string) { fmt.Fprintf(h, "p%d:%s;", e.Round(), p) })
	e.SetRoundObserver(func(events int) {
		if events%50 == 0 {
			fmt.Fprintf(h, "r%d:%+v/%x/%d/%s/%x;", events, e.Stats(),
				math.Float64bits(e.Residual()), e.NumAlive(), e.Phase(), math.Float64bits(e.Now()))
		}
	})
	tripped := false
	e.SetAbortCheck(func(events int) error {
		if events >= 6000 {
			tripped = true
			return errHooksTrip
		}
		return nil
	}, 16)

	// Every SetPhase call changes the label, so the phase events do not
	// depend on whether repeated labels fire.
	phases := []string{"pairwise", "idle"}
	k := 0
	events := e.Run(func(u int) {
		if e.Round()%500 == 0 {
			e.SetPhase(phases[k%2])
			k++
		}
		v := e.RNG(u).IntnOther(n, u)
		if u == 3 {
			v = 4 // across the severed pair
		}
		ok := e.Exchange(u, v)
		fmt.Fprintf(h, "x%d>%d/%v;", u, v, ok)
		if e.Round()%7 == 0 {
			e.ReportResidual(float64(e.NumAlive()) / float64(e.Round()))
		}
	}, func() bool { return false }, 1<<20)
	fmt.Fprintf(h, "end %d/%v/%+v/%d/%x", events, tripped, e.Stats(), e.NumAlive(), math.Float64bits(e.Now()))
	return hex.EncodeToString(h.Sum(nil))
}

// engineHooksDigest pins hooksRun on a 128-node engine. It was recorded
// before the asynchronous engine gave up its own copies of the
// membership, loss, accounting and tap plumbing for the core it shares
// with sim.Engine, so it is the differential check on that move.
const engineHooksDigest = "cfc3662695107bc6bd5061f134ae94c62918e2c88daa03c6ce633dca637b44a0"

func TestEngineHooksDigest(t *testing.T) {
	e := NewEngine(128, sim.Options{Seed: 23, Loss: 0.05, CrashFrac: 0.1})
	if got := hooksRun(e); got != engineHooksDigest {
		t.Fatalf("hooks digest %s, want %s", got, engineHooksDigest)
	}
}
