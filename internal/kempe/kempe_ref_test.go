package kempe

import (
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/chord"
	"drrgossip/internal/faults"
	"drrgossip/internal/sim"
)

const (
	refKindShare uint8 = 0x51
	refKindMax   uint8 = 0x52
)

// refResult is Result as the reference drivers return it, with the
// run's counters; the live drivers leave the bill to the engine.
type refResult struct {
	Estimates []float64
	S, W      []float64
	Stats     sim.Counters
}

func refCeilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

func refInflate(base int, eng *sim.Engine) int {
	alive := float64(eng.NumAlive()) / float64(eng.N())
	loss := eng.Loss()
	if loss > 0.45 {
		loss = 0.45
	}
	return int(math.Ceil(float64(base)/((1-2*loss)*alive))) + 1
}

// refPushSum is PushSum as it was while the package kept its own
// push-sum loop, kept verbatim as the differential reference except for
// its Options argument, whose only field no caller set.
func refPushSum(eng *sim.Engine, values []float64) (*refResult, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kempe: %d values for %d nodes", len(values), eng.N())
	}
	n := eng.N()
	rounds := refInflate(4*refCeilLog2(n)+24, eng)
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
				eng.Send(i, target, sim.Payload{Kind: refKindShare}) // failed call attempt
				continue
			}
			s[i] /= 2
			w[i] /= 2
			eng.Send(i, target, sim.Payload{Kind: refKindShare, A: s[i], B: w[i]})
		}
		eng.Tick()
		for i := 0; i < n; i++ {
			if !eng.Alive(i) {
				continue
			}
			for _, m := range eng.Inbox(i) {
				if m.Pay.Kind == refKindShare {
					s[i] += m.Pay.A
					w[i] += m.Pay.B
				}
			}
		}
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
	return &refResult{Estimates: est, S: s, W: w, Stats: eng.Stats().Sub(start)}, nil
}

// refPushMaxOnChord is PushMaxOnChord as it was while the package kept
// its own routed push loop, verbatim except for the Options argument.
func refPushMaxOnChord(eng *sim.Engine, ring *chord.Ring, values []float64) (*refResult, error) {
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
	iters := refInflate(2*refCeilLog2(n)+12, eng)
	ticks := 2*refCeilLog2(n) + 2
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
			eng.SendRouted(i, path, sim.Payload{Kind: refKindMax, A: est[i]})
		}
		for k := 0; k < ticks; k++ {
			eng.Tick()
			for i := 0; i < n; i++ {
				for _, m := range eng.Inbox(i) {
					if m.Pay.Kind == refKindMax && m.Pay.A > est[i] {
						est[i] = m.Pay.A
					}
				}
			}
		}
	}
	return &refResult{Estimates: est, Stats: eng.Stats().Sub(start)}, nil
}

// uniformCase is one differential run: the baseline (PushSum, or
// PushMaxOnChord when chord is set) on an n-node engine built from opts,
// with the fault plan spec replayed over a horizon of the run's base
// round budget.
type uniformCase struct {
	n     int
	chord bool
	opts  sim.Options
	spec  string
}

func (c uniformCase) String() string {
	name := "pushsum"
	if c.chord {
		name = "chordmax"
	}
	return fmt.Sprintf("%s/n=%d/seed=%d/loss=%g/crash=%g/plan=%q", name, c.n, c.opts.Seed, c.opts.Loss, c.opts.CrashFrac, c.spec)
}

// diffUniform runs the live baseline and its reference on twin engines
// and demands bit-identical outcomes: the error, every estimate, S and
// W, the run's counters, then identical engine state. It reports false
// without comparing when the case cannot be run: a plan that does not
// parse or bind, or a chord case whose plan crashed a node (a crashed
// node kept drawing samples in the reference, and no caller runs the
// chord baseline under a fault plan).
func diffUniform(t *testing.T, c uniformCase) bool {
	t.Helper()
	plan, err := faults.Parse(c.spec)
	if err != nil {
		return false
	}
	b, err := plan.Bind(c.n, c.opts.Seed, 4*refCeilLog2(c.n)+24)
	if err != nil {
		return false
	}
	engs := [2]*sim.Engine{sim.NewEngine(c.n, c.opts), sim.NewEngine(c.n, c.opts)}
	var replays [2]*faults.Replay
	for k, eng := range engs {
		replays[k] = b.Attach(eng)
	}
	values := agg.GenSigned(c.n, 100, c.opts.Seed+1)
	var got *Result
	var want *refResult
	var gotErr, wantErr error
	before := engs[0].Stats()
	if c.chord {
		ring := chord.MustNew(c.n, chord.Options{Bits: 30})
		got, gotErr = PushMaxOnChord(engs[0], ring, values)
		want, wantErr = refPushMaxOnChord(engs[1], ring, values)
		if replays[1].Crashed() > 0 {
			return false
		}
	} else {
		got, gotErr = PushSum(engs[0], values)
		want, wantErr = refPushSum(engs[1], values)
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%v: error %v, want %v", c, gotErr, wantErr)
	}
	if gotErr != nil {
		return true
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%v: %d %s, want %d", c, len(a), what, len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%v: node %d %s %v, want %v", c, i, what, a[i], b[i])
			}
		}
	}
	same("estimate", got.Estimates, want.Estimates)
	same("S", got.S, want.S)
	same("W", got.W, want.W)
	if stats := engs[0].Stats().Sub(before); stats != want.Stats {
		t.Fatalf("%v: stats %+v, want %+v", c, stats, want.Stats)
	}
	if a, b := engs[0].NumAlive(), engs[1].NumAlive(); a != b {
		t.Fatalf("%v: alive %d, want %d", c, a, b)
	}
	// The loss sequence ends in the same place: one more lossy send per
	// node must share its fate on both.
	for i := 0; i < c.n; i++ {
		for _, eng := range engs {
			eng.Send(i, (i+1)%c.n, sim.Payload{})
		}
	}
	if a, b := engs[0].Stats(), engs[1].Stats(); a != b {
		t.Fatalf("%v: counters after a trailing send %+v, want %+v", c, a, b)
	}
	return true
}

// uniformPlans are the fault plans the table test replays under
// PushSum: a mid-run crash, Poisson churn with rejoins, a partition and
// a loss burst.
var uniformPlans = []string{"crash:0.2@0.5", "churn:0.3:10", "part:2@0.2..0.7", "loss:0.3@0.1..0.6"}

// TestUniformGossipMatchesReference compares PushSum and PushMaxOnChord
// with refPushSum and refPushMaxOnChord, the loops they replaced: PushSum
// over sizes, loss rates, initial crashes and seeds, then under each
// fault plan with and without initial crashes; PushMaxOnChord over
// sizes, loss rates and seeds.
func TestUniformGossipMatchesReference(t *testing.T) {
	var cases []uniformCase
	for _, n := range []int{64, 1000, 2048} {
		for _, loss := range []float64{0, 0.05} {
			for _, crash := range []float64{0, 0.25} {
				for seed := uint64(1); seed <= 4; seed++ {
					cases = append(cases, uniformCase{n: n, opts: sim.Options{Seed: seed, Loss: loss, CrashFrac: crash}})
				}
			}
		}
	}
	for i, spec := range uniformPlans {
		for _, crash := range []float64{0, 0.25} {
			cases = append(cases, uniformCase{n: 1000, spec: spec, opts: sim.Options{Seed: uint64(10 + i), Loss: 0.05, CrashFrac: crash}})
		}
	}
	for _, n := range []int{64, 512, 1024} {
		for _, loss := range []float64{0, 0.05} {
			for seed := uint64(1); seed <= 3; seed++ {
				cases = append(cases, uniformCase{n: n, chord: true, opts: sim.Options{Seed: seed, Loss: loss}})
			}
		}
	}
	for _, c := range cases {
		if !diffUniform(t, c) {
			t.Fatalf("%v: case not run", c)
		}
	}
}

// FuzzUniformGossipMatchesReference runs the same comparison on fuzzed
// sizes, seeds, loss rates, initial crashes and fault plans.
func FuzzUniformGossipMatchesReference(f *testing.F) {
	specs := append([]string{"", "rejoin@0.3", "crash:0.1@0.2..0.4;rejoin:0.5@0.6"}, uniformPlans...)
	for i, spec := range specs {
		for _, chord := range []bool{false, true} {
			f.Add(chord, uint16(30+37*i), uint64(i), uint8(i%3*13), uint8(i%5), spec)
		}
	}
	f.Fuzz(func(t *testing.T, chord bool, size uint16, seed uint64, loss, crash uint8, spec string) {
		c := uniformCase{n: 2 + int(size)%400, chord: chord, spec: spec,
			opts: sim.Options{Seed: seed, Loss: float64(loss%32) / 256, CrashFrac: float64(crash%5) / 20}}
		if chord {
			c.opts.CrashFrac = 0 // the chord baseline requires every node alive
		}
		diffUniform(t, c)
	})
}
