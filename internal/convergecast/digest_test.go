package convergecast

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/sim"
)

// digester hashes float64s and counters bit for bit.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(xs ...float64) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d *digester) counters(c sim.Counters) {
	for _, x := range []int64{int64(c.Rounds), c.Messages, c.Drops, c.Blocked, c.Calls} {
		d.u64(uint64(x))
	}
}

// TestPhase2Digests pins Max, Sum and Moments per-root outputs (hashed
// in Roots() order) and the per-node BroadcastValue result bit for bit,
// with their costs, with and without loss and initial crashes, and under
// mid-run membership changes: in the "midcrash" row a round hook crashes
// a fixed set of non-root members two rounds into each phase, and in the
// "rejoin" row it revives them two rounds later. A change to how
// per-root state is stored or iterated, or to how a phase tracks who
// still owes a delivery, must leave every digest unchanged.
func TestPhase2Digests(t *testing.T) {
	faults := map[string]sim.Options{
		"lossless": {},
		"loss0.1":  {Loss: 0.1},
		"crash0.2": {CrashFrac: 0.2},
		"midcrash": {Loss: 0.05},
		"rejoin":   {Loss: 0.05},
	}
	want := map[string]uint64{
		"n=256/lossless":  0x6fe31b1210f0adf7,
		"n=256/loss0.1":   0xca7e57e3760dd2a3,
		"n=256/crash0.2":  0x5233c037d7e00d4c,
		"n=256/midcrash":  0x0b12a32d9b6d3c52,
		"n=256/rejoin":    0x6a66d05dc88d3dfc,
		"n=2048/lossless": 0xab7219ff3fb76c89,
		"n=2048/loss0.1":  0x69c5203fe7b543e1,
		"n=2048/crash0.2": 0xfff4950959e5947e,
		"n=2048/midcrash": 0xd4b98e1622c30c32,
		"n=2048/rejoin":   0x49960ce1a46406b6,
	}
	for _, n := range []int{256, 2048} {
		for name, opts := range faults {
			key := fmt.Sprintf("n=%d/%s", n, name)
			opts.Seed = uint64(n) + 50
			eng := sim.NewEngine(n, opts)
			f := buildForest(t, eng)
			values := agg.GenUniform(n, -500, 500, uint64(n)+51)
			// arm installs the row's membership changes for the phase
			// about to start: every non-root member i with i%7 == salt
			// crashes two rounds in and, in the "rejoin" row, revives two
			// rounds after that.
			const crashIn, reviveIn = 2, 4
			arm := func(salt int) {
				if name != "midcrash" && name != "rejoin" {
					return
				}
				at := eng.Round()
				eng.SetRoundHook(func(round int) {
					for i := 0; i < n; i++ {
						if !f.Member(i) || f.IsRoot(i) || i%7 != salt {
							continue
						}
						switch {
						case round == at+crashIn:
							eng.Crash(i)
						case round == at+reviveIn && name == "rejoin":
							eng.Revive(i)
						}
					}
				})
			}
			// spans fails the row when a phase ended before its last
			// membership change: the row then pins nothing mid-run.
			spans := func(stats sim.Counters) {
				last := map[string]int{"midcrash": crashIn, "rejoin": reviveIn}[name]
				if stats.Rounds < last {
					t.Fatalf("%s: phase ended after %d rounds, before its round-%d membership change", key, stats.Rounds, last)
				}
			}
			d := newDigester()

			arm(1)
			before := eng.Stats()
			mx, err := new(Scratch).Max(eng, f, values)
			stats := eng.Stats().Sub(before)
			if err != nil {
				t.Fatal(err)
			}
			spans(stats)
			for _, v := range mx {
				d.f64(v)
			}
			d.counters(stats)
			// Sum over one lane, then Moments: Sum over v and v². Each root
			// hashes as (Σv, Σv², size), Σv² 0 for the one-lane sum.
			for k, in := range [][]float64{values, momentLanes(values)} {
				arm(3 + k)
				before := eng.Stats()
				sums, sizes, err := new(Scratch).Sum(eng, f, in)
				stats := eng.Stats().Sub(before)
				if err != nil {
					t.Fatal(err)
				}
				spans(stats)
				m := len(sizes)
				for j, size := range sizes {
					sum2 := 0.0
					if len(sums) > m {
						sum2 = sums[m+j]
					}
					d.f64(sums[j], sum2, size)
				}
				d.counters(stats)
			}
			perRoot := make([]float64, len(mx))
			for k, v := range mx {
				perRoot[k] = v / 3
			}
			arm(6)
			before = eng.Stats()
			bc, err := new(Scratch).BroadcastValue(eng, f, perRoot, nil)
			stats = eng.Stats().Sub(before)
			if err != nil {
				t.Fatal(err)
			}
			spans(stats)
			d.f64(bc...)
			d.counters(stats)

			if got := d.h.Sum64(); got != want[key] {
				t.Errorf("%s: got %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// TestBroadcastDigests pins the per-node outputs of BroadcastRootAddr
// and BroadcastValue bit for bit, with their costs, lossless, lossy,
// under initial crashes and under mid-run crashes: in the "midcrash"
// row a round hook crashes a fixed set of non-root members a few rounds
// into each broadcast, so some subtrees go unserved. A change to how
// the broadcast stores or derives what a reached node holds must leave
// every digest unchanged.
func TestBroadcastDigests(t *testing.T) {
	faults := map[string]sim.Options{
		"lossless": {},
		"loss0.1":  {Loss: 0.1},
		"crash0.2": {CrashFrac: 0.2},
		"midcrash": {Loss: 0.05},
	}
	want := map[string]uint64{
		"n=256/lossless":  0xa9275c807f324f4a,
		"n=256/loss0.1":   0x67145e32f86117cd,
		"n=256/crash0.2":  0x789be15a63404b76,
		"n=256/midcrash":  0x813c852d00263d2c,
		"n=2048/lossless": 0xfa42253dfd81e7b1,
		"n=2048/loss0.1":  0x6b06fc77307eccd6,
		"n=2048/crash0.2": 0xba484c9b64d30775,
		"n=2048/midcrash": 0x60117ea69b6721d6,
	}
	for _, n := range []int{256, 2048} {
		for name, opts := range faults {
			key := fmt.Sprintf("n=%d/%s", n, name)
			opts.Seed = uint64(n) + 70
			eng := sim.NewEngine(n, opts)
			f := buildForest(t, eng)
			values := agg.GenUniform(n, -500, 500, uint64(n)+71)
			// crashAt arms the hook to crash every non-root member i with
			// i%7 == salt, three rounds into the phase that follows.
			crashAt := func(salt int) {
				if name != "midcrash" {
					return
				}
				at := eng.Round() + 3
				eng.SetRoundHook(func(round int) {
					if round != at {
						return
					}
					for i := 0; i < n; i++ {
						if f.Member(i) && !f.IsRoot(i) && i%7 == salt {
							eng.Crash(i)
						}
					}
				})
			}
			d := newDigester()

			crashAt(2)
			before := eng.Stats()
			addr, err := new(Scratch).BroadcastRootAddr(eng, f)
			stats := eng.Stats().Sub(before)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addr {
				d.u64(uint64(int64(a)))
			}
			d.counters(stats)

			before = eng.Stats()
			sums, sizes, err := new(Scratch).Sum(eng, f, values)
			stats = eng.Stats().Sub(before)
			if err != nil {
				t.Fatal(err)
			}
			d.counters(stats)
			perRoot := make([]float64, len(sums))
			for k, v := range sums {
				perRoot[k] = v / sizes[k]
			}
			crashAt(5)
			before = eng.Stats()
			bc, err := new(Scratch).BroadcastValue(eng, f, perRoot, nil)
			stats = eng.Stats().Sub(before)
			if err != nil {
				t.Fatal(err)
			}
			d.f64(bc...)
			d.counters(stats)

			if name == "midcrash" {
				// The row is only a spec if the crashes cut subtrees off.
				unreached := 0
				for i, a := range addr {
					if f.Member(i) && a < 0 {
						unreached++
					}
				}
				if unreached == 0 {
					t.Fatalf("%s: mid-run crashes left every member reached", key)
				}
			}
			if got := d.h.Sum64(); got != want[key] {
				t.Errorf("%s: got %#x, want %#x", key, got, want[key])
			}
		}
	}
}
