package gossip

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

// TestPhase3Digests pins every per-root output of Gossip-max and
// Gossip-ave (with the Lemma 8 potential tracked) bit for bit, hashed in
// Roots() order, on relay transports with and without loss and initial
// crashes. A change to how per-root state is stored or iterated must
// leave every digest unchanged.
func TestPhase3Digests(t *testing.T) {
	faults := map[string]sim.Options{
		"lossless": {},
		"loss0.1":  {Loss: 0.1},
		"crash0.2": {CrashFrac: 0.2},
	}
	want := map[string][2]uint64{ // {Max, Ave}
		"n=256/lossless":  {0xe2bd78e05649a76a, 0xd52f6a9a9a5db1c3},
		"n=256/loss0.1":   {0x554e40f2a8cf71e7, 0x342247497a4dba1f},
		"n=256/crash0.2":  {0xb585b1f1e2bc34a8, 0xf6663ac834368393},
		"n=2048/lossless": {0x1f8723fc99a37543, 0xdc87e3353524738b},
		"n=2048/loss0.1":  {0x800cd29f36556006, 0x35e90d98ac9f283a},
		"n=2048/crash0.2": {0xbd30315b9a13b730, 0x6e61b4094393db9c},
	}
	for _, n := range []int{256, 2048} {
		for name, opts := range faults {
			key := fmt.Sprintf("n=%d/%s", n, name)
			opts.Seed = uint64(n) + 40
			eng := sim.NewEngine(n, opts)
			values := agg.GenUniform(n, 0, 1000, uint64(n)+41)
			f, tr, covmax, sums, sizes := phase12(t, eng, values)
			roots := f.Roots()

			before := eng.Stats()
			mres, err := Max(tr, covmax)
			if err != nil {
				t.Fatal(err)
			}
			dm := newDigester()
			for k := range roots {
				dm.f64(mres.Estimates[k], mres.AfterGossip[k])
			}
			dm.counters(eng.Stats().Sub(before))

			before = eng.Stats()
			ares, err := Ave(tr, sums, sizes, AveOptions{TrackRoot: f.LargestRoot(), TrackPotential: true})
			if err != nil {
				t.Fatal(err)
			}
			da := newDigester()
			for k := range roots {
				// The third component was the second-moment sum, 0 here.
				da.f64(ares.Estimates[k], ares.Sums[k], 0, ares.Weights[k])
			}
			da.f64(ares.Trajectory...)
			da.f64(ares.Potential...)
			da.counters(eng.Stats().Sub(before))

			got := [2]uint64{dm.h.Sum64(), da.h.Sum64()}
			if got != want[key] {
				t.Errorf("%s: got {%#x, %#x}, want {%#x, %#x}", key, got[0], got[1], want[key][0], want[key][1])
			}
		}
	}
}
