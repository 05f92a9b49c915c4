package drrgossip

import (
	"fmt"
	"slices"
	"testing"
)

// TestHorizonDependsOnPipelineShape is the differential spec behind
// keying a session's fault bindings by pipeline shape: Min is Max on
// negated values, and Count and Rank are Sum over other payloads, so a
// healthy pre-run of either member of a merged pair measures the same
// horizon, and a fraction-timed plan binds to the same schedule. Average
// ships unacknowledged push-sum shares where Sum ships reliable ones, so
// under loss its horizon differs from Sum's — which is why it keeps a
// binding of its own.
func TestHorizonDependsOnPipelineShape(t *testing.T) {
	const n = 256
	plans := []string{"crash:0.1@0.5", "loss:0.1@0.2..0.8"}
	merged := [][2]Op{{OpMin, OpMax}, {OpCount, OpSum}, {OpRank, OpSum}}
	averageDiffers := false
	for _, topo := range []Topology{Complete, Chord, SmallWorld} {
		for _, loss := range []float64{0, 0.05} {
			for seed := uint64(1); seed <= 4; seed++ {
				label := fmt.Sprintf("%s loss=%v seed=%d", topo, loss, seed)
				nw, err := New(Config{N: n, Seed: seed, Topology: topo, Loss: loss})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				values := uniformValues(n, seed+40)
				horizon := map[Op]int{}
				for _, op := range []Op{OpMax, OpMin, OpSum, OpCount, OpRank, OpAverage} {
					run := []Query{{Op: op, Values: values, Arg: 500}}
					res, err := nw.execOnce(nil, run, nw.dispatch(run))
					if err != nil {
						t.Fatalf("%s: %s pre-run: %v", label, op, err)
					}
					horizon[op] = nw.horizon(&res[0])
				}
				for _, pair := range merged {
					a, b := pair[0], pair[1]
					if horizon[a] != horizon[b] {
						t.Fatalf("%s: %s horizon %d != %s horizon %d", label, a, horizon[a], b, horizon[b])
					}
					for _, spec := range plans {
						plan := mustPlan(t, spec)
						ba, err := plan.Bind(n, seed, horizon[a])
						if err != nil {
							t.Fatal(err)
						}
						bb, err := plan.Bind(n, seed, horizon[b])
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(ba.Rounds(), bb.Rounds()) {
							t.Fatalf("%s plan %s: %s binds rounds %v, %s binds %v",
								label, spec, a, ba.Rounds(), b, bb.Rounds())
						}
					}
				}
				if horizon[OpAverage] != horizon[OpSum] {
					averageDiffers = true
				}
			}
		}
	}
	if !averageDiffers {
		t.Error("Average's horizon matched Sum's on every config; the sweep no longer shows why Average keeps its own binding")
	}
}
