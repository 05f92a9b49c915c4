package gossip

import (
	"testing"

	"drrgossip/internal/chord"
	"drrgossip/internal/drr"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

func TestClimbPath(t *testing.T) {
	n := 256
	ring, err := chord.New(n, chord.Options{Bits: 30})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(n, sim.Options{Seed: 68})
	res, err := drr.RunLocal(eng, overlay.NewChord(ring).Graph(), drr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forest
	for i := 0; i < n; i++ {
		p := appendClimb(nil, f, i)
		if f.IsRoot(i) {
			if len(p) != 0 {
				t.Fatalf("root %d has climb path %v", i, p)
			}
			continue
		}
		if len(p) != f.Depth(i) {
			t.Fatalf("node %d climb length %d, depth %d", i, len(p), f.Depth(i))
		}
		if p[len(p)-1] != f.RootOf(i) {
			t.Fatalf("node %d climb ends at %d, root %d", i, p[len(p)-1], f.RootOf(i))
		}
	}
}
