// Sensorfleet: the paper's sensor-network motivation. A fleet of sensors
// reports battery charge; the operator needs the minimum (when does the
// first sensor die?), the average (fleet health) and how many sensors are
// below a replacement threshold — all computed in-network with
// DRR-gossip, under realistic lossy radio links and a fraction of sensors
// dead on arrival.
//
//	go run ./examples/sensorfleet
package main

import (
	"fmt"
	"log"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/xrand"
)

const (
	fleet     = 8192 // deployed sensors
	doa       = 0.08 // dead-on-arrival fraction (initial crashes)
	radioLoss = 0.10 // per-message radio loss
	threshold = 20.0 // replacement threshold, percent charge
)

func main() {
	// Battery model: most sensors 40-100%, a weak batch near the bottom.
	rng := xrand.New(99)
	charge := make([]float64, fleet)
	for i := range charge {
		if rng.Bool(0.15) {
			charge[i] = 5 + 25*rng.Float64() // weak batch
		} else {
			charge[i] = 40 + 60*rng.Float64()
		}
	}

	nw, err := drrgossip.New(drrgossip.Config{N: fleet, Seed: 31, Loss: radioLoss, CrashFraction: doa})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor fleet: %d deployed, ~%.0f%% dead on arrival, δ=%.2f radio loss\n\n",
		fleet, doa*100, radioLoss)

	// run answers q and also returns the exact value it should converge
	// to over the surviving sensors.
	run := func(q drrgossip.Query) (*drrgossip.Answer, float64) {
		ans, err := nw.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		want, err := nw.Exact(q)
		if err != nil {
			log.Fatal(err)
		}
		return ans, want
	}

	minRes, exactMin := run(drrgossip.MinOf(charge))
	fmt.Printf("weakest live sensor:  %5.1f%% charge (exact %5.1f%%) — consensus: %v\n",
		minRes.Value, exactMin, minRes.Consensus)

	aveRes, exactAve := run(drrgossip.AverageOf(charge))
	fmt.Printf("fleet average:        %5.1f%% charge (exact %5.1f%%, rel.err %.2g)\n",
		aveRes.Value, exactAve, agg.RelError(aveRes.Value, exactAve))

	countRes, _ := run(drrgossip.CountOf(charge))
	fmt.Printf("live sensors:         %5.0f (engine says %d)\n", countRes.Value, countRes.Alive)

	lowRes, _ := run(drrgossip.RankOf(charge, threshold))
	fmt.Printf("below %2.0f%% threshold: %5.0f sensors need replacement\n", threshold, lowRes.Value)

	// The point of DRR-gossip for sensor networks: the message bill.
	total := minRes.Cost.Messages + aveRes.Cost.Messages + countRes.Cost.Messages + lowRes.Cost.Messages
	fmt.Printf("\nradio budget: %d messages total (%.1f per sensor per aggregate)\n",
		total, float64(total)/float64(fleet)/4)
	fmt.Printf("time: min %d / ave %d / count %d / rank %d rounds\n",
		minRes.Cost.Rounds, aveRes.Cost.Rounds, countRes.Cost.Rounds, lowRes.Cost.Rounds)
}
