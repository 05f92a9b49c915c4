// Lossylinks: robustness sweep. The paper's failure model allows every
// message to be dropped independently with probability δ < 1/8; this
// example sweeps δ past that bound and shows what degrades (nothing
// catastrophically: Max stays exact, Average drifts gently, the message
// bill inflates by roughly 1/(1-2δ)).
//
//	go run ./examples/lossylinks
package main

import (
	"fmt"
	"log"

	"drrgossip"
	"drrgossip/internal/agg"
)

func main() {
	const n = 4096
	values := agg.GenUniform(n, 0, 1000, 3)

	fmt.Printf("δ sweep on %d nodes (paper admits δ < 1/8 = 0.125)\n\n", n)
	fmt.Printf("%8s  %10s  %12s  %10s  %8s  %10s\n",
		"δ", "max ok", "ave rel.err", "consensus", "rounds", "msgs/node")
	for _, delta := range []float64{0, 0.02, 0.05, 0.08, 0.125, 0.2} {
		nw, err := drrgossip.New(drrgossip.Config{N: n, Seed: 1000 + uint64(delta*1000), Loss: delta})
		if err != nil {
			log.Fatal(err)
		}

		maxRes, err := nw.Run(drrgossip.MaxOf(values))
		if err != nil {
			log.Fatal(err)
		}
		maxOK := maxRes.Value == exact(nw, drrgossip.MaxOf(values))

		aveRes, err := nw.Run(drrgossip.AverageOf(values))
		if err != nil {
			log.Fatal(err)
		}
		relErr := agg.RelError(aveRes.Value, exact(nw, drrgossip.AverageOf(values)))

		marker := ""
		if delta > 0.125 {
			marker = "  <- beyond the paper's bound"
		}
		fmt.Printf("%8.3f  %10v  %12.2e  %10v  %8d  %10.1f%s\n",
			delta, maxOK, relErr, maxRes.Consensus && aveRes.Consensus,
			maxRes.Cost.Rounds, float64(maxRes.Cost.Messages)/float64(n), marker)
	}
	fmt.Println("\nMax is exact under any admissible δ (convergecast retransmits, the")
	fmt.Println("sampling procedure repairs stragglers); Average degrades smoothly")
	fmt.Println("because lost push-sum shares remove (s, g) mass proportionally.")
}

// exact returns the value q should converge to on nw's configuration.
func exact(nw *drrgossip.Network, q drrgossip.Query) float64 {
	v, err := nw.Exact(q)
	if err != nil {
		log.Fatal(err)
	}
	return v
}
