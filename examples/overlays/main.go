// Example overlays walks through the pluggable-topology facade: the same
// aggregate computations run unchanged on the paper's complete network,
// on Chord (Section 4's case study), and on any registered sparse
// overlay — torus, hypercube, random regular, small world. It prints a
// per-topology cost table showing the price of sparseness: routed
// root-level gossip pays graph hops for every virtual "call", so rounds
// and messages grow with the overlay's routing diameter while the
// computed values stay identical.
//
// Usage:
//
//	go run ./examples/overlays
package main

import (
	"fmt"
	"os"

	"drrgossip"
)

func main() {
	const n = 1024 // power of two (hypercube), 32×32 (torus), 4-regular OK
	topologies := []drrgossip.Topology{
		drrgossip.Complete,
		drrgossip.Chord,
		drrgossip.Torus,
		drrgossip.Hypercube,
		drrgossip.RandomRegular(4),
		drrgossip.SmallWorld,
	}

	// A synthetic per-node metric: node i reports 50 + (i mod 100).
	values := make([]float64, n)
	for i := range values {
		values[i] = 50 + float64(i%100)
	}
	cfg := drrgossip.Config{N: n, Seed: 42}
	exactAve := exact(cfg, drrgossip.AverageOf(values))
	exactMax := exact(cfg, drrgossip.MaxOf(values))
	exactSum := exact(cfg, drrgossip.SumOf(values))

	fmt.Printf("DRR-gossip over %d nodes — exact: max=%.0f ave=%.2f sum=%.0f\n\n", n, exactMax, exactAve, exactSum)
	fmt.Printf("%-12s %10s %10s %12s %10s %10s %12s\n",
		"topology", "max", "ave", "sum", "trees", "rounds", "msgs/node")

	for _, topo := range topologies {
		nw, err := drrgossip.New(drrgossip.Config{N: n, Seed: 42, Topology: topo})
		fail(err)
		mx, err := nw.Run(drrgossip.MaxOf(values))
		fail(err)
		av, err := nw.Run(drrgossip.AverageOf(values))
		fail(err)
		sm, err := nw.Run(drrgossip.SumOf(values))
		fail(err)
		total := mx.Cost.Add(av.Cost).Add(sm.Cost)
		totalRounds := total.Rounds
		perNode := float64(total.Messages) / float64(n)
		fmt.Printf("%-12s %10.0f %10.2f %12.0f %10d %10d %12.1f\n",
			topo, mx.Value, av.Value, sm.Value, mx.Trees, totalRounds, perNode)
		if !mx.Consensus || !av.Consensus || !sm.Consensus {
			fmt.Fprintf(os.Stderr, "overlays: %s failed to reach consensus\n", topo)
			os.Exit(1)
		}
	}

	fmt.Println("\nEvery topology agrees on the aggregates; sparse overlays pay")
	fmt.Println("routed hops per root-gossip exchange (the rounds/messages gap).")
	fmt.Println("Topology catalog:", drrgossip.TopologyNames())

	// Parameterised specs parse from text, e.g. for CLI flags:
	topo, err := drrgossip.ParseTopology("regular:6")
	fail(err)
	nw, err := drrgossip.New(drrgossip.Config{N: 512, Seed: 7, Topology: topo})
	fail(err)
	res, err := nw.Run(drrgossip.AverageOf(values[:512]))
	fail(err)
	fmt.Printf("\nregular:6 average over 512 nodes = %.2f (%d trees, %d rounds)\n",
		res.Value, res.Trees, res.Cost.Rounds)
}

// exact returns the value q should converge to under cfg.
func exact(cfg drrgossip.Config, q drrgossip.Query) float64 {
	v, err := drrgossip.ExactOf(cfg, q)
	fail(err)
	return v
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlays:", err)
		os.Exit(1)
	}
}
