// P2PChord: the paper's peer-to-peer motivation on its Section 4 sparse
// topology. Peers in a Chord overlay store files; the system designer
// wants the average and maximum files-per-peer without all-to-all
// connectivity. DRR-gossip runs Local-DRR over finger links and routes
// root gossip through the overlay (Theorem 14: O(log^2 n) time,
// O(n log n) messages — a log n factor fewer messages than uniform
// gossip on the same overlay).
//
//	go run ./examples/p2pchord
package main

import (
	"fmt"
	"log"
	"math"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/xrand"
)

func main() {
	const peers = 2048
	// File counts: a Zipf-ish long tail — most peers store little, a few
	// store a lot.
	rng := xrand.New(512)
	files := make([]float64, peers)
	for i := range files {
		u := rng.Float64()
		files[i] = math.Floor(5 / (0.02 + u*u)) // heavy tail, max ~250
	}

	nw, err := drrgossip.New(drrgossip.Config{N: peers, Seed: 77, Topology: drrgossip.Chord})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chord overlay: %d peers, finger-table degree O(log n)\n\n", peers)

	ave, err := nw.Run(drrgossip.AverageOf(files))
	if err != nil {
		log.Fatal(err)
	}
	exactAve, err := nw.Exact(drrgossip.AverageOf(files))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("avg files/peer: %8.2f  (exact %8.2f, rel.err %.2g)\n",
		ave.Value, exactAve, agg.RelError(ave.Value, exactAve))

	max, err := nw.Run(drrgossip.MaxOf(files))
	if err != nil {
		log.Fatal(err)
	}
	exactMax, err := nw.Exact(drrgossip.MaxOf(files))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max files/peer: %8.0f  (exact %8.0f) — consensus: %v\n",
		max.Value, exactMax, max.Consensus)

	logn := math.Log2(peers)
	fmt.Printf("\ncost on the overlay (Theorem 14):\n")
	fmt.Printf("  average: %5d rounds (%4.1f·log² n), %7d messages (%4.1f·n·log n)\n",
		ave.Cost.Rounds, float64(ave.Cost.Rounds)/(logn*logn), ave.Cost.Messages,
		float64(ave.Cost.Messages)/(float64(peers)*logn))
	fmt.Printf("  max:     %5d rounds (%4.1f·log² n), %7d messages (%4.1f·n·log n)\n",
		max.Cost.Rounds, float64(max.Cost.Rounds)/(logn*logn), max.Cost.Messages,
		float64(max.Cost.Messages)/(float64(peers)*logn))
	fmt.Printf("  (uniform gossip on the same overlay needs Θ(n·log² n) messages;\n")
	fmt.Printf("   run `go run ./cmd/benchtab -experiment F11` for the side-by-side sweep)\n")
}
