// Quickstart: build one session on a simulated 4096-node network and run
// every supported aggregate against it with typed queries, printing the
// cost next to the paper's bounds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"drrgossip"
	"drrgossip/internal/agg"
)

func main() {
	const n = 4096

	// One Network handle: validated once, ready for any number of queries.
	net, err := drrgossip.New(drrgossip.Config{N: n, Seed: 2024})
	if err != nil {
		log.Fatal(err)
	}

	// Every node holds one value; here: uniform in [0, 100).
	values := agg.GenUniform(n, 0, 100, 7)

	fmt.Printf("DRR-gossip on %d nodes (complete topology, no failures)\n\n", n)
	queries := []drrgossip.Query{
		drrgossip.MaxOf(values),
		drrgossip.MinOf(values),
		drrgossip.AverageOf(values),
		drrgossip.SumOf(values),
		drrgossip.CountOf(values),
		drrgossip.RankOf(values, 50),
	}
	logn := math.Log2(n)
	loglogn := math.Log2(logn)
	for _, q := range queries {
		res, err := net.Run(q)
		if err != nil {
			log.Fatalf("%s: %v", q.Op, err)
		}
		exact, err := net.Exact(q)
		if err != nil {
			log.Fatalf("%s: %v", q.Op, err)
		}
		fmt.Printf("%-9s = %12.4f  (exact %12.4f)  rounds=%3d (%4.1f·log n)  msgs/node=%5.1f (%4.1f·loglog n)\n",
			q.Op, res.Value, exact,
			res.Cost.Rounds, float64(res.Cost.Rounds)/logn,
			float64(res.Cost.Messages)/n, float64(res.Cost.Messages)/n/loglogn)
	}

	// Quantiles come from O(log 1/tol) Rank computations — all against
	// the same session.
	q, err := net.Run(drrgossip.QuantileOf(values, 0.95, 0.1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n95th percentile ≈ %.2f (exact %.2f), via %d aggregate runs (converged %v)\n",
		q.Value, agg.Quantile(values, 0.95), q.Cost.Runs, q.Converged)
}
