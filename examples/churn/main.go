// Churn: the dynamic-membership walkthrough. The paper's model crashes
// nodes only before the protocol starts; internal/faults extends the
// testbed with a full fault timeline — mid-run crashes and rejoins,
// Poisson churn, partitions with heal, loss bursts, flaky regions —
// every plan deterministic from the seed. This example runs Average,
// Sum and Max through a catalog of scenarios and prints what survives.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"drrgossip"
	"drrgossip/internal/agg"
)

func main() {
	const n = 2048
	values := agg.GenUniform(n, 0, 1000, 5)
	exactAve := agg.Exact(agg.Average, values, 0)
	exactSum := agg.Exact(agg.Sum, values, 0)
	exactMax := agg.Exact(agg.Max, values, 0)

	scenarios := []struct{ spec, story string }{
		{"none", "healthy baseline"},
		{"crash:0.2@0.5", "datacenter loses 20% of nodes mid-run"},
		{"rack:0.1@0.4..0.8", "one rack down for 40% of the run, then back"},
		{"churn:0.3:60", "P2P churn: 0.3n joins/leaves, 60-round downtime"},
		{"part:2@0.3..0.7", "network splits in two, heals at 70%"},
		{"loss:0.3@0.3..0.7", "loss burst: δ(t) jumps by 0.3 mid-run"},
		{"flaky:0.2:0.5@0.2..0.8", "a fifth of the fleet on a flaky uplink"},
		{"crash:0.25@0.4;rejoin@0.8", "mass crash at 40%, everyone rejoins at 80%"},
	}

	fmt.Printf("fault scenarios on %d nodes (seed-deterministic; see README for the grammar)\n\n", n)
	fmt.Printf("%-28s %7s %8s  %11s  %11s  %11s\n",
		"plan", "alive", "crashes", "ave rel.err", "sum rel.err", "max rel.err")
	for _, sc := range scenarios {
		plan, err := drrgossip.ParseFaultPlan(sc.spec)
		if err != nil {
			log.Fatal(err)
		}
		nw, err := drrgossip.New(drrgossip.Config{N: n, Seed: 77, Faults: plan})
		if err != nil {
			log.Fatalf("%s: %v", sc.spec, err)
		}
		ave, err := nw.Run(drrgossip.AverageOf(values))
		if err != nil {
			log.Fatalf("%s: %v", sc.spec, err)
		}
		sum, err := nw.Run(drrgossip.SumOf(values))
		if err != nil {
			log.Fatalf("%s: %v", sc.spec, err)
		}
		max, err := nw.Run(drrgossip.MaxOf(values))
		if err != nil {
			log.Fatalf("%s: %v", sc.spec, err)
		}
		fmt.Printf("%-28s %7d %8d  %11.2e  %11.2e  %11.2e   %s\n",
			sc.spec, ave.Alive, ave.FaultCrashes,
			agg.RelError(ave.Value, exactAve),
			agg.RelError(sum.Value, exactSum),
			agg.RelError(max.Value, exactMax),
			sc.story)
	}

	fmt.Println("\nEvery run terminates and reports a finite answer: DRR trees repair")
	fmt.Println("around dead nodes (orphans promote to roots), convergecast stops")
	fmt.Println("waiting for the dead, reliable push-sum shares are restored when an")
	fmt.Println("ack times out, and a dead distinguished root is re-elected among the")
	fmt.Println("survivors. Max is the most robust aggregate — any surviving copy of")
	fmt.Println("the maximum wins — while Sum pays the most for partitions, whose")
	fmt.Println("walls stop its mass from mixing.")
}
