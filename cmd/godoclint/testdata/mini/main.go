// Command mini is the fixture of the unreferenced-declaration, counters
// and payload scans.
package main

import (
	"fmt"

	"mini/internal/dead"
	"mini/internal/driver"
	"mini/internal/gossip"
	"mini/internal/sim"
)

// main prints Kind through fmt.Stringer, so the scan must skip String.
func main() {
	fmt.Println(dead.Used())
	fmt.Println(driver.Run(new(sim.Engine)))
	fmt.Println(gossip.Echo(1), driver.Value(sim.Payload{}))
}
