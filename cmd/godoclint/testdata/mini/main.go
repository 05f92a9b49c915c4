// Command mini is the fixture of the unreferenced-declaration and
// counters scans.
package main

import (
	"fmt"

	"mini/internal/dead"
	"mini/internal/driver"
	"mini/internal/sim"
)

// main prints Kind through fmt.Stringer, so the scan must skip String.
func main() {
	fmt.Println(dead.Used())
	fmt.Println(driver.Run(new(sim.Engine)))
}
