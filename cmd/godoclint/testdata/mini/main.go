// Command mini is the fixture of the unreferenced-declaration scan.
package main

import (
	"fmt"

	"mini/internal/dead"
)

// main prints Kind through fmt.Stringer, so the scan must skip String.
func main() { fmt.Println(dead.Used()) }
