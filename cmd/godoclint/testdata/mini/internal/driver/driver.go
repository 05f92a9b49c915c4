// Package driver keeps a second bill: a copy of its engine's counters in
// its result, and as a function result. The counters scan reports both.
package driver

import "mini/internal/sim"

// Result carries the copy.
type Result struct{ Stats sim.Counters }

// Run sends one message on e and returns the bill twice.
func Run(e *sim.Engine) (Result, sim.Counters) {
	e.Send()
	return Result{Stats: e.Stats()}, e.Stats()
}
