// Package driver keeps a second bill: a copy of its engine's counters in
// its result, and as a function result. The counters scan reports both.
// It also reads a payload value, which the payload scan, confined to the
// Phase II and III drivers, does not report.
package driver

import "mini/internal/sim"

// Result carries the copy.
type Result struct{ Stats sim.Counters }

// Run sends one message on e and returns the bill twice.
func Run(e *sim.Engine) (Result, sim.Counters) {
	e.Send()
	return Result{Stats: e.Stats()}, e.Stats()
}

// Value reads a payload's value.
func Value(p sim.Payload) float64 { return p.C }
