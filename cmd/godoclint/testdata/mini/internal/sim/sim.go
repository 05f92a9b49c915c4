// Package sim stands in for the engine: its Counters is the bill that
// only this package and telemetry may carry, and its Payload the message
// body whose value fields the Phase II and III drivers may not use.
package sim

// Counters is the engine's bill.
type Counters struct{ Messages int64 }

// Engine counts what it sends.
type Engine struct{ c Counters }

// Send bills one message.
func (e *Engine) Send() { e.c.Messages++ }

// Stats returns the bill; the scan allows it here.
func (e *Engine) Stats() Counters { return e.c }

// Payload is a message body.
type Payload struct {
	Kind    uint8
	A, B, C float64
}
