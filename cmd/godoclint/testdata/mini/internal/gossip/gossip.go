// Package gossip ships a value in a payload field and reads values back
// from payloads: the payload scan reports all three uses.
package gossip

import "mini/internal/sim"

// Echo returns what a payload carrying v reads back.
func Echo(v float64) float64 {
	p := sim.Payload{Kind: 1, A: v}
	return p.A + p.B
}
