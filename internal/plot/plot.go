// Package plot renders small ASCII charts for the experiment reports:
// decay curves (Gossip-ave error, Lemma 8 potential) and growth curves
// (messages vs n). Output is deterministic text, suitable for the
// README and terminal harness runs.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Lines renders series as an ASCII chart of the given size. Each series
// is drawn with its own glyph ('a' + index unless names' first runes are
// distinct). X is the sample index; Y is scaled linearly unless logY.
type Chart struct {
	Width, Height int
	LogY          bool
	YLabel        string
	series        []series
}

type series struct {
	name   string
	glyph  byte
	values []float64
}

// New returns a chart with sensible defaults (64x16).
func New(yLabel string, logY bool) *Chart {
	return &Chart{Width: 64, Height: 16, LogY: logY, YLabel: yLabel}
}

// Add appends a named series. Non-positive values are skipped in LogY
// mode.
func (c *Chart) Add(name string, values []float64) {
	glyph := byte('*')
	if len(c.series) > 0 {
		glyph = byte('a' + len(c.series) - 1)
	}
	c.series = append(c.series, series{name: name, glyph: glyph, values: values})
}

// String renders the chart; empty charts render as a note.
func (c *Chart) String() string {
	w, h := c.Width, c.Height
	if w < 8 {
		w = 8
	}
	if h < 4 {
		h = 4
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		if len(s.values) > maxLen {
			maxLen = len(s.values)
		}
		for _, v := range s.values {
			if c.LogY && v <= 0 {
				continue
			}
			y := c.transform(v)
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return "(no data to plot)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range c.series {
		for i, v := range s.values {
			if c.LogY && v <= 0 {
				continue
			}
			x := 0
			if maxLen > 1 {
				x = i * (w - 1) / (maxLen - 1)
			}
			frac := (c.transform(v) - lo) / (hi - lo)
			row := h - 1 - int(math.Round(frac*float64(h-1)))
			grid[row][x] = s.glyph
		}
	}
	var b strings.Builder
	top, bottom := c.untransform(hi), c.untransform(lo)
	fmt.Fprintf(&b, "%s (top %.3g, bottom %.3g%s)\n", c.YLabel, top, bottom, c.scaleName())
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", w) + "+\n")
	var legend []string
	for _, s := range c.series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.glyph, s.name))
	}
	b.WriteString(" " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

func (c *Chart) scaleName() string {
	if c.LogY {
		return ", log scale"
	}
	return ""
}

func (c *Chart) transform(v float64) float64 {
	if c.LogY {
		return math.Log10(v)
	}
	return v
}

func (c *Chart) untransform(y float64) float64 {
	if c.LogY {
		return math.Pow(10, y)
	}
	return y
}
