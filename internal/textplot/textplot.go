// Package textplot draws simple ASCII line charts. It exists to render the
// paper's Figure 4 (evolution of the cooperation level over generations)
// directly in a terminal, with one mark per series and a shared y-axis.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve. Y values are plotted against their index
// (scaled to the chart width), which matches generation-indexed data.
type Series struct {
	Name string
	Y    []float64
}

// Chart collects series and layout options. The zero value plus AddSeries
// is usable; Width/Height default when non-positive.
type Chart struct {
	Title  string
	Width  int // plot area columns (default 70)
	Height int // plot area rows (default 16)
	YMin   float64
	YMax   float64
	FixedY bool // when true, use YMin/YMax instead of autoscaling
	series []Series
}

// Marks used for successive series, in order.
var marks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// AddSeries appends a curve to the chart.
func (c *Chart) AddSeries(name string, y []float64) {
	c.series = append(c.series, Series{Name: name, Y: y})
}

func (c *Chart) bounds() (lo, hi float64) {
	if c.FixedY {
		return c.YMin, c.YMax
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for _, v := range s.Y {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) { // no data
		return 0, 1
	}
	if lo == hi {
		lo -= 0.5
		hi += 0.5
	}
	return lo, hi
}

// Render draws the chart. Each series is resampled onto the plot width by
// nearest-index lookup; later series overdraw earlier ones where they
// collide.
func (c *Chart) Render() string {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 70
	}
	if height <= 0 {
		height = 16
	}
	lo, hi := c.bounds()
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.series {
		mark := marks[si%len(marks)]
		n := len(s.Y)
		if n == 0 {
			continue
		}
		for col := 0; col < width; col++ {
			var idx int
			if width == 1 {
				idx = 0
			} else {
				idx = int(math.Round(float64(col) / float64(width-1) * float64(n-1)))
			}
			v := s.Y[idx]
			if math.IsNaN(v) {
				continue
			}
			frac := (v - lo) / (hi - lo)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			row := int(math.Round((1 - frac) * float64(height-1)))
			grid[row][col] = mark
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	for i, row := range grid {
		var label string
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", hi)
		case height - 1:
			label = fmt.Sprintf("%8.3g", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		sb.WriteString(label)
		sb.WriteString(" |")
		sb.WriteString(strings.TrimRight(string(row), " "))
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", 8))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	// Legend.
	for si, s := range c.series {
		fmt.Fprintf(&sb, "%s %c %s", strings.Repeat(" ", 8), marks[si%len(marks)], s.Name)
		sb.WriteByte('\n')
	}
	return sb.String()
}
