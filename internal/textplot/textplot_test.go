package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	var c Chart
	c.Title = "coop"
	c.AddSeries("case 1", []float64{0, 0.5, 1})
	out := c.Render()
	if !strings.HasPrefix(out, "coop\n") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("missing series mark:\n%s", out)
	}
	if !strings.Contains(out, "case 1") {
		t.Errorf("missing legend:\n%s", out)
	}
}

func TestRenderMultipleSeriesDistinctMarks(t *testing.T) {
	var c Chart
	c.AddSeries("a", []float64{0, 0, 0})
	c.AddSeries("b", []float64{1, 1, 1})
	out := c.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("expected two distinct marks:\n%s", out)
	}
}

func TestRenderEmptyChart(t *testing.T) {
	var c Chart
	out := c.Render()
	if out == "" {
		t.Error("empty chart rendered nothing")
	}
}

func TestRenderConstantSeries(t *testing.T) {
	var c Chart
	c.AddSeries("flat", []float64{2, 2, 2, 2})
	out := c.Render()
	if !strings.Contains(out, "*") {
		t.Errorf("flat series not drawn:\n%s", out)
	}
}

func TestRenderFixedBounds(t *testing.T) {
	c := Chart{YMin: 0, YMax: 1, FixedY: true, Height: 5, Width: 10}
	c.AddSeries("s", []float64{0.5})
	out := c.Render()
	if !strings.Contains(out, "1") {
		t.Errorf("fixed upper bound not labeled:\n%s", out)
	}
	if !strings.Contains(out, "0") {
		t.Errorf("fixed lower bound not labeled:\n%s", out)
	}
}

func TestRenderHandlesNaN(t *testing.T) {
	var c Chart
	c.AddSeries("gap", []float64{0, math.NaN(), 1})
	out := c.Render() // must not panic
	if out == "" {
		t.Error("NaN series rendered nothing")
	}
}

func TestRenderRespectsDimensions(t *testing.T) {
	c := Chart{Width: 20, Height: 4}
	c.AddSeries("s", []float64{0, 1, 2, 3})
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 4 plot rows + 1 axis + 1 legend = 6.
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}
