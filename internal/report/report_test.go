package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 42)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Demo", "name", "alpha", "1.5", "beta", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows = 5 lines.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// All table lines equal width.
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("ragged table:\n%s", out)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(1e-9)
	tb.AddRow(123456789.0)
	tb.AddRow(float32(2.5))
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "0") || !strings.Contains(out, "e-09") ||
		!strings.Contains(out, "e+08") || !strings.Contains(out, "2.5") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
}

func TestChartRender(t *testing.T) {
	c := NewChart("Accuracy vs BER", "BER", "acc")
	c.LogX = true
	c.Add("baseline", []float64{1e-9, 1e-7, 1e-5, 1e-3}, []float64{0.9, 0.89, 0.87, 0.8})
	c.Add("improved", []float64{1e-9, 1e-7, 1e-5, 1e-3}, []float64{0.9, 0.9, 0.89, 0.89})
	var buf bytes.Buffer
	c.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Accuracy vs BER") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "*=baseline") || !strings.Contains(out, "o=improved") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("markers missing from grid")
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("Empty", "x", "y")
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty chart should say so")
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// A constant-valued series: both ranges are zero-width and must be
	// clamped, with the marker landing inside the grid.
	c := NewChart("Flat", "x", "y")
	c.Add("s", []float64{1, 1, 1}, []float64{2, 2, 2})
	var buf bytes.Buffer
	c.Render(&buf) // must not panic or divide by zero
	if !strings.Contains(buf.String(), "*") {
		t.Errorf("constant series lost its markers:\n%s", buf.String())
	}
}

func TestChartSinglePoint(t *testing.T) {
	c := NewChart("One", "x", "y")
	c.Add("s", []float64{3}, []float64{0.5})
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "*") {
		t.Errorf("single-point series lost its marker:\n%s", buf.String())
	}
}

func TestChartEmptySeries(t *testing.T) {
	// A series with no points must not poison the range math of a real
	// series rendered next to it (±Inf ranges previously produced
	// garbage column/row projections for every marker).
	c := NewChart("Mixed", "x", "y")
	c.Add("empty", nil, nil)
	c.Add("real", []float64{0, 1, 2}, []float64{1, 2, 3})
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "o") {
		t.Errorf("real series lost its markers next to an empty one:\n%s", buf.String())
	}

	// Only empty series: no finite point at all, so say "no data"
	// instead of rendering a grid from infinite ranges.
	c2 := NewChart("AllEmpty", "x", "y")
	c2.Add("empty", nil, nil)
	buf.Reset()
	c2.Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Errorf("all-empty chart should say no data:\n%s", buf.String())
	}
}

func TestChartLogXNonPositive(t *testing.T) {
	// log10(0) is -Inf: the zero-x point must be skipped, not drag xmin
	// to -Inf and blank the whole chart.
	c := NewChart("Log", "x", "y")
	c.LogX = true
	c.Add("s", []float64{0, 1e-6, 1e-3}, []float64{1, 2, 3})
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "*") {
		t.Errorf("LogX chart with a zero x lost its finite markers:\n%s", buf.String())
	}
}

func TestPct(t *testing.T) {
	if Pct(0.394) != "39.40%" {
		t.Errorf("Pct = %q", Pct(0.394))
	}
}

func TestChartMarkerPlacementMonotone(t *testing.T) {
	// A strictly increasing series should place its leftmost marker lower
	// than its rightmost marker (rows count downward).
	c := NewChart("mono", "x", "y")
	c.Width, c.Height = 20, 10
	c.Add("s", []float64{0, 1}, []float64{0, 1})
	var buf bytes.Buffer
	c.Render(&buf)
	lines := strings.Split(buf.String(), "\n")
	var firstRow, lastRow int = -1, -1
	for i, l := range lines {
		if strings.Contains(l, "*") {
			if firstRow == -1 {
				firstRow = i
			}
			lastRow = i
		}
	}
	if firstRow == -1 || firstRow == lastRow {
		t.Fatalf("markers not found in:\n%s", buf.String())
	}
	// y=1 (top of range) must appear above y=0.
	top := lines[firstRow]
	if !strings.Contains(top, "*") {
		t.Fatal("top marker missing")
	}
	if strings.Index(lines[firstRow], "*") < strings.Index(lines[lastRow], "*") {
		t.Error("increasing series should have its high-y point to the right")
	}
}
