// Package report renders experiment results as fixed-width tables and
// ASCII line charts, so that every figure and table of the paper can
// be regenerated as terminal output by cmd/experiments.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple fixed-width table builder.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < cols && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow := func(cells []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	printRow(t.Headers)
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// Series is one named line of a chart.
type Series struct {
	Name   string
	X, Y   []float64
	Marker byte
}

// Chart renders one or more series as an ASCII scatter/line chart —
// enough to see the *shape* of a paper figure in terminal output.
type Chart struct {
	Title         string
	XLabel        string
	YLabel        string
	Width, Height int
	LogX          bool
	Series        []Series
}

// NewChart creates a chart with sensible terminal dimensions.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 64, Height: 16}
}

// Add appends a series; markers cycle through a fixed set if zero.
func (c *Chart) Add(name string, x, y []float64) {
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	m := markers[len(c.Series)%len(markers)]
	c.Series = append(c.Series, Series{Name: name, X: x, Y: y, Marker: m})
}

// Render draws the chart to w.
func (c *Chart) Render(w io.Writer) {
	if len(c.Series) == 0 {
		fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if c.LogX {
			return math.Log10(x)
		}
		return x
	}
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	for _, s := range c.Series {
		for i := range s.X {
			// Non-finite coordinates (empty series leave the ranges at
			// ±Inf; LogX of a non-positive x is -Inf/NaN) must not poison
			// the range math below.
			x, y := tx(s.X[i]), s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			if x < xmin {
				xmin = x
			}
			if x > xmax {
				xmax = x
			}
			if y < ymin {
				ymin = y
			}
			if y > ymax {
				ymax = y
			}
		}
	}
	if xmin > xmax { // no finite point anywhere
		fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return
	}
	// Clamp degenerate ranges (a single point, or a constant-valued
	// series) so the column/row projection below never divides by zero.
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// Pad the y range slightly so extremes are visible.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	grid := make([][]byte, c.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", c.Width))
	}
	for _, s := range c.Series {
		for i := range s.X {
			x, y := tx(s.X[i]), s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			col := int((x - xmin) / (xmax - xmin) * float64(c.Width-1))
			row := int((ymax - y) / (ymax - ymin) * float64(c.Height-1))
			if col >= 0 && col < c.Width && row >= 0 && row < c.Height {
				grid[row][col] = s.Marker
			}
		}
	}
	fmt.Fprintf(w, "%s\n", c.Title)
	for r, line := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case c.Height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		case c.Height / 2:
			label = fmt.Sprintf("%8.3g", (ymax+ymin)/2)
		}
		fmt.Fprintf(w, "%s |%s|\n", label, string(line))
	}
	lo, hi := xmin, xmax
	unit := ""
	if c.LogX {
		unit = " (log10)"
	}
	fmt.Fprintf(w, "%9s %-*s\n", "", c.Width, fmt.Sprintf("%.3g%s -> %.3g%s  [%s]", lo, unit, hi, unit, c.XLabel))
	legend := make([]string, len(c.Series))
	for i, s := range c.Series {
		legend[i] = fmt.Sprintf("%c=%s", s.Marker, s.Name)
	}
	fmt.Fprintf(w, "%9s y: %s  |  %s\n", "", c.YLabel, strings.Join(legend, "  "))
}

// Pct formats a fraction as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// FirstLine truncates a (possibly multi-line) message to its first line,
// used to keep contained panic stacks out of one-line error records.
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
