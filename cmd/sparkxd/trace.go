package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sparkxd"
	"sparkxd/client"
)

// runTrace fetches a job's assembled distributed trace from
// GET /v1/jobs/{id}/trace and renders it as an ASCII waterfall: one row
// per span, indented by parent nesting, with a bar scaled to the root
// span's duration. Traces assemble when a job reaches a terminal state,
// so a queued or running job has none yet. -json dumps the raw JobTrace
// artifact payload instead, for scripts.
func runTrace(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd trace", flag.ContinueOnError)
	var (
		addr    = addAddrFlag(fs)
		asJSON  = fs.Bool("json", false, "print the raw trace JSON instead of the waterfall")
		noAttrs = fs.Bool("no-attrs", false, "omit span attributes from the waterfall")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: sparkxd trace [flags] <jobID>")
		fs.PrintDefaults()
	}
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "sparkxd trace: exactly one job ID is required")
		return 2
	}
	id := fs.Arg(0)
	c, ok := dial("sparkxd trace", *addr, stderr)
	if !ok {
		return 2
	}
	tr, err := c.Trace(ctx, id)
	if err != nil {
		if errors.Is(err, client.ErrNotFound) {
			fmt.Fprintf(stderr, "sparkxd trace: no trace for job %s (unknown job, or not terminal yet)\n", id)
		} else {
			fmt.Fprintf(stderr, "sparkxd trace: %v\n", err)
		}
		return 1
	}
	if *asJSON {
		printJSON(stdout, tr)
		return 0
	}
	renderWaterfall(stdout, tr, !*noAttrs)
	return 0
}

// renderWaterfall prints one trace as an indented span tree with a
// duration bar per row, scaled so the earliest span start is column 0
// and the latest span end is the full bar width. Orphan spans (parent
// not in the trace, e.g. the client's submit span context) root the
// tree.
func renderWaterfall(w io.Writer, tr *sparkxd.JobTrace, withAttrs bool) {
	fmt.Fprintf(w, "trace %s  job %s  state %s  (%d spans, %d processes)\n",
		tr.TraceID, tr.JobID, tr.State, len(tr.Spans), len(tr.Processes()))
	if len(tr.Spans) == 0 {
		return
	}

	// Time bounds over all spans; instant spans still get one tick.
	min, max := tr.Spans[0].StartUnixNano, tr.Spans[0].EndUnixNano()
	for _, sp := range tr.Spans {
		if sp.StartUnixNano < min {
			min = sp.StartUnixNano
		}
		if end := sp.EndUnixNano(); end > max {
			max = end
		}
	}
	total := max - min
	if total <= 0 {
		total = 1
	}

	// Build the parent → children tree in canonical (sorted) order.
	byID := make(map[string]int, len(tr.Spans))
	for i, sp := range tr.Spans {
		byID[sp.SpanID] = i
	}
	children := make(map[int][]int)
	var roots []int
	for i, sp := range tr.Spans {
		if p, ok := byID[sp.Parent]; ok && p != i {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}

	// Label column width so the bars align.
	width := 0
	var measure func(i, depth int)
	measure = func(i, depth int) {
		if n := 2*depth + len(spanLabel(tr.Spans[i])); n > width {
			width = n
		}
		for _, c := range children[i] {
			measure(c, depth+1)
		}
	}
	for _, r := range roots {
		measure(r, 0)
	}

	const barWidth = 40
	var print func(i, depth int)
	print = func(i, depth int) {
		sp := tr.Spans[i]
		label := strings.Repeat("  ", depth) + spanLabel(sp)
		lo := int((sp.StartUnixNano - min) * barWidth / total)
		hi := int((sp.EndUnixNano() - min) * barWidth / total)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > barWidth {
			hi = barWidth
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) +
			strings.Repeat(" ", barWidth-hi)
		fmt.Fprintf(w, "  %-*s  [%s]  %s\n", width, label, bar,
			formatNanos(sp.DurationNanos))
		if withAttrs && len(sp.Attrs) > 0 {
			fmt.Fprintf(w, "  %-*s    %s\n", width, "", formatAttrs(sp.Attrs))
		}
		for _, c := range children[i] {
			print(c, depth+1)
		}
	}
	for _, r := range roots {
		print(r, 0)
	}
}

// spanLabel is the waterfall row label: "process name".
func spanLabel(sp sparkxd.TraceSpan) string {
	return sp.Process + " " + sp.Name
}

// formatNanos renders a span duration compactly (µs under 1ms, rounded
// time.Duration formatting above).
func formatNanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// formatAttrs renders span attributes as sorted k=v pairs.
func formatAttrs(attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return strings.Join(parts, " ")
}
