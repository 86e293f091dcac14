// Package metrics is a dependency-free metrics registry for the
// sparkxd serving layers (DESIGN.md §11): counters, gauges, and
// fixed-bucket histograms, exposed in the Prometheus text format over
// a plain http.Handler.
//
// Two properties shape the design:
//
//   - No dependencies. The module is stdlib-only; this package keeps it
//     that way while staying scrape-compatible with any Prometheus
//     collector (text format 0.0.4).
//   - Deterministic exposition. Families are emitted sorted by name and
//     series sorted by label values, so tests can assert on exact output
//     and two scrapes of the same state are byte-identical.
//
// Instruments are cheap enough for hot paths: counters and gauges are
// single atomics, histogram observation takes one short mutex. Func
// variants (NewGaugeFunc, NewCounterFunc) read through to state owned
// elsewhere — e.g. a queue length or a cache's hit counter — at scrape
// time instead of mirroring it on every update.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets is the default histogram bucket ladder for
// job/stage latencies, in seconds: 5ms to 60s, roughly 2.5x per step.
// Jobs in this service run milliseconds (served from a warm record) to
// tens of seconds (cold sweep on a loaded worker), so the ladder covers
// both tails with 13 buckets.
var DefLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry holds a set of named metric families and renders them in
// the Prometheus text format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a fixed type, help text, label
// names, and its series keyed by joined label values.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu       sync.Mutex
	series   map[string]metric // key: label values joined with 0xff
	valuesOf map[string][]string
}

// metric is anything a family can hold a series of.
type metric interface {
	// write emits the series' sample lines. labelStr is the rendered
	// {a="b",...} block ("" when unlabeled).
	write(w io.Writer, name, labelStr string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name: metric names
// are program constants, so a collision is a programming error best
// caught at startup rather than silently merged.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		series:   make(map[string]metric),
		valuesOf: make(map[string][]string),
	}
	r.families[name] = f
	return f
}

// child returns (creating once) the series of one label-value tuple.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = mk()
		f.series[key] = m
		f.valuesOf[key] = append([]string(nil), values...)
	}
	return m
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.v.Load())
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: NewCounterVec without labels; use NewCounter")
	}
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// With returns (creating once) the counter of one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// counterFunc reads an externally-owned cumulative count at scrape
// time.
type counterFunc struct{ fn func() uint64 }

func (c counterFunc) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.fn())
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. Use it to expose counts already maintained elsewhere
// (cache hit totals, eviction counts) without double bookkeeping; fn
// must be safe to call concurrently and monotone non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, "counter", nil)
	f.child(nil, func() metric { return counterFunc{fn} })
}

// Gauge is an integer that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, g.v.Load())
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// gaugeFunc reads an externally-owned value at scrape time.
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelStr, formatFloat(g.fn()))
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time; fn must be safe to call concurrently.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.child(nil, func() metric { return gaugeFunc{fn} })
}

// Histogram counts observations into fixed cumulative buckets, plus a
// running sum and count, Prometheus-style.
type Histogram struct {
	upper []float64 // sorted bucket upper bounds (exclusive of +Inf)

	mu     sync.Mutex
	counts []uint64 // one per upper bound
	sum    float64
	count  uint64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]uint64, len(upper))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) write(w io.Writer, name, labelStr string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	total := h.count
	sumv := h.sum
	h.mu.Unlock()
	for i, ub := range h.upper {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labelStr, formatFloat(ub)), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labelStr, "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelStr, formatFloat(sumv))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelStr, total)
}

// withLE splices le="bound" into a series' label block; histograms
// always have labels (see NewHistogramVec).
func withLE(labelStr, bound string) string {
	return labelStr[:len(labelStr)-1] + `,le="` + bound + `"}`
}

// HistogramVec is a histogram family with labels; every series shares
// one bucket ladder.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("metrics: NewHistogramVec needs at least one label")
	}
	return &HistogramVec{
		f:       r.register(name, help, "histogram", labels),
		buckets: append([]float64(nil), buckets...),
	}
}

// With returns (creating once) the histogram of one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metric { return newHistogram(v.buckets) }).(*Histogram)
}

// WritePrometheus renders the families of several registries as one
// exposition, sorted by name across all of them (e.g. a coordinator's
// registry plus its in-process worker's). The registries must not share
// a family name.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var fams []*family
	for _, r := range regs {
		r.mu.Lock()
		for _, f := range r.families {
			fams = append(fams, f)
		}
		r.mu.Unlock()
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		type row struct {
			m        metric
			labelStr string
		}
		rows := make([]row, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, row{f.series[k], renderLabels(f.labels, f.valuesOf[k])})
		}
		f.mu.Unlock()
		if len(rows) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, rw := range rows {
			rw.m.write(w, f.name, rw.labelStr)
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler { return Handler(r) }

// Handler serves several registries as one Prometheus scrape target
// (see WritePrometheus).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = WritePrometheus(w, regs...)
	})
}

// renderLabels builds the {a="x",b="y"} block ("" when unlabeled).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the text format (backslash,
// quote, newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes help text (backslash, newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the shortest way that round-trips, with
// +Inf spelled the Prometheus way.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
