package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side measurement around a call into a layer's
// public API. Op is the index of the timed operation it belongs to
// (-1 for set-up and probe calls).
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so the untraced run pays only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name.
func (t *tracer) do(name string, op int, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.add(name, op, start, time.Since(start))
	return err
}

// add records a span measured by the caller.
func (t *tracer) add(name string, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:    name,
		Op:      op,
		StartMS: float64(start.Sub(t.t0)) / 1e6,
		DurMS:   float64(d) / 1e6,
	})
	t.mu.Unlock()
}

// durations returns the durations (ms) of every span named name,
// restricted to timed operations (op >= 0) when timedOnly is set.
func (t *tracer) durations(name string, timedOnly bool) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (!timedOnly || s.Op >= 0) {
			out = append(out, s.DurMS)
		}
	}
	return out
}

// byOp sums span durations (ms) per timed operation, for the names given.
func (t *tracer) byOp(names ...string) map[int]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Op >= 0 && want[s.Name] {
			out[s.Op] += s.DurMS
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
