// Package tracing is the dependency-free distributed-tracing kernel of
// the sparkxd serving stack (DESIGN.md §14): 128-bit trace IDs, 64-bit
// span IDs, W3C `traceparent` encoding for out-of-band propagation over
// HTTP headers and lease payloads, context plumbing, and a span builder
// whose durations come from Go's monotonic clock.
//
// Trace context is ALWAYS carried out-of-band — never inside a JobSpec —
// so content-hashed job IDs and every artifact stay byte-identical
// whether tracing is on or off. The serializable SpanData records are
// what the coordinator assembles into a KindJobTrace artifact once a
// job reaches a terminal state.
package tracing

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// TraceID identifies one end-to-end request (a job's whole lifetime,
// across every process that touched it).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String returns the 32-char lowercase-hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 16-char lowercase-hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	fill(t[:])
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	fill(s[:])
	return s
}

// fill randomizes b, guaranteeing it is not all zero (the W3C invalid
// value). crypto/rand never fails on the supported platforms; if it
// somehow does, fall back to a fixed non-zero pattern rather than
// minting an invalid ID.
func fill(b []byte) {
	for {
		if _, err := rand.Read(b); err != nil {
			for i := range b {
				b[i] = 0xff
			}
			return
		}
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
}

// FlagSampled is the traceparent flag bit marking a sampled trace.
// sparkxd records every span of every traced job, so contexts minted
// here always carry it.
const FlagSampled = 0x01

// SpanContext is the propagated identity of one span: enough to parent
// a child span in another process.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// NewContext mints a fresh root span context (new trace).
func NewContext() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
}

// Child returns a context in the same trace with a fresh span ID.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID(), Flags: sc.Flags}
}

// Traceparent encodes the context in the W3C trace-context form:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>".
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", sc.TraceID, sc.SpanID, sc.Flags)
}

// ParseTraceparent decodes a W3C traceparent header. Unknown versions
// are rejected conservatively (the caller should then mint a fresh
// context), as are all-zero trace or span IDs.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, fmt.Errorf("tracing: malformed traceparent %q", s)
	}
	if s[0] != '0' || s[1] != '0' {
		return sc, fmt.Errorf("tracing: unsupported traceparent version %q", s[:2])
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return sc, fmt.Errorf("tracing: bad trace id in %q", s)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return sc, fmt.Errorf("tracing: bad span id in %q", s)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return sc, fmt.Errorf("tracing: bad flags in %q", s)
	}
	sc.Flags = flags[0]
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("tracing: all-zero ids in %q", s)
	}
	return sc, nil
}

// SpanData is the serializable record of one finished span — the unit
// the coordinator assembles into a job's trace artifact. Start is a
// wall-clock anchor (for cross-process waterfall alignment); Duration
// was measured on the emitting process's monotonic clock, so it is
// immune to wall-clock steps.
type SpanData struct {
	// SpanID is the span's 16-hex-char identity within its trace.
	SpanID string `json:"span_id"`
	// Parent is the parent span's ID ("" for the root).
	Parent string `json:"parent_span_id,omitempty"`
	// Name is what the span measures ("queue-wait", "lease", "train"...).
	Name string `json:"name"`
	// Process names the process that emitted the span (the coordinator,
	// or a worker's fleet name).
	Process string `json:"process"`
	// StartUnixNano is the span's wall-clock start.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNanos is the monotonic-clock duration.
	DurationNanos int64 `json:"duration_nanos"`
	// Attrs carries span-scoped key/value detail.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// EndUnixNano is the span's wall-clock end (start + duration).
func (d SpanData) EndUnixNano() int64 { return d.StartUnixNano + d.DurationNanos }

// Span is an in-flight measurement. Start one with Start (or the
// retroactive Completed), attach attributes, then End it to obtain the
// serializable SpanData.
type Span struct {
	sc      SpanContext
	parent  SpanID
	name    string
	process string
	start   time.Time // carries the monotonic reading
	attrs   map[string]string
}

// Start opens a span as a child of parent. An invalid parent starts a
// new trace with the span as root.
func Start(parent SpanContext, process, name string) *Span {
	sc := parent.Child()
	if !parent.Valid() {
		sc = NewContext()
		parent.SpanID = SpanID{}
	}
	return &Span{
		sc:      sc,
		parent:  parent.SpanID,
		name:    name,
		process: process,
		start:   time.Now(),
	}
}

// Context returns the span's own context, for parenting children
// (possibly in another process, via Traceparent).
func (s *Span) Context() SpanContext { return s.sc }

// SetAttr attaches one key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
}

// End closes the span, measuring its duration on the monotonic clock.
func (s *Span) End() SpanData { return s.end(time.Since(s.start)) }

func (s *Span) end(d time.Duration) SpanData {
	if d < 0 {
		d = 0
	}
	data := SpanData{
		SpanID:        s.sc.SpanID.String(),
		Name:          s.name,
		Process:       s.process,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: d.Nanoseconds(),
		Attrs:         s.attrs,
	}
	if !s.parent.IsZero() {
		data.Parent = s.parent.String()
	}
	return data
}

// Completed builds a SpanData for an interval measured elsewhere:
// started at start, lasting d. Used for retro-fitted spans like queue
// wait, whose endpoints are lifecycle timestamps rather than a live
// *Span.
func Completed(parent SpanContext, process, name string, start time.Time, d time.Duration, attrs map[string]string) SpanData {
	if d < 0 {
		d = 0
	}
	data := SpanData{
		SpanID:        NewSpanID().String(),
		Name:          name,
		Process:       process,
		StartUnixNano: start.UnixNano(),
		DurationNanos: d.Nanoseconds(),
		Attrs:         attrs,
	}
	if parent.Valid() {
		data.Parent = parent.SpanID.String()
	}
	return data
}
