package server

import (
	"strconv"
	"time"

	"sparkxd"
	"sparkxd/internal/tracing"
	"sparkxd/internal/version"
)

// Coordinator-side span collection (DESIGN.md §14). Every job carries a
// jobTraceState from submission: the root "job" span context (a child
// of the client's traceparent when one arrived, a fresh trace
// otherwise) plus the spans recorded so far. The coordinator emits
// queue-wait, admission, and lease-lifecycle spans; worker spans — the
// in-process worker's included — arrive through the lease event batches
// and the completion payload. When the job's lease completes, the whole
// set is assembled, sorted, and persisted as a content-addressed
// KindJobTrace artifact before the job reads terminal.
//
// Trace context is strictly out-of-band: it lives on jobRec, the lease
// table, HTTP headers, and the Grant payload — never inside a JobSpec —
// so job IDs and all result artifacts are byte-identical with tracing
// on or off.

// maxTraceSpans bounds one job's retained span set. A sweep job emits a
// handful of spans per process, so the bound exists only to keep a
// pathological worker from growing coordinator memory; overflow is
// counted and reported on the root span instead of retained.
const maxTraceSpans = 2048

// jobTraceState is the per-job trace accumulator. All fields are
// guarded by Server.mu.
type jobTraceState struct {
	// root is the job root span's own context: worker- and
	// coordinator-side child spans parent onto root.SpanID, and
	// root.TraceID is the whole trace's identity.
	root tracing.SpanContext
	// clientSpan is the submitting client's span ID (the root span's
	// parent), "" when the submission carried no traceparent.
	clientSpan string
	// start anchors the root span (and carries the monotonic clock the
	// root duration is measured on).
	start time.Time
	// queueStart is the current queue episode's start; zero while the
	// job is claimed. episodes counts closed queue-wait spans.
	queueStart time.Time
	episodes   int
	spans      []sparkxd.TraceSpan
	dropped    int // spans discarded past maxTraceSpans
}

// newJobTraceState opens a job's trace at submission time. A valid
// traceparent continues the client's trace (the client span becomes the
// root span's parent); anything else starts a fresh trace.
func newJobTraceState(traceparent string) *jobTraceState {
	now := time.Now()
	tr := &jobTraceState{start: now, queueStart: now}
	if sc, err := tracing.ParseTraceparent(traceparent); err == nil {
		tr.root = sc.Child()
		tr.clientSpan = sc.SpanID.String()
	} else {
		tr.root = tracing.NewContext()
	}
	return tr
}

// traceID returns the job's 32-hex trace ID.
func (tr *jobTraceState) traceID() string { return tr.root.TraceID.String() }

// procName is the span Process of coordinator-emitted spans: plain
// "coordinator", or "coordinator-<shard>" on a federation member so a
// trace spanning shards attributes spans to the right process.
func (s *Server) procName() string {
	if s.shard.enabled() {
		return "coordinator-" + strconv.Itoa(s.shard.index)
	}
	return "coordinator"
}

// addSpanLocked records one finished span on a job. Caller holds s.mu.
func (s *Server) addSpanLocked(rec *jobRec, sd sparkxd.TraceSpan) {
	tr := rec.trace
	if tr == nil {
		return
	}
	if len(tr.spans) >= maxTraceSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, sd)
}

// closeQueueSpanLocked ends the job's current queue episode with a
// queue-wait span naming who claimed it. Caller holds s.mu.
func (s *Server) closeQueueSpanLocked(rec *jobRec, claimedBy string) {
	tr := rec.trace
	if tr == nil || tr.queueStart.IsZero() {
		return
	}
	tr.episodes++
	s.addSpanLocked(rec, tracing.Completed(tr.root, s.procName(), "queue-wait",
		tr.queueStart, time.Since(tr.queueStart), map[string]string{
			"episode":    strconv.Itoa(tr.episodes),
			"claimed_by": claimedBy,
		}))
	tr.queueStart = time.Time{}
}

// reopenQueueSpanLocked starts a fresh queue episode (requeue after a
// lease expiry, release, revocation, or shutdown). Caller holds s.mu.
func (s *Server) reopenQueueSpanLocked(rec *jobRec) {
	if rec.trace != nil {
		rec.trace.queueStart = time.Now()
	}
}

// noteAdmission records the HTTP admission span of a freshly created
// job: decode + admission control + Submit, measured from handler
// entry. Root-relative, coordinator-side.
func (s *Server) noteAdmission(jobID string, start time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[jobID]
	if !ok || rec.trace == nil {
		return
	}
	s.addSpanLocked(rec, tracing.Completed(rec.trace.root, s.procName(), "admit",
		start, time.Since(start), nil))
}

// closeLeaseSpanLocked ends a lease's lifecycle span with its outcome
// (completed | failed | expired | released | revoked). Caller holds
// s.mu (and has already removed the lease from the table).
func (s *Server) closeLeaseSpanLocked(l *lease, outcome string) {
	if l.span == nil {
		return
	}
	l.span.SetAttr("worker", l.worker)
	l.span.SetAttr("executor", s.executorOf(l.worker))
	l.span.SetAttr("lease_id", l.id)
	l.span.SetAttr("outcome", outcome)
	l.span.SetAttr("renews", strconv.Itoa(l.renews))
	s.addSpanLocked(l.rec, l.span.End())
	l.span = nil
}

// finishTraceLocked assembles a finishing job's trace: the root "job"
// span is closed over the whole submit→terminal interval and joins the
// collected spans. The job drops its trace state, so no later span
// joins; nil for a job that has none. Caller holds s.mu.
func (s *Server) finishTraceLocked(rec *jobRec, state sparkxd.JobState) *sparkxd.JobTrace {
	tr := rec.trace
	if tr == nil {
		return nil
	}
	rec.trace = nil
	attrs := map[string]string{
		"job_id":          rec.status.ID,
		"kind":            string(rec.status.Spec.Kind),
		"state":           string(state),
		"service.version": version.String(),
	}
	if tr.dropped > 0 {
		attrs["dropped_spans"] = strconv.Itoa(tr.dropped)
	}
	root := sparkxd.TraceSpan{
		SpanID:        tr.root.SpanID.String(),
		Parent:        tr.clientSpan,
		Name:          "job",
		Process:       s.procName(),
		StartUnixNano: tr.start.UnixNano(),
		DurationNanos: time.Since(tr.start).Nanoseconds(),
		Attrs:         attrs,
	}
	return &sparkxd.JobTrace{
		Version: sparkxd.JobTraceVersion,
		TraceID: tr.traceID(),
		JobID:   rec.status.ID,
		State:   state,
		Spans:   append(tr.spans, root),
	}
}

// storeTrace sorts a finished job's trace and writes it to the store as
// a KindJobTrace artifact; its key is what GET /v1/jobs/{id}/trace
// serves. It returns "" when there is no trace or the write failed.
// Called without s.mu held (store writes do IO).
func (s *Server) storeTrace(trace *sparkxd.JobTrace) sparkxd.ArtifactKey {
	if trace == nil {
		return ""
	}
	trace.Sort()
	key, err := sparkxd.PutArtifact(s.st, trace)
	if err != nil {
		s.log.Warn("trace persist failed", "job", trace.JobID, "trace", trace.TraceID, "err", err)
		return ""
	}
	s.log.Debug("trace assembled", "job", trace.JobID, "trace", trace.TraceID,
		"spans", len(trace.Spans), "key", string(key))
	return key
}

// TraceFor returns a terminal job's stored trace. known reports whether
// the job exists at all; a known job without a stored trace (not yet
// terminal, restored from a pre-tracing record, or whose trace write
// failed) returns (nil, true, nil).
func (s *Server) TraceFor(id string) (trace *sparkxd.JobTrace, known bool, err error) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	key := rec.traceKey
	s.mu.Unlock()
	if key == "" {
		return nil, true, nil
	}
	tr, err := sparkxd.GetJobTrace(s.st, key)
	if err != nil {
		return nil, true, err
	}
	return tr, true, nil
}
