package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
	"sparkxd/internal/tracing"
	"sparkxd/internal/version"
)

// findSpans returns every span with the given name.
func findSpans(tr *sparkxd.JobTrace, name string) []sparkxd.TraceSpan {
	var out []sparkxd.TraceSpan
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// Trace context must never leak into job identity: the same spec
// submitted with and without a client traceparent hashes to the same
// job ID, and the queued-state JobRecord persisted to the store is
// byte-identical either way (no trace fields), preserving the
// cross-lifetime idempotency of duplicate submissions.
func TestTraceparentDoesNotAffectJobIdentity(t *testing.T) {
	spec := tinySweepJob()
	wantID, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}

	recordBytes := func(traceparent string) []byte {
		st := sparkxd.MemoryStore()
		srv, err := New(Config{Dispatch: DispatchFleet, Store: st, Logger: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		status, created, err := srv.SubmitTraced(spec, traceparent)
		if err != nil || !created {
			t.Fatalf("submit: created=%v err=%v", created, err)
		}
		if status.ID != wantID {
			t.Fatalf("job ID %s, want %s (traceparent %q)", status.ID, wantID, traceparent)
		}
		infos, err := st.List(sparkxd.KindJobRecord)
		if err != nil || len(infos) != 1 {
			t.Fatalf("job records = %v, %v; want exactly one", infos, err)
		}
		env, err := st.Get(infos[0].Key)
		if err != nil {
			t.Fatal(err)
		}
		return env.Payload
	}

	plain := recordBytes("")
	traced := recordBytes(tracing.NewContext().Traceparent())
	if string(plain) != string(traced) {
		t.Errorf("queued job record differs with tracing:\n  plain:  %s\n  traced: %s", plain, traced)
	}

	// The submission status still reports the (out-of-band) trace ID.
	srv, err := New(Config{Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc := tracing.NewContext()
	status, _, err := srv.SubmitTraced(spec, sc.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if status.TraceID != sc.TraceID.String() {
		t.Errorf("status.TraceID = %q, want the client's %q", status.TraceID, sc.TraceID.String())
	}
}

// A job that survives a worker crash carries one trace across both
// lease attempts: the assembled trace shows the first lease expiring,
// a second queue-wait episode, the replacement worker's lease
// completing, and the worker-side spans shipped through a renewal and
// the completion payload — all under the trace ID the client submitted.
func TestTraceAcrossLeaseHandoff(t *testing.T) {
	srv, err := New(Config{
		Dispatch: DispatchFleet,
		LeaseTTL: 50 * time.Millisecond,
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	client := tracing.NewContext()
	status, _, err := srv.SubmitTraced(tinySweepJob(), client.Traceparent())
	if err != nil {
		t.Fatal(err)
	}

	// First worker leases the job and dies silently (never heartbeats).
	g1, err := srv.AcquireLeases("crashy", 1)
	if err != nil || len(g1) != 1 {
		t.Fatalf("AcquireLeases = %v, %v", g1, err)
	}
	sc1, err := tracing.ParseTraceparent(g1[0].Traceparent)
	if err != nil {
		t.Fatalf("grant carries no valid traceparent: %v", err)
	}
	if sc1.TraceID != client.TraceID {
		t.Fatalf("grant trace %s, want the client's %s", sc1.TraceID, client.TraceID)
	}
	waitState(t, srv, status.ID, "requeued", func(st sparkxd.JobStatus) bool {
		return st.State == sparkxd.JobQueued
	})

	// The replacement worker executes "remotely": it parents its spans
	// onto the new grant's lease span, delivers a stage span with a lease
	// renewal, and completes with its envelope spans.
	g2, err := srv.AcquireLeases("medic", 1)
	if err != nil || len(g2) != 1 {
		t.Fatalf("second AcquireLeases = %v, %v", g2, err)
	}
	sc2, err := tracing.ParseTraceparent(g2[0].Traceparent)
	if err != nil {
		t.Fatal(err)
	}
	exec := tracing.Start(sc2, "medic", "execute")
	stage := tracing.Completed(exec.Context(), "medic", "stage:sweep",
		time.Now(), time.Millisecond, nil)
	if err := srv.RenewLease(g2[0].LeaseID, fleetapi.RenewRequest{Spans: []sparkxd.TraceSpan{stage}}); err != nil {
		t.Fatal(err)
	}
	key, err := sparkxd.PutArtifact(srv.Store(), &sparkxd.SweepReport{})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.CompleteLease(g2[0].LeaseID,
		map[string]sparkxd.ArtifactKey{"sweep": key}, "",
		[]sparkxd.TraceSpan{exec.End()})
	if err != nil {
		t.Fatal(err)
	}

	tr, known, err := srv.TraceFor(status.ID)
	if err != nil || !known || tr == nil {
		t.Fatalf("TraceFor = %v, known=%v, err=%v", tr, known, err)
	}
	if tr.TraceID != client.TraceID.String() {
		t.Errorf("trace ID %s, want %s", tr.TraceID, client.TraceID)
	}
	if tr.State != sparkxd.JobDone {
		t.Errorf("trace state %s, want done", tr.State)
	}

	// Root span: child of the client's span, stamped with the version.
	root := tr.Span("job")
	if root == nil {
		t.Fatal("no job root span")
	}
	if root.Parent != client.SpanID.String() {
		t.Errorf("root parent %q, want the client span %q", root.Parent, client.SpanID)
	}
	if root.Attrs["service.version"] != version.String() {
		t.Errorf("root service.version = %q, want %q", root.Attrs["service.version"], version.String())
	}

	// Both lease attempts show, with their outcomes, parented on root.
	leases := findSpans(tr, "lease")
	if len(leases) != 2 {
		t.Fatalf("lease spans = %d, want 2 (expired + completed):\n%s", len(leases), dumpTrace(tr))
	}
	outcomes := map[string]string{}
	for _, l := range leases {
		outcomes[l.Attrs["outcome"]] = l.Attrs["worker"]
		if l.Parent != root.SpanID {
			t.Errorf("lease span parent %q, want root %q", l.Parent, root.SpanID)
		}
	}
	if outcomes["expired"] != "crashy" || outcomes["completed"] != "medic" {
		t.Errorf("lease outcomes = %v, want expired:crashy completed:medic", outcomes)
	}

	// Two queue episodes: initial queue-wait plus the post-expiry one.
	queues := findSpans(tr, "queue-wait")
	if len(queues) != 2 {
		t.Errorf("queue-wait spans = %d, want 2:\n%s", len(queues), dumpTrace(tr))
	}

	// The worker-side spans arrived over both channels and nest under
	// the completed lease span.
	var completedLease sparkxd.TraceSpan
	for _, l := range leases {
		if l.Attrs["outcome"] == "completed" {
			completedLease = l
		}
	}
	execs := findSpans(tr, "execute")
	if len(execs) != 1 || execs[0].Process != "medic" || execs[0].Parent != completedLease.SpanID {
		t.Errorf("worker execute span missing or mis-parented:\n%s", dumpTrace(tr))
	}
	stages := findSpans(tr, "stage:sweep")
	if len(stages) != 1 || stages[0].Parent != execs[0].SpanID {
		t.Errorf("renewal stage span missing or mis-parented:\n%s", dumpTrace(tr))
	}

	// The trace involves both processes.
	procs := tr.Processes()
	if len(procs) < 2 {
		t.Errorf("trace processes = %v, want coordinator and worker", procs)
	}
}

// A locally-executed job's trace has the one lease shape and nests
// consistently: a lease (executor=local) and queue-wait under the root,
// the in-process worker's execute under the lease, stage spans under
// execute, and every child interval inside its parent's.
func TestTraceLocalExecutionNesting(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, err := New(Config{Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	status, _, err := srv.Submit(sparkxd.JobSpec{
		Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.TraceID == "" {
		t.Error("terminal status carries no trace ID")
	}

	tr, known, err := srv.TraceFor(status.ID)
	if err != nil || !known || tr == nil {
		t.Fatalf("TraceFor = %v, known=%v, err=%v", tr, known, err)
	}
	root := tr.Span("job")
	if root == nil {
		t.Fatalf("no job root span:\n%s", dumpTrace(tr))
	}
	leases := findSpans(tr, "lease")
	if len(leases) != 1 || leases[0].Attrs["executor"] != "local" || leases[0].Parent != root.SpanID {
		t.Fatalf("local lease span missing or mis-parented:\n%s", dumpTrace(tr))
	}
	execs := findSpans(tr, "execute")
	if len(execs) != 1 || execs[0].Parent != leases[0].SpanID {
		t.Fatalf("execute span missing or not nested under the lease:\n%s", dumpTrace(tr))
	}
	stages := findSpans(tr, "stage:train")
	if len(stages) != 1 || stages[0].Parent != execs[0].SpanID {
		t.Errorf("stage:train span missing or not nested under execute:\n%s", dumpTrace(tr))
	}
	queues := findSpans(tr, "queue-wait")
	if len(queues) != 1 || queues[0].Parent != root.SpanID {
		t.Errorf("queue-wait span missing or mis-parented:\n%s", dumpTrace(tr))
	}

	// Interval consistency: every non-root span inside the root's
	// interval, every stage span inside the execute interval. Stage
	// spans are retro-dated from monotonic durations while the root uses
	// wall-clock nanos, so allow a small tolerance.
	const slack = int64(50 * time.Millisecond)
	within := func(inner, outer sparkxd.TraceSpan) bool {
		return inner.StartUnixNano >= outer.StartUnixNano-slack &&
			inner.EndUnixNano() <= outer.EndUnixNano()+slack
	}
	for _, sp := range tr.Spans {
		if sp.SpanID == root.SpanID {
			continue
		}
		if !within(sp, *root) {
			t.Errorf("span %s %q outside the root interval", sp.SpanID, sp.Name)
		}
	}
	if !within(stages[0], execs[0]) {
		t.Error("stage span outside its execute parent's interval")
	}
}

// The trace endpoint and healthz version are wired through HTTP: a 404
// with a hint before assembly, the artifact JSON after, and healthz
// reports the build version.
func TestTraceAndVersionOverHTTP(t *testing.T) {
	srv, err := New(Config{Dispatch: DispatchFleet, LeaseTTL: time.Minute, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var hz map[string]any
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["version"] != version.String() {
		t.Errorf("healthz version = %v, want %q", hz["version"], version.String())
	}

	status, _, err := srv.Submit(tinySweepJob())
	if err != nil {
		t.Fatal(err)
	}
	// Queued: known job, no assembled trace yet.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + status.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of a queued job: status %d, want 404", resp.StatusCode)
	}

	// Complete it through the lease path, then fetch the trace.
	g, err := srv.AcquireLeases("w", 1)
	if err != nil || len(g) != 1 {
		t.Fatalf("AcquireLeases = %v, %v", g, err)
	}
	key, err := sparkxd.PutArtifact(srv.Store(), &sparkxd.SweepReport{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CompleteLease(g[0].LeaseID, map[string]sparkxd.ArtifactKey{"sweep": key}, "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + status.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d, want 200", resp.StatusCode)
	}
	var tr sparkxd.JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.JobID != status.ID || tr.Span("job") == nil || tr.Span("lease") == nil {
		t.Errorf("served trace incomplete:\n%s", dumpTrace(&tr))
	}
}

// dumpTrace renders a trace's spans for failure messages.
func dumpTrace(tr *sparkxd.JobTrace) string {
	out := ""
	for _, sp := range tr.Spans {
		out += fmt.Sprintf("  %s parent=%s %s %s %v\n", sp.SpanID, sp.Parent, sp.Process, sp.Name, sp.Attrs)
	}
	return out
}

// heldWriteStore wraps a store and holds back one write: the job trace
// (kind KindJobTrace) or the done job record (kind KindJobRecord). It
// closes writing when that write begins, then waits for release, and
// fails the write instead of storing it when fail is set.
type heldWriteStore struct {
	sparkxd.ArtifactStore
	kind             string
	fail             bool
	writing, release chan struct{}
}

func (h *heldWriteStore) Put(kind string, payload any) (sparkxd.ArtifactKey, error) {
	if rec, ok := payload.(*sparkxd.JobRecord); kind != h.kind || (ok && rec.State != sparkxd.JobDone) {
		return h.ArtifactStore.Put(kind, payload)
	}
	close(h.writing)
	<-h.release
	if h.fail {
		return "", errors.New("write refused")
	}
	return h.ArtifactStore.Put(kind, payload)
}

// A job reads terminal only after its trace, and when done its record,
// are stored. While either write is held, the job is not terminal and
// TraceFor answers at once without a trace. After release the job reads
// done, TraceFor returns the trace (nil when its write failed), and a
// coordinator opened on the store right then preloads the job as done
// instead of requeueing it.
func TestTerminalAfterTraceAndRecordStored(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind string
		fail bool
	}{
		{"trace", sparkxd.KindJobTrace, false},
		{"trace-fails", sparkxd.KindJobTrace, true},
		{"record", sparkxd.KindJobRecord, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &heldWriteStore{ArtifactStore: sparkxd.MemoryStore(), kind: tc.kind, fail: tc.fail,
				writing: make(chan struct{}), release: make(chan struct{})}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(st.release) }) }
			t.Cleanup(release)
			srv, err := New(Config{Dispatch: DispatchFleet, Store: st, Logger: testLogger(t)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			status, _, err := srv.Submit(tinySweepJob())
			if err != nil {
				t.Fatal(err)
			}
			grants, err := srv.AcquireLeases("w1", 1)
			if err != nil || len(grants) != 1 {
				t.Fatalf("AcquireLeases = %v, %v", grants, err)
			}
			key, err := sparkxd.PutArtifact(srv.Store(), &sparkxd.SweepReport{})
			if err != nil {
				t.Fatal(err)
			}
			completed := make(chan error, 1)
			go func() {
				completed <- srv.CompleteLease(grants[0].LeaseID,
					map[string]sparkxd.ArtifactKey{"sweep": key}, "", nil)
			}()
			<-st.writing
			if got, _ := srv.Job(status.ID); got.State.Terminal() {
				t.Fatalf("state while the %s is written = %s, want not terminal", tc.kind, got.State)
			}
			type result struct {
				tr    *sparkxd.JobTrace
				known bool
				err   error
			}
			traceFor := func() result {
				got := make(chan result, 1)
				go func() {
					tr, known, err := srv.TraceFor(status.ID)
					got <- result{tr, known, err}
				}()
				select {
				case r := <-got:
					if r.err != nil || !r.known {
						t.Fatalf("TraceFor: known=%v, err=%v", r.known, r.err)
					}
					return r
				case <-time.After(10 * time.Second):
					t.Fatal("TraceFor blocked")
					return result{}
				}
			}
			if r := traceFor(); r.tr != nil {
				t.Fatalf("TraceFor of an unfinished job = %v, want no trace", r.tr)
			}

			release()
			waitState(t, srv, status.ID, "a terminal state", func(s sparkxd.JobStatus) bool { return s.State.Terminal() })
			next, err := New(Config{Dispatch: DispatchFleet, Store: st.ArtifactStore, Logger: testLogger(t)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(next.Close)
			if got, _ := next.Job(status.ID); got.State != sparkxd.JobDone || next.QueueDepth() != 0 {
				t.Errorf("coordinator opened after the job finished: state %s, queue depth %d; want done, 0",
					got.State, next.QueueDepth())
			}
			if err := <-completed; err != nil {
				t.Fatal(err)
			}
			if got, _ := srv.Job(status.ID); got.State != sparkxd.JobDone {
				t.Fatalf("state after release = %s, want done", got.State)
			}
			r := traceFor()
			if tc.fail {
				if r.tr != nil {
					t.Fatal("TraceFor returned a trace whose write failed")
				}
				return
			}
			if r.tr == nil || r.tr.State != sparkxd.JobDone {
				t.Fatalf("TraceFor of a done job = %v, want its trace", r.tr)
			}
		})
	}
}
