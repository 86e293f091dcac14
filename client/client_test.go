// End-to-end tests of the Go client against an in-process job service:
// Submit -> Wait -> typed artifact fetch, idempotent resubmission, event
// streaming, and byte-for-byte equality with a direct in-process
// Pipeline run of the same spec.
package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/client"
	"sparkxd/internal/server"
)

// tinySweepSpec is a laptop-fast 2-scenario sweep job.
func tinySweepSpec() sparkxd.JobSpec {
	return sparkxd.JobSpec{
		Kind: sparkxd.JobSweep,
		Config: sparkxd.ConfigSpec{
			Neurons:      40,
			TrainSamples: 50,
			TestSamples:  25,
			BaseEpochs:   1,
			BERSchedule:  []float64{1e-5, 1e-3},
		},
		Sweep: &sparkxd.SweepSpec{
			Voltages:    []float64{1.1},
			BERs:        []float64{1e-5, 1e-4},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
			Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
		},
	}
}

func newClient(t *testing.T) *client.Client {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The acceptance check of the job service: a sweep submitted through the
// client produces an artifact byte-identical to the in-process
// Pipeline.Sweep of the same spec, and resubmitting returns the same
// deterministic job ID.
func TestSubmitWaitFetchMatchesInProcessRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	c := newClient(t)
	spec := tinySweepSpec()

	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if status.ID != wantID {
		t.Errorf("server assigned ID %s, spec hashes to %s", status.ID, wantID)
	}

	// Idempotent resubmission: same ID, no second job.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != status.ID {
		t.Errorf("resubmission returned ID %s, want %s", again.ID, status.ID)
	}

	final, err := c.Wait(ctx, status.ID)
	if err != nil {
		t.Fatalf("Wait: %v (status %+v)", err, final)
	}
	key, ok := final.Artifacts["sweep"]
	if !ok {
		t.Fatalf("no sweep artifact (have %v)", final.Artifacts)
	}
	served, err := c.SweepReport(ctx, key)
	if err != nil {
		t.Fatal(err)
	}

	// Direct in-process run of the identical spec.
	opts, err := spec.Config.Options()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sparkxd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Pipeline()
	if _, err := p.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImproveTolerance(ctx); err != nil {
		t.Fatal(err)
	}
	direct, err := p.Sweep(ctx, *spec.Sweep)
	if err != nil {
		t.Fatal(err)
	}

	servedJSON, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(servedJSON) != string(directJSON) {
		t.Errorf("served sweep diverges from the in-process run:\n%s\n---\n%s", servedJSON, directJSON)
	}

	// And the key is the content address of exactly those bytes.
	wantKey, err := sparkxd.PutArtifact(sparkxd.MemoryStore(), direct)
	if err != nil {
		t.Fatal(err)
	}
	if key != wantKey {
		t.Errorf("artifact key %s != content address of the direct run %s", key, wantKey)
	}
}

// Events streams the job's progress: lifecycle events arrive in order
// and the stream terminates once the job is done.
func TestEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	c := newClient(t)
	spec := sparkxd.JobSpec{
		Kind:  sparkxd.JobPipeline,
		Stage: "train",
		Config: sparkxd.ConfigSpec{
			Neurons: 40, TrainSamples: 50, TestSamples: 25, BaseEpochs: 1,
			BERSchedule: []float64{1e-5, 1e-3},
		},
	}
	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	err = c.Events(ctx, status.ID, func(ev sparkxd.Event) error {
		if ev.Stage == "job" {
			phases = append(phases, ev.Phase)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(phases) == 0 || phases[0] != "queued" || phases[len(phases)-1] != "done" {
		t.Errorf("job lifecycle phases = %v, want queued..done", phases)
	}
}

// Events survives a dropped connection: the client reconnects once
// with Last-Event-ID and the consumer sees every event exactly once,
// in order — no loss, no duplicates.
func TestEventsResumeAfterDrop(t *testing.T) {
	all := []sparkxd.Event{
		{Stage: "job", Phase: "queued"},
		{Stage: "train", Phase: "start"},
		{Stage: "train", Phase: "progress", Epoch: 1, Epochs: 2},
		{Stage: "train", Phase: "done"},
		{Stage: "job", Phase: "done"},
	}
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		start := 0
		if h := r.Header.Get("Last-Event-ID"); h != "" {
			n, err := strconv.Atoi(h)
			if err != nil {
				t.Errorf("bad Last-Event-ID %q", h)
			}
			start = n + 1
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for i := start; i < len(all); i++ {
			b, _ := json.Marshal(all[i])
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", i, b)
			w.(http.Flusher).Flush()
			// First connection dies mid-stream after two events.
			if requests.Load() == 1 && i == 1 {
				panic(http.ErrAbortHandler)
			}
		}
	}))
	defer ts.Close()

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var got []sparkxd.Event
	if err := c.Events(context.Background(), "whatever", func(ev sparkxd.Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	if requests.Load() != 2 {
		t.Errorf("reconnects = %d requests, want 2", requests.Load())
	}
	if len(got) != len(all) {
		t.Fatalf("got %d events, want %d (loss or duplication across reconnect): %+v", len(got), len(all), got)
	}
	for i := range all {
		if got[i] != all[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], all[i])
		}
	}
}

// A stream that ends cleanly WITHOUT the job's terminal lifecycle
// event (e.g. the server shut down while the job was queued) must not
// read as completion: the client retries, and if the job genuinely
// never terminates, Events surfaces an error instead of returning nil.
func TestEventsCleanEOFBeforeTerminalIsNotDone(t *testing.T) {
	queued := sparkxd.Event{Stage: "job", Phase: "queued"}
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		if r.Header.Get("Last-Event-ID") == "" {
			b, _ := json.Marshal(queued)
			fmt.Fprintf(w, "id: 0\ndata: %s\n\n", b)
		}
		// ...and end the stream with the job still non-terminal.
	}))
	defer ts.Close()

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	err = c.Events(context.Background(), "job", func(sparkxd.Event) error { got++; return nil })
	if err == nil {
		t.Fatal("Events returned nil for a stream that never reached a terminal state")
	}
	if got != 1 {
		t.Errorf("delivered %d events, want 1 (no duplicates across the retry)", got)
	}
	if requests.Load() != 2 {
		t.Errorf("requests = %d, want 2 (one retry)", requests.Load())
	}
}

func TestWaitOnFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	c := newClient(t)
	// A valid spec that fails while running: at 1.0 V no subarray meets
	// any BER of the schedule, so the map stage cannot place the weights.
	spec := tinySweepSpec()
	spec.Kind, spec.Stage, spec.Sweep = sparkxd.JobPipeline, "map", nil
	spec.Config.Voltage = 1.0
	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, status.ID)
	if !errors.Is(err, client.ErrJobFailed) {
		t.Fatalf("want ErrJobFailed, got %v", err)
	}
	if final == nil || final.State != sparkxd.JobFailed || !strings.Contains(final.Error, "safe subarrays cannot hold") {
		t.Errorf("failed status not surfaced: %+v", final)
	}
}

func TestNotFound(t *testing.T) {
	ctx := context.Background()
	c := newClient(t)
	if _, err := c.Job(ctx, "deadbeef"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("unknown job: want ErrNotFound, got %v", err)
	}
	missing := sparkxd.ArtifactKey(sparkxd.KindSweepReport + "/0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	if _, err := c.SweepReport(ctx, missing); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("unknown artifact: want ErrNotFound, got %v", err)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	ctx := context.Background()
	c := newClient(t)
	if _, err := c.Submit(ctx, sparkxd.JobSpec{Kind: "compile"}); err == nil {
		t.Error("invalid spec must be rejected")
	}
}

// A throttled submission (429 + Retry-After) is retried transparently:
// the client sleeps at least the advertised delay, reports each throttle
// through the hook, tags requests with the submitter header, and the
// call ultimately succeeds without the caller seeing the 429s.
func TestSubmitRetriesAfter429(t *testing.T) {
	var requests atomic.Int32
	status := sparkxd.JobStatus{ID: "job-1", State: sparkxd.JobQueued}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-Sparkxd-Submitter"); got != "loadgen-7" {
			t.Errorf("submitter header = %q, want loadgen-7", got)
		}
		switch requests.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
		case 2:
			// No Retry-After: the client falls back to its own backoff.
			http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(status)
		}
	}))
	t.Cleanup(ts.Close)

	var throttles []time.Duration
	c, err := client.New(ts.URL,
		client.WithSubmitter("loadgen-7"),
		client.WithThrottleHook(func(d time.Duration) { throttles = append(throttles, d) }))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := c.Submit(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatalf("Submit after 429s: %v", err)
	}
	if got.ID != status.ID {
		t.Errorf("status ID = %q, want %q", got.ID, status.ID)
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3", n)
	}
	if len(throttles) != 2 {
		t.Fatalf("throttle hook fired %d times, want 2", len(throttles))
	}
	if throttles[0] < time.Second {
		t.Errorf("first delay %s ignored Retry-After: 1", throttles[0])
	}
	if throttles[1] <= 0 {
		t.Errorf("second delay %s not positive", throttles[1])
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("Submit returned after %s, before the advertised Retry-After", elapsed)
	}
}

// A context cancelled mid-throttle aborts the retry loop promptly.
func TestThrottleRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Submit(ctx, tinySweepSpec()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled submit did not return promptly")
	}
}
