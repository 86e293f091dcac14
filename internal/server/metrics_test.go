package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
)

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func submitJSON(t *testing.T, ts *httptest.Server, spec sparkxd.JobSpec, hdr map[string]string) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A completed local job must leave its trace across the whole
// instrument set: submission counters, job latency, stage durations,
// warm-System cache counters, store puts, and queue depth at zero.
func TestMetricsEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig()}
	status, created, err := srv.Submit(spec)
	if err != nil || !created {
		t.Fatalf("Submit: created=%v err=%v", created, err)
	}
	waitDone(t, srv, status.ID)
	if _, _, err := srv.Submit(spec); err != nil {
		t.Fatal(err)
	}

	out := scrape(t, ts)
	for _, want := range []string{
		`sparkxd_jobs_submitted_total{result="created"} 1`,
		`sparkxd_jobs_submitted_total{result="duplicate"} 1`,
		`sparkxd_jobs_completed_total{outcome="done",executor="local"} 1`,
		`sparkxd_job_latency_seconds_count{kind="pipeline"} 1`,
		`sparkxd_job_stage_duration_seconds_count{stage="train"} 1`,
		`sparkxd_warm_systems_misses_total 1`,
		`sparkxd_warm_systems 1`,
		`sparkxd_queue_depth 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Job-record persistence goes through the metered store.
	if !strings.Contains(out, `sparkxd_store_ops_total{op="put"}`) {
		t.Errorf("/metrics missing store put counter:\n%s", out)
	}
	// The coordinator's and its in-process worker's registries merge
	// into one exposition with every family exactly once.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if seen[f[2]] {
				t.Errorf("/metrics repeats the # TYPE line of %s", f[2])
			}
			seen[f[2]] = true
		}
	}
}

// Admission control: past the burst, submissions answer 429 with a
// Retry-After header, and the throttle shows up in the metrics.
func TestAdmissionControl(t *testing.T) {
	srv, err := New(Config{Dispatch: DispatchFleet, Rate: 0.001, Burst: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	hdr := map[string]string{SubmitterHeader: "alice"}
	for i := 0; i < 2; i++ {
		spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train",
			Config: sparkxd.ConfigSpec{Neurons: 40, Seed: uint64(i + 1)}}
		resp := submitJSON(t, ts, spec, hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submitJSON(t, ts, sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train",
		Config: sparkxd.ConfigSpec{Neurons: 40, Seed: 3}}, hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// A different submitter has its own bucket.
	resp = submitJSON(t, ts, sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train",
		Config: sparkxd.ConfigSpec{Neurons: 40, Seed: 4}}, map[string]string{SubmitterHeader: "bob"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other submitter: status %d, want 202", resp.StatusCode)
	}

	if !strings.Contains(scrape(t, ts), `sparkxd_jobs_submitted_total{result="throttled"} 1`) {
		t.Error("throttled submission not counted")
	}
}

// The admitter refills at its configured rate and prunes idle buckets.
func TestAdmitterRefillAndPrune(t *testing.T) {
	a := newAdmitter(10, 1) // 10 tokens/s, burst 1
	now := time.Unix(0, 0)
	a.now = func() time.Time { return now }

	ok, _ := a.admit("k")
	if !ok {
		t.Fatal("first token denied")
	}
	ok, retry := a.admit("k")
	if ok {
		t.Fatal("drained bucket admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry = %s, want (0, 100ms]", retry)
	}
	now = now.Add(retry)
	if ok, _ := a.admit("k"); !ok {
		t.Fatal("bucket did not refill after the advertised Retry-After")
	}

	now = now.Add(time.Hour)
	a.mu.Lock()
	a.pruneLocked(now)
	n := len(a.buckets)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d idle buckets survived pruning", n)
	}
}

// Lease grants follow aged priority: higher priority first, FIFO within
// a priority, and a long-waiting low-priority job overtakes fresher
// higher-priority work once its age has bought enough steps.
func TestPriorityLeaseOrder(t *testing.T) {
	srv, err := New(Config{Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	submit := func(prio int, seed uint64) string {
		status, created, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train",
			Priority: prio, Config: sparkxd.ConfigSpec{Neurons: 40, Seed: seed}})
		if err != nil || !created {
			t.Fatalf("submit: created=%v err=%v", created, err)
		}
		return status.ID
	}
	low := submit(-5, 1)
	mid := submit(0, 2)
	high := submit(50, 3)

	grants, err := srv.AcquireLeases("w1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 3 {
		t.Fatalf("granted %d leases, want 3", len(grants))
	}
	got := []string{grants[0].JobID, grants[1].JobID, grants[2].JobID}
	want := []string{high, mid, low}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}

	// Aging: a job queued long ago outranks a fresh higher-priority one.
	aged := &jobRec{status: sparkxd.JobStatus{Spec: sparkxd.JobSpec{Priority: 0}},
		queuedAt: time.Now().Add(-10 * agingQuantum)}
	fresh := &jobRec{status: sparkxd.JobStatus{Spec: sparkxd.JobSpec{Priority: 5}},
		queuedAt: time.Now()}
	now := time.Now()
	if effPriority(aged, now) <= effPriority(fresh, now) {
		t.Fatalf("aged priority %d did not overtake fresh priority %d",
			effPriority(aged, now), effPriority(fresh, now))
	}
}

// healthz reports the cheap triage numbers: dispatch mode, queue depth,
// and the roster size. A worker joins the roster, with its slots, by
// asking for a lease, even one that is granted nothing.
func TestHealthzReportsQueueState(t *testing.T) {
	srv, err := New(Config{Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	lease, err := ts.Client().Post(ts.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker": "w1", "slots": 2, "capacity": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	lease.Body.Close()
	if lease.StatusCode != http.StatusOK {
		t.Fatalf("lease request: %s", lease.Status)
	}
	roster, err := ts.Client().Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer roster.Body.Close()
	var workers []fleetapi.WorkerStatus
	if err := json.NewDecoder(roster.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].Name != "w1" || workers[0].Slots != 2 || workers[0].ActiveLeases != 0 {
		t.Fatalf("roster = %+v, want w1 with 2 slots and no lease", workers)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train",
			Config: sparkxd.ConfigSpec{Neurons: 40, Seed: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status     string `json:"status"`
		Dispatch   string `json:"dispatch"`
		Workers    int    `json:"workers"`
		QueueDepth int    `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Dispatch != "fleet" || body.Workers != 1 || body.QueueDepth != 3 {
		t.Fatalf("healthz = %+v, want ok/fleet/1 worker/depth 3", body)
	}
}

// An out-of-range priority is rejected at submission, not clamped
// (clamping would silently merge distinct specs into one job ID).
func TestSubmitRejectsOutOfRangePriority(t *testing.T) {
	srv, _ := newTestServer(t)
	_, _, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline,
		Priority: sparkxd.MaxPriority + 1, Config: tinyConfig()})
	if err == nil {
		t.Fatal("out-of-range priority accepted")
	}
	if msg := fmt.Sprint(err); !strings.Contains(msg, "priority") {
		t.Fatalf("error %q does not mention priority", msg)
	}
}
