// End-to-end tests of the fleet worker against an in-process
// coordinator: lease → execute → event bridging → upload → complete,
// plus the graceful drain path.
package worker_test

import (
	"bufio"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
	"sparkxd/internal/server"
	"sparkxd/internal/worker"
)

// testLogger returns a text logger that writes each record through
// t.Log, so a failing test prints the component's records.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func tinyConfig() sparkxd.ConfigSpec {
	return sparkxd.ConfigSpec{
		Neurons:      40,
		TrainSamples: 50,
		TestSamples:  25,
		BaseEpochs:   1,
		BERSchedule:  []float64{1e-5, 1e-3},
	}
}

func newFleet(t *testing.T, slots int) (*server.Server, *httptest.Server, *worker.Worker, context.CancelFunc) {
	t.Helper()
	srv := newCoordinator(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	w, stop := startWorker(t, worker.Config{
		Coordinator: ts.URL,
		Slots:       slots,
		Poll:        30 * time.Millisecond,
	})
	return srv, ts, w, stop
}

// newCoordinator builds a fleet-dispatch coordinator (no local slots).
func newCoordinator(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Dispatch: server.DispatchFleet,
		LeaseTTL: time.Second,
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// startWorker runs a worker (named test-worker, with quick event
// flushes and a long drain window unless cfg says otherwise) until the
// returned stop is called or the test ends.
func startWorker(t *testing.T, cfg worker.Config) (*worker.Worker, context.CancelFunc) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-worker"
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 30 * time.Millisecond
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = time.Minute
	}
	cfg.Logger = testLogger(t)
	w, err := worker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return w, cancel
}

// waitFor polls cond every 5ms until it holds or d passes, and reports
// whether it held.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// leased reports whether a job has left the queue.
func leased(srv *server.Server, id string) func() bool {
	return func() bool {
		st, _ := srv.Job(id)
		return st.State != sparkxd.JobQueued
	}
}

func submit(t *testing.T, srv *server.Server, seed uint64) string {
	t.Helper()
	cfg := tinyConfig()
	cfg.Seed = seed
	status, created, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: cfg})
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	return status.ID
}

func waitTerminal(t *testing.T, srv *server.Server, id string) sparkxd.JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		status, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if status.State.Terminal() {
			return status
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return sparkxd.JobStatus{}
}

// A fleet-dispatched pipeline job is leased, executed remotely, its
// stage events are bridged into the coordinator's SSE feed, and its
// artifacts land in the coordinator's store.
func TestWorkerExecutesLeasedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, ts, _, _ := newFleet(t, 2)
	status, _, err := srv.Submit(sparkxd.JobSpec{
		Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	key, ok := final.Artifacts["baseline"]
	if !ok {
		t.Fatalf("no baseline artifact (have %v)", final.Artifacts)
	}
	m, err := sparkxd.GetTrainedModel(srv.Store(), key)
	if err != nil {
		t.Fatalf("uploaded model unreadable: %v", err)
	}
	if m.Neurons != 40 || m.WeightCount() == 0 {
		t.Errorf("uploaded model looks wrong: neurons=%d weights=%d", m.Neurons, m.WeightCount())
	}

	// The worker must have registered, and the job's event log must
	// contain bridged engine events (stage "train"), not just the
	// coordinator's own lifecycle markers.
	workers := srv.Workers()
	if len(workers) != 1 || workers[0].Name != "test-worker" {
		t.Errorf("fleet registry = %+v, want one test-worker", workers)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stages []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev sparkxd.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		stages = append(stages, ev.Stage+"/"+ev.Phase)
	}
	joined := strings.Join(stages, " ")
	if !strings.Contains(joined, "job/running") {
		t.Errorf("event log missing lease marker: %v", stages)
	}
	if !strings.Contains(joined, "train/") {
		t.Errorf("no bridged worker engine events in %v", stages)
	}
	if stages[len(stages)-1] != "job/done" {
		t.Errorf("stream did not end with job/done: %v", stages)
	}
}

// Cancelling the worker's context while a job is in flight drains: the
// job completes normally inside the drain window rather than being
// abandoned to lease expiry.
func TestWorkerDrainCompletesInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, _, _, stopWorker := newFleet(t, 1)
	status, _, err := srv.Submit(sparkxd.JobSpec{
		Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the lease to be taken, then signal the worker.
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := srv.Job(status.ID)
		if st.State == sparkxd.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never leased")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopWorker()
	final := waitTerminal(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("drained job state = %s (%s), want done", final.State, final.Error)
	}
}

// An idle worker's lease request waits on the coordinator (long-poll),
// so a job submitted mid-wait is leased at once, not at the next Poll.
func TestIdleWorkerLongPollLeasesPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv := newCoordinator(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 5 * time.Second})
	if !waitFor(10*time.Second, func() bool { return len(srv.Workers()) == 1 }) {
		t.Fatal("worker never registered")
	}
	time.Sleep(100 * time.Millisecond) // into the worker's first wait
	id := submit(t, srv, 1)
	if !waitFor(time.Second, leased(srv, id)) {
		t.Fatal("job submitted during an idle worker's wait was not leased within 1s")
	}
}

// A worker with every slot busy asks for work the moment a slot frees,
// not at its next Poll.
func TestBusyWorkerRefillsFreedSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv := newCoordinator(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	first, second := submit(t, srv, 1), submit(t, srv, 2)
	startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 5 * time.Second})
	final := waitTerminal(t, srv, first)
	if final.State != sparkxd.JobDone {
		t.Fatalf("first job: %s (%s)", final.State, final.Error)
	}
	if !waitFor(time.Second, leased(srv, second)) {
		t.Fatal("queued job not leased within 1s of the only slot freeing")
	}
}

// Against a coordinator that ignores the wait and answers every lease
// request empty at once, an idle worker sleeps out the rest of its Poll
// instead of spinning.
func TestWorkerDoesNotSpinOnImmediateEmptyAnswers(t *testing.T) {
	var leaseRequests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(fleetapi.RegisterResponse{Name: "test-worker", LeaseTTLMillis: 1000})
	})
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		leaseRequests.Add(1)
		json.NewEncoder(w).Encode(fleetapi.LeaseResponse{})
	})
	old := httptest.NewServer(mux)
	t.Cleanup(old.Close)
	_, stop := startWorker(t, worker.Config{Coordinator: old.URL, Poll: 200 * time.Millisecond})
	if !waitFor(10*time.Second, func() bool { return leaseRequests.Load() > 0 }) {
		t.Fatal("worker never asked for a lease")
	}
	time.Sleep(time.Second)
	stop()
	// One request per 200ms Poll over the second, plus the first.
	if n := leaseRequests.Load(); n > 7 {
		t.Fatalf("%d lease requests in about 1s at Poll 200ms: the worker spins", n)
	}
}

// countingStore counts the Puts a worker makes into its direct store.
type countingStore struct {
	sparkxd.ArtifactStore
	puts atomic.Int64
}

func (c *countingStore) Put(kind string, payload any) (sparkxd.ArtifactKey, error) {
	c.puts.Add(1)
	return c.ArtifactStore.Put(kind, payload)
}

// With a direct Store the worker puts each artifact once and uploads
// nothing through the coordinator, so its upload-bytes counter stays 0.
func TestWorkerDirectStorePutsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv := newCoordinator(t)
	var uploads atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/artifacts/") {
			uploads.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	st := &countingStore{ArtifactStore: srv.Store()}
	w, _ := startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 30 * time.Millisecond, Store: st})

	final := waitTerminal(t, srv, submit(t, srv, 1))
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if got, want := st.puts.Load(), int64(len(final.Artifacts)); got != want {
		t.Errorf("direct store saw %d Puts for %d artifacts", got, want)
	}
	if n := uploads.Load(); n != 0 {
		t.Errorf("%d PUT /v1/artifacts requests with a direct store", n)
	}
	rec := httptest.NewRecorder()
	w.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "sparkxd_worker_upload_bytes_total 0\n") {
		t.Errorf("upload bytes counted on the direct-store path:\n%s", rec.Body.String())
	}
}
