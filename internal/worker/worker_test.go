// End-to-end tests of the fleet worker against an in-process
// coordinator: lease → execute → renewals bridging events and spans →
// upload → complete, plus the graceful drain path.
package worker_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
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

	// The worker's lease requests put it on the roster with its slots,
	// and the job's event log must contain bridged engine events (stage
	// "train"), not just the coordinator's own lifecycle markers.
	workers := srv.Workers()
	if len(workers) != 1 || workers[0].Name != "test-worker" || workers[0].Slots != 2 {
		t.Errorf("roster = %+v, want one test-worker with 2 slots", workers)
	}
	var stages []string
	for _, ev := range sseEvents(t, ts.URL, status.ID) {
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

// sseEvents reads a terminal job's whole event stream.
func sseEvents(t *testing.T, base, id string) []sparkxd.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []sparkxd.Event
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
		evs = append(evs, ev)
	}
	return evs
}

// improveEvents returns the events an in-process Train and
// ImproveTolerance of cfg emit, in order.
func improveEvents(t *testing.T, cfg sparkxd.ConfigSpec) []sparkxd.Event {
	t.Helper()
	opts, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	var evs []sparkxd.Event
	sys, err := sparkxd.New(append(opts, sparkxd.WithObserver(func(ev sparkxd.Event) { evs = append(evs, ev) }))...)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Pipeline()
	if _, err := p.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImproveTolerance(context.Background()); err != nil {
		t.Fatal(err)
	}
	return evs
}

// stageEvents returns a terminal job's events other than the
// coordinator's own "job" lifecycle markers.
func stageEvents(t *testing.T, base, id string) []sparkxd.Event {
	t.Helper()
	var evs []sparkxd.Event
	for _, ev := range sseEvents(t, base, id) {
		if ev.Stage != "job" {
			evs = append(evs, ev)
		}
	}
	return evs
}

// Two jobs that differ only in priority have two IDs but one config
// fingerprint, so one 2-slot worker runs both at once on one warm
// System. Each job's event log must hold exactly the events of an
// in-process run, in order, and none of the other job's.
func TestConcurrentJobsGetOnlyTheirOwnEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "improve", Config: tinyConfig()}
	want := improveEvents(t, spec.Config)

	srv := newCoordinator(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// Both jobs are queued before the worker asks, so its first lease
	// request takes them together.
	var ids []string
	for prio := range 2 {
		spec.Priority = prio
		status, created, err := srv.Submit(spec)
		if err != nil || !created {
			t.Fatalf("submit priority %d: created=%v err=%v", prio, created, err)
		}
		ids = append(ids, status.ID)
	}
	startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 2, Poll: 30 * time.Millisecond})
	for _, id := range ids {
		if final := waitTerminal(t, srv, id); final.State != sparkxd.JobDone {
			t.Fatalf("job %s %s: %s", id, final.State, final.Error)
		}
		if got := stageEvents(t, ts.URL, id); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s: %d stage events, want the in-process run's %d:\n got %+v\nwant %+v", id, len(got), len(want), got, want)
		}
	}
}

// A renewal that fails is delivered again by the next one: with the
// first event-carrying renewal answered 503, the job's event log holds
// each stage event of an in-process run of the same job exactly once
// and in order, and its trace each stage span once.
func TestWorkerRedeliversFailedRenewal(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "improve", Config: tinyConfig()}
	want := improveEvents(t, spec.Config)

	srv := newCoordinator(t)
	var refused atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/renew") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var renewal struct {
				Events []json.RawMessage `json:"events"`
			}
			if json.Unmarshal(body, &renewal) == nil && len(renewal.Events) > 0 && refused.CompareAndSwap(0, 1) {
				http.Error(w, "coordinator briefly unavailable", http.StatusServiceUnavailable)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 30 * time.Millisecond})

	status, _, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	if refused.Load() == 0 {
		t.Fatal("no lease renewal carried events")
	}
	if got := stageEvents(t, ts.URL, status.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("bridged stage events differ from the in-process run:\n got %+v\nwant %+v", got, want)
	}
	tr, _, err := srv.TraceFor(status.ID)
	if err != nil || tr == nil {
		t.Fatalf("TraceFor = %v, %v", tr, err)
	}
	var stages []string
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "stage:") {
			stages = append(stages, sp.Name)
		}
	}
	if want := []string{"stage:train", "stage:improve"}; !reflect.DeepEqual(stages, want) {
		t.Errorf("trace stage spans %v, want %v", stages, want)
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

// With a direct Store the worker puts each artifact once and sends no
// artifact PUT to the coordinator.
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
	startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 30 * time.Millisecond, Store: st})

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
}

// A worker without a Store puts into the coordinator's store over the
// artifact wire, which retries a transient failure: a 503 on the first
// artifact PUT costs one retry, not the lease. The job completes on its
// first lease, and the coordinator never requeues it.
func TestWorkerRetriesTransientArtifactPut(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv := newCoordinator(t)
	var puts atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/artifacts/") && puts.Add(1) == 1 {
			http.Error(w, "store briefly unavailable", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	w, _ := startWorker(t, worker.Config{Coordinator: ts.URL, Slots: 1, Poll: 30 * time.Millisecond})

	final := waitTerminal(t, srv, submit(t, srv, 1))
	if final.State != sparkxd.JobDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	if got, want := puts.Load(), int64(len(final.Artifacts))+1; got != want {
		t.Errorf("%d artifact PUTs for %d artifacts and one 503, want %d", got, len(final.Artifacts), want)
	}
	scrape := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	if body := scrape(h); !strings.Contains(body, "sparkxd_jobs_requeued_total 0\n") {
		t.Errorf("coordinator requeued the job:\n%s", body)
	}
	// The worker counts its outcome once the completion round trip
	// returns, which may be just after the job turned done.
	var body string
	waitFor(5*time.Second, func() bool {
		body = scrape(w.MetricsHandler())
		return strings.Contains(body, `sparkxd_worker_jobs_total{outcome="done"} 1`+"\n")
	})
	if !strings.Contains(body, `sparkxd_worker_jobs_total{outcome="done"} 1`+"\n") ||
		strings.Contains(body, `outcome="abandoned"`) {
		t.Errorf("worker outcomes, want one done and no abandoned:\n%s", body)
	}
}

// Without a Store the worker's artifacts go to the coordinator over
// the artifact wire, so a coordinator URL that wire cannot use fails
// New at once instead of the first artifact PUT.
func TestNewRejectsNonHTTPCoordinator(t *testing.T) {
	if _, err := worker.New(worker.Config{Coordinator: "ftp://127.0.0.1:1"}); err == nil {
		t.Fatal("New accepted an ftp:// coordinator")
	}
}
