package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
	"sparkxd/internal/worker"
)

// tinySweepJob is a laptop-fast 2-scenario sweep job spec.
func tinySweepJob() sparkxd.JobSpec {
	return sparkxd.JobSpec{
		Kind:   sparkxd.JobSweep,
		Config: tinyConfig(),
		Sweep: &sparkxd.SweepSpec{
			Voltages:    []float64{1.1},
			BERs:        []float64{1e-5, 1e-4},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
			Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
		},
	}
}

// waitState polls a job until pred holds.
func waitState(t *testing.T, srv *Server, id string, what string, pred func(sparkxd.JobStatus) bool) sparkxd.JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		status, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if pred(status) {
			return status
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, what)
	return sparkxd.JobStatus{}
}

// The full lease lifecycle under a worker crash: the job is leased
// exactly once (double-lease rejection), the silent worker's lease
// expires and the job requeues with that worker excluded, a second
// worker completes it, and the artifact is byte-identical to an
// in-process run of the same spec — the re-execution-safety property
// that content-addressed job IDs buy.
func TestLeaseCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, err := New(Config{
		Workers:  2,
		Dispatch: DispatchFleet,
		// Short enough that crash expiry keeps the test fast, long enough
		// that a race-detector-slowed heartbeat round trip never expires a
		// healthy worker's lease.
		LeaseTTL: time.Second,
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := tinySweepJob()
	status, created, err := srv.Submit(spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}

	// "crashy" leases the job... and dies without ever heartbeating.
	grants, err := srv.AcquireLeases("crashy", 4)
	if err != nil || len(grants) != 1 {
		t.Fatalf("AcquireLeases = %v, %v; want one grant", grants, err)
	}
	if grants[0].JobID != status.ID {
		t.Fatalf("leased job %s, want %s", grants[0].JobID, status.ID)
	}

	// At-most-one active lease: the leased job is not re-grantable.
	if g2, _ := srv.AcquireLeases("bystander", 4); len(g2) != 0 {
		t.Fatalf("double lease granted: %v", g2)
	}

	// The lease expires; the job requeues with crashy excluded.
	waitState(t, srv, status.ID, "requeued", func(st sparkxd.JobStatus) bool {
		return st.State == sparkxd.JobQueued
	})
	if _, err := srv.RenewLease(grants[0].LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("renew of expired lease: err = %v, want ErrLeaseLost", err)
	}
	if g3, _ := srv.AcquireLeases("crashy", 4); len(g3) != 0 {
		t.Errorf("excluded worker re-leased its failed job: %v", g3)
	}

	// A healthy replacement worker picks the job up and completes it.
	w, err := worker.New(worker.Config{
		Coordinator:   ts.URL,
		Name:          "medic",
		Slots:         2,
		Poll:          30 * time.Millisecond,
		FlushInterval: 30 * time.Millisecond,
		DrainTimeout:  time.Second,
		Logger:        testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(wctx) }()
	t.Cleanup(func() { stopWorker(); <-workerDone })

	final := waitState(t, srv, status.ID, "done", func(st sparkxd.JobStatus) bool {
		return st.State.Terminal()
	})
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}

	// Byte-identity with the in-process run: the artifact key IS the
	// content address, so matching keys proves matching bytes.
	opts, err := spec.Config.Options()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sparkxd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
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
	wantKey, err := store.KeyFor(sparkxd.KindSweepReport, direct)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, ok := final.Artifacts["sweep"]
	if !ok {
		t.Fatalf("no sweep artifact (have %v)", final.Artifacts)
	}
	if string(gotKey) != string(wantKey) {
		t.Errorf("fleet artifact %s != in-process content address %s", gotKey, wantKey)
	}
	if _, err := srv.Store().Get(gotKey); err != nil {
		t.Errorf("uploaded artifact unreadable: %v", err)
	}
}

// Exclusion must not starve a job: when the only live worker is the
// one whose lease expired, the exclusion set is cleared and the worker
// gets a second chance instead of the job sitting queued forever.
func TestSoloWorkerExclusionEscape(t *testing.T) {
	srv, err := New(Config{
		Workers:  1,
		Dispatch: DispatchFleet,
		LeaseTTL: 50 * time.Millisecond,
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	status, _, err := srv.Submit(tinySweepJob())
	if err != nil {
		t.Fatal(err)
	}
	grants, err := srv.AcquireLeases("solo", 1)
	if err != nil || len(grants) != 1 {
		t.Fatalf("AcquireLeases = %v, %v", grants, err)
	}
	waitState(t, srv, status.ID, "requeued", func(st sparkxd.JobStatus) bool {
		return st.State == sparkxd.JobQueued
	})
	// solo is excluded, but it is also the only worker alive — the
	// exclusion is wiped and the job re-leased.
	again, err := srv.AcquireLeases("solo", 1)
	if err != nil || len(again) != 1 {
		t.Fatalf("solo worker never got its second chance: %v, %v", again, err)
	}
	if again[0].JobID != status.ID {
		t.Errorf("re-leased %s, want %s", again[0].JobID, status.ID)
	}
}

// Completing a lost lease is rejected, and a completion referencing
// never-uploaded artifacts is invalid.
func TestLeaseCompletionValidation(t *testing.T) {
	srv, err := New(Config{
		Workers:  1,
		Dispatch: DispatchFleet,
		LeaseTTL: time.Minute,
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	if err := srv.CompleteLease("lease-999999", nil, "boom", nil); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("completing an unknown lease: err = %v, want ErrLeaseLost", err)
	}
	status, _, err := srv.Submit(tinySweepJob())
	if err != nil {
		t.Fatal(err)
	}
	grants, err := srv.AcquireLeases("w", 1)
	if err != nil || len(grants) != 1 {
		t.Fatalf("AcquireLeases = %v, %v", grants, err)
	}
	missing := sparkxd.ArtifactKey(sparkxd.KindSweepReport + "/0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	err = srv.CompleteLease(grants[0].LeaseID, map[string]sparkxd.ArtifactKey{"sweep": missing}, "", nil)
	if !errors.Is(err, ErrBadComplete) {
		t.Errorf("completion with missing artifact: err = %v, want ErrBadComplete", err)
	}
	if err := srv.CompleteLease(grants[0].LeaseID, nil, "", nil); !errors.Is(err, ErrBadComplete) {
		t.Errorf("empty completion: err = %v, want ErrBadComplete", err)
	}
	// The lease survives rejected completions; releasing requeues.
	if err := srv.ReleaseLease(grants[0].LeaseID); err != nil {
		t.Errorf("release: %v", err)
	}
	st, _ := srv.Job(status.ID)
	if st.State != sparkxd.JobQueued {
		t.Errorf("released job state = %s, want queued", st.State)
	}
}

// A server restarted over the same store serves a previously-completed
// submission from its persisted job record: terminal immediately, same
// artifact keys, nothing re-executed.
func TestRestartServedFromPersistedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	dir := t.TempDir()
	st1, err := sparkxd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(Config{Store: st1, Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig()}
	status, _, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv1, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	srv1.Close()

	st2, err := sparkxd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Store: st2, Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	// No waiting: the resubmission must be answered terminal on the spot.
	again, created, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Error("resubmission after restart created a fresh job instead of hitting the record")
	}
	if again.ID != status.ID {
		t.Errorf("restarted server assigned ID %s, want %s", again.ID, status.ID)
	}
	if again.State != sparkxd.JobDone {
		t.Fatalf("state after restart = %s, want done (no recompute)", again.State)
	}
	if len(again.Artifacts) != len(final.Artifacts) {
		t.Fatalf("artifacts %v != %v", again.Artifacts, final.Artifacts)
	}
	for role, key := range final.Artifacts {
		if again.Artifacts[role] != key {
			t.Errorf("artifact %q: %s != %s", role, again.Artifacts[role], key)
		}
		if _, err := st2.Stat(key); err != nil {
			t.Errorf("artifact %s missing after restart: %v", key, err)
		}
	}

	// Event indices reset with the rebuilt job table; an SSE consumer
	// resuming with a stale (too-large) Last-Event-ID must still see the
	// terminal event, not an empty clean EOF.
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+status.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawDone := false
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
		if ev.Stage == "job" && ev.Phase == "done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("stale Last-Event-ID after restart hid the terminal event (empty clean EOF)")
	}
}

// Local slots are leased one job at a time, not claimed in batches: a
// quick job submitted while a slow one runs takes the idle second slot
// at once and finishes first.
func TestQuickJobPassesSlowJobOnIdleSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, err := New(Config{Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	slowCfg := tinyConfig()
	slowCfg.Neurons, slowCfg.TrainSamples, slowCfg.BaseEpochs = 100, 400, 3
	slow, _, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: slowCfg})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, slow.ID, "running", func(st sparkxd.JobStatus) bool {
		return st.State == sparkxd.JobRunning
	})
	quick, _, err := srv.Submit(sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, srv, quick.ID); final.State != sparkxd.JobDone {
		t.Fatalf("quick job failed: %s", final.Error)
	}
	if st, _ := srv.Job(slow.ID); st.State.Terminal() {
		t.Errorf("slow job reached %s before the quick job finished: the quick job waited for its slot", st.State)
	}
}

// Shutting down mid-execution requeues the in-flight job instead of
// stranding it in "running" or spuriously failing it.
func TestCloseRequeuesInFlightJob(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, err := New(Config{Workers: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	status, _, err := srv.Submit(tinySweepJob())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, status.ID, "running", func(st sparkxd.JobStatus) bool {
		return st.State == sparkxd.JobRunning
	})
	srv.Close()
	st, _ := srv.Job(status.ID)
	if st.State != sparkxd.JobQueued {
		t.Errorf("state after shutdown = %s (error %q), want queued", st.State, st.Error)
	}
}
