// Package worker is the one executor of the sparkxd job service
// (DESIGN.md §9): a Worker leases queued jobs from a coordinator,
// executes them against a cache of warm per-configuration Systems,
// streams stage events back for SSE bridging, stores result envelopes
// in the coordinator's content-addressed store, and completes the
// lease. A `sparkxd worker`
// process joins a coordinator over HTTP; a coordinator in local
// dispatch runs its own slots as a Worker in its process, leasing
// through direct handler calls.
//
// Liveness is lease-based: the worker heartbeats each lease a few times
// per TTL window; a worker that crashes or partitions simply goes
// silent, its leases expire, and the coordinator requeues the jobs with
// the dead worker excluded. Because job IDs are content hashes and
// execution is deterministic, the re-executed job provably reproduces
// byte-identical artifacts — requeue is always safe.
package worker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
	"sparkxd/internal/logging"
	"sparkxd/internal/store"
	"sparkxd/internal/tracing"
)

// Config parameterizes a Worker.
type Config struct {
	// Coordinator is the job server's base URL (e.g.
	// "http://127.0.0.1:8080").
	Coordinator string
	// Name identifies the worker to the coordinator (default:
	// "<hostname>-<pid>").
	Name string
	// Slots is how many leased jobs execute concurrently (<= 0:
	// GOMAXPROCS). Each job's sweep stage additionally fans out on the
	// local internal/sched pool sized by the same value.
	Slots int
	// MaxWarmSystems bounds the warm-System engine cache; 0 keeps it
	// unbounded (mirrors the coordinator's -max-warm-systems).
	MaxWarmSystems int
	// Poll is how long an idle worker waits for work per lease request
	// (zero: 500ms): the coordinator holds the request until a job is
	// queued, and one that answers empty sooner is asked again only once
	// Poll has passed.
	Poll time.Duration
	// DrainTimeout bounds how long a signalled worker keeps finishing
	// in-flight jobs before releasing their leases (zero: 30s).
	DrainTimeout time.Duration
	// FlushInterval batches forwarded engine events (zero: 200ms).
	FlushInterval time.Duration
	// HTTPClient overrides the coordinator transport (nil: 30s-timeout
	// default client). A remote Store opened with the same client shares
	// its connection pool.
	HTTPClient *http.Client
	// Store, when non-nil, receives result artifacts directly (e.g. the
	// federation's shared remote store, optionally wrapped read-through,
	// or a coordinator's own store for its in-process worker) instead of
	// uploading them through the coordinator's artifact endpoint. The
	// coordinator must be backed by the same store, or completions will
	// fail its artifact verification.
	Store sparkxd.ArtifactStore
	// Logger, when non-nil, receives structured logs (job/lease/trace
	// IDs as attrs).
	Logger *slog.Logger
}

// Worker leases and executes jobs from one coordinator.
type Worker struct {
	name          string
	slots         int
	poll          time.Duration
	drainTimeout  time.Duration
	flushInterval time.Duration
	log           *slog.Logger
	api           *coordClient
	st            sparkxd.ArtifactStore // nil: upload via the coordinator

	ttl time.Duration // coordinator's lease TTL (learned at register)

	metrics *workerMetrics

	mu      sync.Mutex
	running int
	systems *systems // shared warm engines, one per config fingerprint
	byFP    map[string]map[*task]struct{}
	// freed receives (without blocking) whenever an execution ends, so
	// a worker with every slot busy asks for work as soon as one frees.
	freed chan struct{}
}

// task is one in-flight leased job.
type task struct {
	grant  fleetapi.Grant
	cancel context.CancelFunc

	mu      sync.Mutex
	pending []sparkxd.Event
	lost    bool
}

func (t *task) markLost() {
	t.mu.Lock()
	t.lost = true
	t.mu.Unlock()
	t.cancel()
}

func (t *task) isLost() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lost
}

func (t *task) append(ev sparkxd.Event) {
	t.mu.Lock()
	t.pending = append(t.pending, ev)
	t.mu.Unlock()
}

func (t *task) take() []sparkxd.Event {
	t.mu.Lock()
	evs := t.pending
	t.pending = nil
	t.mu.Unlock()
	return evs
}

// New builds a Worker (it does not contact the coordinator yet; Run
// registers and retries until the coordinator answers).
func New(cfg Config) (*Worker, error) {
	api, err := newCoordClient(cfg.Coordinator, cfg.HTTPClient)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 30 * time.Second
	}
	flush := cfg.FlushInterval
	if flush <= 0 {
		flush = 200 * time.Millisecond
	}
	w := &Worker{
		name:          name,
		slots:         slots,
		poll:          poll,
		drainTimeout:  drain,
		flushInterval: flush,
		log:           logging.New(cfg.Logger),
		api:           api,
		st:            cfg.Store,
		byFP:          make(map[string]map[*task]struct{}),
		freed:         make(chan struct{}, 1),
	}
	w.systems = newSystems(slots, cfg.MaxWarmSystems, w.fanout)
	w.metrics = newWorkerMetrics(w)
	return w, nil
}

// Name returns the worker's fleet name.
func (w *Worker) Name() string { return w.name }

// Run registers with the coordinator and processes leased jobs until
// ctx is cancelled, then drains: in-flight jobs get up to DrainTimeout
// to finish (and complete normally); whatever is still running has its
// lease released so the coordinator requeues it immediately. Returns
// nil on a clean (possibly drained) shutdown.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return nil
	}

	// jobCtx outlives ctx so draining jobs keep running after the
	// shutdown signal; it is only cancelled once the drain window ends.
	jobCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	var wg sync.WaitGroup

	for ctx.Err() == nil {
		free := w.freeSlots()
		if free == 0 {
			select {
			case <-ctx.Done():
			case <-w.freed:
			}
			continue
		}
		asked := time.Now()
		resp, err := w.api.acquire(ctx, w.name, free, w.poll)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("lease request failed", "err", err)
			}
		} else {
			w.metrics.queueDepth.Set(int64(resp.QueueDepth))
		}
		for _, g := range resp.Leases {
			w.addRunning(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer w.addRunning(-1)
				w.execute(jobCtx, g)
			}()
		}
		if len(resp.Leases) == 0 {
			// A coordinator that answered empty before Poll was up (one
			// predating the long-poll, a draining one, or a failed request)
			// is asked again only once Poll has passed: never spin.
			select {
			case <-ctx.Done():
			case <-time.After(w.poll - time.Since(asked)):
			}
		}
	}

	// Drain: let in-flight jobs finish inside the window.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if n := w.runningCount(); n > 0 {
		w.log.Info("draining", "inflight", n, "timeout", w.drainTimeout)
		select {
		case <-done:
		case <-time.After(w.drainTimeout):
			w.log.Warn("drain timeout: releasing remaining leases")
			cancelJobs() // execute() sees jobCtx cancelled and releases the lease
		}
	}
	<-done
	return nil
}

// register announces the worker, retrying (the coordinator may start
// after its workers) until ctx is cancelled.
func (w *Worker) register(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	for {
		resp, err := w.api.register(ctx, w.name, w.slots)
		if err == nil {
			w.ttl = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			if w.ttl <= 0 {
				w.ttl = 15 * time.Second
			}
			w.log.Info("registered", "coordinator", w.api.base, "worker", w.name,
				"slots", w.slots, "lease_ttl", w.ttl, "dispatch", resp.Dispatch)
			return nil
		}
		if ctx.Err() != nil {
			return nil
		}
		w.log.Warn("register failed", "err", err, "retry_in", backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// execute runs one leased job end to end: heartbeat + event forwarding
// in the background, produce in the foreground, then
// artifact upload and lease completion (or release, when cancelled by
// drain timeout).
func (w *Worker) execute(jobCtx context.Context, g fleetapi.Grant) {
	ctx, cancel := context.WithCancel(jobCtx)
	defer cancel()
	t := &task{grant: g, cancel: cancel}

	// The execution envelope span parents onto the coordinator's lease
	// span (carried by the grant's traceparent); every worker-side span
	// nests under it. A grant without a (valid) traceparent roots a
	// throwaway trace — the coordinator drops spans for untraced jobs.
	parent, _ := tracing.ParseTraceparent(g.Traceparent)
	exec := tracing.Start(parent, w.name, "execute")
	exec.SetAttr("lease_id", g.LeaseID)
	failWith := func(failure string) {
		exec.SetAttr("outcome", "failed")
		w.completeWith(t, nil, failure, []sparkxd.TraceSpan{exec.End()})
	}

	fp, err := g.Spec.Config.Fingerprint()
	if err != nil {
		failWith(fmt.Sprintf("fingerprint: %v", err))
		return
	}
	w.addTask(fp, t)
	defer w.removeTask(fp, t)
	w.log.Info("executing", "job", g.JobID, "lease", g.LeaseID, "trace", exec.Context().TraceID.String())

	// The heartbeat must outlive execution: artifact uploads can take
	// many TTL windows, and a lease that expires mid-upload would throw
	// the finished result away. It is stopped only just before the
	// (single, bounded) completion round trip.
	stopHB := make(chan struct{})
	hbDone := make(chan struct{})
	go func() { defer close(hbDone); w.heartbeat(t, stopHB) }()
	var hbOnce sync.Once
	stopHeartbeat := func() {
		hbOnce.Do(func() { close(stopHB) })
		<-hbDone
	}
	defer stopHeartbeat()

	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() { defer close(flushDone); w.flushLoop(t, stopFlush) }()

	var produced map[string]any
	acqStart := time.Now()
	sys, built, release, err := w.systems.Acquire(fp, g.Spec.Config)
	if err == nil {
		if built {
			sd := tracing.Completed(exec.Context(), w.name, "warm-system-build",
				acqStart, time.Since(acqStart), map[string]string{"fingerprint": fp})
			t.append(sparkxd.Event{Span: &sd})
		}
		// Per-stage spans ride the ordinary event batches alongside the
		// engine events (the coordinator routes them into the trace).
		observe := func(stage string, d time.Duration) {
			w.metrics.observeStage(stage, d)
			sd := tracing.Completed(exec.Context(), w.name, "stage:"+stage,
				time.Now().Add(-d), d, nil)
			t.append(sparkxd.Event{Span: &sd})
		}
		func() {
			defer release()
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			produced, err = produce(ctx, sys, g.Spec, observe)
		}()
	} else {
		release()
	}
	close(stopFlush)
	<-flushDone
	w.flushEvents(t) // final batch, best-effort

	if t.isLost() {
		w.metrics.jobs.With("abandoned").Inc()
		w.log.Warn("lease lost, abandoning result", "job", g.JobID, "lease", g.LeaseID)
		return
	}
	if err != nil && jobCtx.Err() != nil {
		// Drain-timeout cancellation, not a real failure: hand the job
		// back so the coordinator requeues it immediately.
		stopHeartbeat()
		opCtx, opCancel := w.opContext()
		defer opCancel()
		if rerr := w.api.release(opCtx, g.LeaseID); rerr != nil && !errors.Is(rerr, ErrLeaseLost) {
			w.log.Warn("release failed", "job", g.JobID, "lease", g.LeaseID, "err", rerr)
		}
		w.metrics.jobs.With("released").Inc()
		w.log.Info("released (worker shutting down)", "job", g.JobID, "lease", g.LeaseID)
		return
	}
	if err != nil {
		stopHeartbeat()
		failWith(err.Error())
		return
	}

	// Store every produced artifact (the heartbeat keeps the lease alive
	// throughout), then mark the job complete with the role → key map.
	// With a configured Store the values go there directly and the store
	// derives each key — the coordinator shares the store, so its
	// completion-time Stat verification still passes; otherwise each is
	// encoded once and uploaded through the coordinator. The upload and
	// execution-envelope spans travel in the completion request: no
	// event batch is flushed after this point.
	uploadStart := time.Now()
	arts := make(map[string]sparkxd.ArtifactKey, len(produced))
	for role, v := range produced {
		kind, err := sparkxd.ArtifactKind(v)
		if err != nil {
			stopHeartbeat()
			failWith(fmt.Sprintf("artifact %s: %v", role, err))
			return
		}
		var key sparkxd.ArtifactKey
		if w.st != nil {
			key, err = w.st.Put(kind, v)
		} else {
			var envelope []byte
			if key, envelope, err = store.Encode(kind, v); err != nil {
				stopHeartbeat()
				failWith(fmt.Sprintf("artifact %s: %v", role, err))
				return
			}
			opCtx, opCancel := w.opContext()
			err = w.api.putArtifact(opCtx, key, envelope)
			opCancel()
			if err == nil {
				w.metrics.uploadBytes.Add(uint64(len(envelope)))
			}
		}
		if err != nil {
			w.metrics.jobs.With("abandoned").Inc()
			w.log.Warn("upload failed; abandoning (lease will expire)", "job", g.JobID, "role", role, "err", err)
			return
		}
		if t.isLost() {
			w.metrics.jobs.With("abandoned").Inc()
			w.log.Warn("lease lost mid-upload, abandoning result", "job", g.JobID, "lease", g.LeaseID)
			return
		}
		arts[role] = key
	}
	upload := tracing.Completed(exec.Context(), w.name, "artifact-upload",
		uploadStart, time.Since(uploadStart), map[string]string{"artifacts": strconv.Itoa(len(arts))})
	exec.SetAttr("outcome", "done")
	stopHeartbeat()
	w.completeWith(t, arts, "", []sparkxd.TraceSpan{upload, exec.End()})
}

// completeWith reports a job's outcome to the coordinator, attaching
// the worker's completion-time spans to the job's trace.
func (w *Worker) completeWith(t *task, arts map[string]sparkxd.ArtifactKey, failure string, spans []sparkxd.TraceSpan) {
	opCtx, opCancel := w.opContext()
	defer opCancel()
	err := w.api.complete(opCtx, t.grant.LeaseID, arts, failure, spans)
	switch {
	case errors.Is(err, ErrLeaseLost):
		w.metrics.jobs.With("abandoned").Inc()
		w.log.Warn("lease lost before completion", "job", t.grant.JobID, "lease", t.grant.LeaseID)
	case err != nil:
		w.metrics.jobs.With("abandoned").Inc()
		w.log.Warn("complete failed; abandoning (lease will expire)", "job", t.grant.JobID, "err", err)
	case failure != "":
		w.metrics.jobs.With("failed").Inc()
		w.log.Warn("job failed", "job", t.grant.JobID, "err", failure)
	default:
		w.metrics.jobs.With("done").Inc()
		w.log.Info("job done", "job", t.grant.JobID, "artifacts", len(arts))
	}
}

// heartbeat renews the task's lease a few times per TTL window. A 410
// from the coordinator — or a transport outage longer than one TTL, by
// which time the lease has certainly expired — marks the task lost and
// cancels its execution.
func (w *Worker) heartbeat(t *task, stop <-chan struct{}) {
	interval := w.ttl / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	// One renew may take much longer than the cadence (a loaded
	// coordinator still refreshes the TTL on arrival), so its timeout is
	// floored independently of the interval.
	timeout := interval
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var failingSince time.Time
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		opCtx, opCancel := context.WithTimeout(context.Background(), timeout)
		err := w.api.renew(opCtx, t.grant.LeaseID)
		opCancel()
		switch {
		case err == nil:
			w.metrics.heartbeats.With("ok").Inc()
			failingSince = time.Time{}
		case errors.Is(err, ErrLeaseLost):
			w.metrics.heartbeats.With("lost").Inc()
			w.log.Warn("heartbeat: lease lost", "job", t.grant.JobID, "lease", t.grant.LeaseID, "err", err)
			t.markLost()
			return
		default:
			w.metrics.heartbeats.With("error").Inc()
			if failingSince.IsZero() {
				failingSince = time.Now()
			}
			if time.Since(failingSince) > w.ttl {
				w.log.Warn("coordinator unreachable past the lease TTL", "job", t.grant.JobID, "err", err)
				t.markLost()
				return
			}
		}
	}
}

// flushLoop periodically forwards buffered engine events.
func (w *Worker) flushLoop(t *task, stop <-chan struct{}) {
	tick := time.NewTicker(w.flushInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.flushEvents(t)
		}
	}
}

// flushEvents posts the task's pending events. A lost lease cancels the
// job; a transient failure puts the batch back so the next flush
// retries it (the buffer is bounded in practice by the heartbeat, which
// marks the task lost once the coordinator is silent past one TTL).
func (w *Worker) flushEvents(t *task) {
	evs := t.take()
	if len(evs) == 0 || t.isLost() {
		return
	}
	opCtx, opCancel := w.opContext()
	defer opCancel()
	if err := w.api.postEvents(opCtx, t.grant.LeaseID, evs); err != nil {
		if errors.Is(err, ErrLeaseLost) {
			t.markLost()
			return
		}
		t.mu.Lock()
		t.pending = append(evs, t.pending...)
		t.mu.Unlock()
	}
}

// fanout buffers an engine event on every task currently executing on
// that fingerprint.
func (w *Worker) fanout(fp string, ev sparkxd.Event) {
	w.mu.Lock()
	tasks := make([]*task, 0, len(w.byFP[fp]))
	for t := range w.byFP[fp] {
		tasks = append(tasks, t)
	}
	w.mu.Unlock()
	for _, t := range tasks {
		t.append(ev)
	}
}

func (w *Worker) addTask(fp string, t *task) {
	w.mu.Lock()
	defer w.mu.Unlock()
	set := w.byFP[fp]
	if set == nil {
		set = make(map[*task]struct{})
		w.byFP[fp] = set
	}
	set[t] = struct{}{}
}

func (w *Worker) removeTask(fp string, t *task) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.byFP[fp], t)
}

func (w *Worker) addRunning(d int) {
	w.mu.Lock()
	w.running += d
	w.mu.Unlock()
	if d < 0 {
		select {
		case w.freed <- struct{}{}:
		default:
		}
	}
}

func (w *Worker) runningCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.running
}

func (w *Worker) freeSlots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.slots - w.running
}

// opContext bounds one coordinator round trip (independent of job
// contexts, so completions still go out during drain).
func (w *Worker) opContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}
