// Package worker is the one executor of the sparkxd job service
// (DESIGN.md §9): a Worker leases queued jobs from a coordinator,
// executes them against a cache of warm per-configuration Systems,
// delivers stage events and spans with its lease renewals, puts result
// artifacts into the coordinator's content-addressed store, and
// completes the lease. A `sparkxd worker`
// process joins a coordinator over HTTP; a coordinator in local
// dispatch runs its own slots as a Worker in its process, leasing
// through direct handler calls.
//
// Liveness is lease-based: the worker renews each lease about every
// third of its TTL; a worker that crashes or partitions simply goes
// silent, its leases expire, and the coordinator requeues the jobs with
// the dead worker excluded. Because job IDs are content hashes and
// execution is deterministic, the re-executed job provably reproduces
// byte-identical artifacts — requeue is always safe.
package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sparkxd"
	"sparkxd/internal/core"
	"sparkxd/internal/fleetapi"
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
	// FlushInterval is how often a leased job's pending events and spans
	// go out in a lease renewal, and how often the lease is checked for
	// one (zero: 200ms). It must stay well below the coordinator's lease
	// TTL.
	FlushInterval time.Duration
	// HTTPClient overrides the coordinator transport (nil: 30s-timeout
	// default client). The default Store is opened with it, and a remote
	// Store opened with the same client shares its connection pool.
	HTTPClient *http.Client
	// Store receives result artifacts (nil: the coordinator's store,
	// through its /v1/artifacts routes as a store.HTTP client). Set it to
	// the federation's shared remote store, or to a coordinator's own
	// store for its in-process worker. The coordinator must be backed by the same store, or
	// completions will fail its artifact verification.
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
	st            sparkxd.ArtifactStore

	metrics *workerMetrics

	mu      sync.Mutex
	running int
	systems *systems // shared warm engines, one per config fingerprint
	// freed receives (without blocking) whenever an execution ends, so
	// a worker with every slot busy asks for work as soon as one frees.
	freed chan struct{}
}

// task is one in-flight leased job.
type task struct {
	grant  fleetapi.Grant
	cancel context.CancelFunc

	mu      sync.Mutex
	pending fleetapi.RenewRequest // what the next renewal delivers
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

func (t *task) addEvent(ev sparkxd.Event) {
	t.mu.Lock()
	t.pending.Events = append(t.pending.Events, ev)
	t.mu.Unlock()
}

func (t *task) addSpan(sd sparkxd.TraceSpan) {
	t.mu.Lock()
	t.pending.Spans = append(t.pending.Spans, sd)
	t.mu.Unlock()
}

// take empties the pending batch and returns it, and whether it holds
// anything.
func (t *task) take() (fleetapi.RenewRequest, bool) {
	t.mu.Lock()
	req := t.pending
	t.pending = fleetapi.RenewRequest{}
	t.mu.Unlock()
	return req, len(req.Events)+len(req.Spans) > 0
}

// putBack returns a batch that failed to go out to the front of the
// pending one.
func (t *task) putBack(req fleetapi.RenewRequest) {
	t.mu.Lock()
	t.pending.Events = append(req.Events, t.pending.Events...)
	t.pending.Spans = append(req.Spans, t.pending.Spans...)
	t.mu.Unlock()
}

// New builds a Worker (it does not contact the coordinator yet; Run
// asks for leases and retries until the coordinator answers).
func New(cfg Config) (*Worker, error) {
	api, err := newCoordClient(cfg.Coordinator, cfg.HTTPClient)
	if err != nil {
		return nil, err
	}
	st := cfg.Store
	if st == nil {
		if st, err = store.NewHTTP(api.base, store.WithHTTPClient(api.hc)); err != nil {
			return nil, fmt.Errorf("worker: %w", err)
		}
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
	logger := cfg.Logger
	if logger == nil {
		// Every level off, so no record is ever formatted.
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	w := &Worker{
		name:          name,
		slots:         slots,
		poll:          poll,
		drainTimeout:  drain,
		flushInterval: flush,
		log:           logger,
		api:           api,
		st:            st,
		freed:         make(chan struct{}, 1),
	}
	w.systems = newSystems(slots, cfg.MaxWarmSystems)
	w.metrics = newWorkerMetrics(w)
	return w, nil
}

// Name returns the worker's fleet name.
func (w *Worker) Name() string { return w.name }

// Run leases and processes jobs until ctx is cancelled, then drains:
// in-flight jobs get up to DrainTimeout to finish (and complete
// normally); whatever is still running has its lease released so the
// coordinator requeues it immediately. Returns nil on a clean (possibly
// drained) shutdown.
func (w *Worker) Run(ctx context.Context) error {
	w.log.Info("leasing", "coordinator", w.api.base, "worker", w.name, "slots", w.slots)
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
		resp, err := w.api.acquire(ctx, fleetapi.LeaseRequest{
			Worker: w.name, Slots: w.slots, Capacity: free, WaitMillis: w.poll.Milliseconds()})
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

// execute runs one leased job end to end: the lease kept in the
// background, produce in the foreground, then artifact upload and
// lease completion (or release, when cancelled by drain timeout).
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
	w.log.Info("executing", "job", g.JobID, "lease", g.LeaseID, "trace", exec.Context().TraceID.String())

	// The lease must be kept past execution: artifact uploads can take
	// many TTL windows, and a lease that expires mid-upload would throw
	// the finished result away. Keeping stops only just before the
	// (single, bounded) completion or release round trip, once the job's
	// remaining events and spans are delivered.
	stopKeep := make(chan struct{})
	keepDone := make(chan struct{})
	go func() { defer close(keepDone); w.keep(t, stopKeep) }()
	var keepOnce sync.Once
	stopKeeping := func() {
		keepOnce.Do(func() { close(stopKeep) })
		<-keepDone
	}
	defer stopKeeping()

	var produced map[string]any
	acqStart := time.Now()
	sys, built, release, err := w.systems.Acquire(fp, g.Spec.Config)
	if err == nil {
		if built {
			t.addSpan(tracing.Completed(exec.Context(), w.name, "warm-system-build",
				acqStart, time.Since(acqStart), map[string]string{"fingerprint": fp}))
		}
		// Per-stage spans go out with the renewals, beside the engine
		// events (the coordinator puts them into the trace).
		observe := func(stage string, d time.Duration) {
			w.metrics.observeStage(stage, d)
			t.addSpan(tracing.Completed(exec.Context(), w.name, "stage:"+stage,
				time.Now().Add(-d), d, nil))
		}
		func() {
			defer release()
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			produced, err = produce(core.WithObserver(ctx, t.addEvent), sys, g.Spec, observe)
		}()
	} else {
		release()
	}

	if t.isLost() {
		w.metrics.jobs.With("abandoned").Inc()
		w.log.Warn("lease lost, abandoning result", "job", g.JobID, "lease", g.LeaseID)
		return
	}
	if err != nil && jobCtx.Err() != nil {
		// Drain-timeout cancellation, not a real failure: hand the job
		// back so the coordinator requeues it immediately.
		stopKeeping()
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
		stopKeeping()
		failWith(err.Error())
		return
	}

	// Put every produced artifact into the store (the lease is kept
	// throughout), then mark the job complete with the role → key map.
	// The store derives each key, and the coordinator is backed by the
	// same store, so its completion-time Stat verification passes. A
	// remote store retries transient failures itself: every PUT is
	// idempotent by content address. The upload and execution-envelope
	// spans travel in the completion request: they finish after the last
	// renewal.
	uploadStart := time.Now()
	arts := make(map[string]sparkxd.ArtifactKey, len(produced))
	for role, v := range produced {
		kind, err := sparkxd.ArtifactKind(v)
		if err != nil {
			stopKeeping()
			failWith(fmt.Sprintf("artifact %s: %v", role, err))
			return
		}
		key, err := w.st.Put(kind, v)
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
	stopKeeping()
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

// keep holds the task's lease until stop is closed. Every FlushInterval
// it renews the lease when events or spans are pending or a third of
// the grant's TTL has passed since the last renewal; each renewal
// delivers everything pending, and a failed one leaves its batch for
// the next. A 410 — or renewals failing for longer than one TTL, by
// which time the lease has certainly expired — marks the task lost and
// cancels its execution. Once stop is closed it renews until nothing is
// pending, so the job's events and spans reach the coordinator ahead of
// its completion or release.
func (w *Worker) keep(t *task, stop <-chan struct{}) {
	ttl := time.Duration(t.grant.TTLMillis) * time.Millisecond
	// One renewal may take much longer than the cadence (a loaded
	// coordinator still refreshes the TTL on arrival), so its timeout is
	// floored independently of the TTL.
	timeout := max(ttl/3, 2*time.Second)
	tick := time.NewTicker(w.flushInterval)
	defer tick.Stop()
	last := time.Now()
	var failingSince time.Time
	for stopped := false; ; {
		req, pending := t.take()
		if stopped && !pending {
			return
		}
		if pending || time.Since(last) >= ttl/3 {
			last = time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			err := w.api.renew(ctx, t.grant.LeaseID, req)
			cancel()
			switch {
			case err == nil:
				w.metrics.heartbeats.With("ok").Inc()
				failingSince = time.Time{}
				if stopped {
					return
				}
			case errors.Is(err, ErrLeaseLost):
				w.metrics.heartbeats.With("lost").Inc()
				w.log.Warn("renew: lease lost", "job", t.grant.JobID, "lease", t.grant.LeaseID, "err", err)
				t.markLost()
				return
			default:
				w.metrics.heartbeats.With("error").Inc()
				t.putBack(req)
				if failingSince.IsZero() {
					failingSince = last
				}
				if time.Since(failingSince) > ttl {
					w.log.Warn("coordinator unreachable past the lease TTL", "job", t.grant.JobID, "err", err)
					t.markLost()
					return
				}
			}
		}
		select {
		case <-stop:
			stopped, stop = true, nil // a nil channel never fires again
		case <-tick.C:
		}
	}
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
