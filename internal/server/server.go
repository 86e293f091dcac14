// Package server is the sparkxd job service: an HTTP/JSON API that
// accepts pipeline-stage and scenario-sweep jobs, hands them out over
// one lease protocol — to the coordinator's own in-process worker, to
// remote `sparkxd worker` processes, or both — and persists every
// result into a content-addressed artifact store.
//
// Three properties shape the design (DESIGN.md §8/§9):
//
//   - Deterministic identity. A job's ID is the hash of its normalized
//     spec, so submitting the same work twice — from one client or many —
//     addresses the same job: the second submission returns the first
//     job's status without re-executing anything.
//   - One executor. Every job runs under a lease on an
//     internal/worker.Worker; local dispatch is such a worker living in
//     the coordinator's process, leasing through direct handler calls
//     instead of a socket. A job therefore has one lifecycle, one event
//     path, and one trace shape wherever it runs.
//   - Content-addressed results. Artifacts are stored under
//     <kind>/<sha256-of-canonical-json>; because execution is
//     deterministic in the spec, re-running an identical job reproduces
//     identical artifact keys. That makes lease requeue after a worker
//     crash safe (the re-run provably reproduces the same bytes), and it
//     makes completed jobs durable: every JobDone persists a
//     KindJobRecord into the store, and a restarted server preloads those
//     records so repeat submissions are served from the store instead of
//     recomputed.
//
// Progress events stream over GET /v1/jobs/{id}/events as server-sent
// events, backed by the SDK's Observer hook; the events a worker
// delivers with its lease renewals are bridged into the same per-job
// streams.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"sparkxd"
	"sparkxd/internal/logging"
	"sparkxd/internal/tracing"
	"sparkxd/internal/worker"
)

// Dispatch selects who executes queued jobs.
type Dispatch string

const (
	// DispatchLocal: an in-process worker runs Config.Workers jobs at a
	// time, and remote workers that join lease alongside it.
	DispatchLocal Dispatch = "local"
	// DispatchFleet: zero local slots; only remote workers execute, and
	// the server is a pure coordinator.
	DispatchFleet Dispatch = "fleet"
)

// ParseDispatch canonicalizes a dispatch-mode name.
func ParseDispatch(s string) (Dispatch, error) {
	switch Dispatch(s) {
	case "", DispatchLocal:
		return DispatchLocal, nil
	case DispatchFleet:
		return DispatchFleet, nil
	default:
		return "", fmt.Errorf("unknown dispatch mode %q (valid: %s, %s)",
			s, DispatchLocal, DispatchFleet)
	}
}

// DefaultLeaseTTL is the lease lifetime when Config.LeaseTTL is zero.
const DefaultLeaseTTL = 15 * time.Second

// Config parameterizes a Server.
type Config struct {
	// Store receives every job artifact; nil means an in-memory store.
	Store sparkxd.ArtifactStore
	// Workers is how many jobs the in-process worker of local dispatch
	// runs at once (<= 0: GOMAXPROCS, the worker's default); fleet
	// dispatch has no local slots.
	Workers int
	// Dispatch selects local or fleet execution (zero: local).
	Dispatch Dispatch
	// LeaseTTL bounds how long a worker may go silent before its leases
	// expire and their jobs requeue (zero: DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxWarmSystems bounds the warm-System engine cache; 0 keeps it
	// unbounded (every configuration fingerprint stays warm forever).
	MaxWarmSystems int
	// Rate enables per-submitter admission control on POST /v1/jobs:
	// each submitter may sustain Rate submissions per second (bursting
	// to Burst) before receiving 429 + Retry-After. 0 disables it.
	Rate float64
	// Burst is the admission token-bucket capacity (<= 0: max(1, Rate)).
	Burst int
	// ShardIndex/ShardCount split the job-ID space across a federation of
	// coordinators sharing one artifact store: with ShardCount m > 1 this
	// coordinator owns only job IDs hashing to slice ShardIndex (1-based),
	// and submissions of the rest answer 421 Misdirected Request plus the
	// owner's address. Zero ShardCount disables sharding.
	ShardIndex int
	ShardCount int
	// Peers lists every shard's advertised base URL (len == ShardCount;
	// Peers[ShardIndex-1] is this coordinator). Required when sharding.
	Peers []string
	// Logger, when non-nil, receives structured logs (one record per job,
	// lease, and trace transition, with job/lease/trace IDs as attrs).
	Logger *slog.Logger
}

// Server owns the job table, the lease table, the artifact store, and —
// in local dispatch — the in-process worker. Create with New, serve its
// Handler, optionally Drain it on shutdown, and Close it to stop.
type Server struct {
	st       sparkxd.ArtifactStore
	dispatch Dispatch
	leaseTTL time.Duration
	shard    shardInfo
	log      *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*jobRec
	queue []*jobRec
	// enqueued is closed and replaced whenever a job enters the queue,
	// and on drain and close: it wakes every lease request waiting for
	// work (see awaitLeases).
	enqueued chan struct{}
	closed   bool
	draining bool
	leases   map[string]*lease
	leaseSeq uint64
	jobSeq   uint64                 // submission order (priority tiebreak)
	fleet    map[string]*workerInfo // the roster: worker name -> presence

	// local is the in-process worker running local dispatch's slots (nil
	// in fleet dispatch). Set once in New, before any request.
	local *worker.Worker

	metrics *serverMetrics
	admit   *admitter // nil: admission control disabled
}

// maxJobEvents bounds one job's retained event history. Job records
// live for the server's lifetime and a job's events arrive from its
// worker, so the log is capped rather than trusted to stay small; once
// the cap is hit the oldest events are dropped (SSE subscribers that
// have already read them are unaffected, late subscribers miss the
// trimmed prefix).
const maxJobEvents = 1024

// jobRec is the server-side state of one job. Records themselves are
// kept for the server's lifetime — the job table IS the dedup index
// that makes submission idempotent — but their event logs are bounded.
type jobRec struct {
	status  sparkxd.JobStatus
	events  []sparkxd.Event
	dropped int           // events trimmed off the front of the log
	notify  chan struct{} // closed and replaced on every update

	// seq is the submission order (priority tiebreak); queuedAt is the
	// first submission time — requeues keep it, so waiting jobs age
	// upward in priority and the latency histogram measures what the
	// client actually waited. Zero for jobs restored from records.
	seq      uint64
	queuedAt time.Time

	leaseID  string          // active lease ("" when unleased)
	excluded map[string]bool // workers whose lease on this job expired

	// trace accumulates the job's distributed spans until the job
	// finishes (nil for jobs restored as done from persisted records);
	// traceKey is the stored KindJobTrace artifact once it is terminal.
	trace    *jobTraceState
	traceKey sparkxd.ArtifactKey
}

// lease is one worker's time-bounded claim on one job. At most one
// lease per job is live at any time: grants pop jobs off the queue, and
// a job only re-enters the queue after its lease is removed.
type lease struct {
	id      string
	worker  string
	rec     *jobRec
	expires time.Time

	// span is the open lease-lifecycle span; its context rides the Grant
	// as a traceparent so worker spans nest under it. renews counts
	// renewals (reported as a span attribute at close).
	span   *tracing.Span
	renews int
}

// workerInfo is one roster entry: a worker that has asked for leases.
type workerInfo struct {
	name     string
	slots    int
	lastSeen time.Time
}

// New builds a Server, preloads persisted job records from the store,
// and starts its lease reaper and, in local dispatch, its in-process
// worker.
func New(cfg Config) (*Server, error) {
	st := cfg.Store
	if st == nil {
		st = sparkxd.MemoryStore()
	}
	dispatch, err := ParseDispatch(string(cfg.Dispatch))
	if err != nil {
		return nil, err
	}
	leaseTTL := cfg.LeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	shard := shardInfo{index: cfg.ShardIndex, count: cfg.ShardCount, peers: cfg.Peers}
	if err := shard.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		st:       st,
		dispatch: dispatch,
		leaseTTL: leaseTTL,
		shard:    shard,
		log:      logging.New(cfg.Logger),
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*jobRec),
		enqueued: make(chan struct{}),
		leases:   make(map[string]*lease),
		fleet:    make(map[string]*workerInfo),
	}
	s.metrics = newServerMetrics(s)
	// Meter the store after metrics exist; every Get/Put from here on
	// (job records, artifacts, worker uploads) is counted.
	s.st = meteredStore{ArtifactStore: s.st, ops: s.metrics.storeOps}
	s.admit = newAdmitter(cfg.Rate, cfg.Burst)
	s.loadRecords()
	if dispatch == DispatchLocal {
		if err := s.startLocal(cfg.Workers, cfg.MaxWarmSystems); err != nil {
			cancel()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.reapLoop()
	return s, nil
}

// startLocal starts the in-process worker of local dispatch. It leases
// from this coordinator by calling its handler directly (no socket, no
// listener) and writes artifacts straight into the coordinator's store,
// so local jobs take the same lease, event, and trace path as remote
// ones. Its lease holder name is what marks a job's executor "local".
func (s *Server) startLocal(slots, maxWarm int) error {
	w, err := worker.New(worker.Config{
		Coordinator:    "http://" + s.procName(),
		Name:           s.procName() + "-local",
		Slots:          slots,
		MaxWarmSystems: maxWarm,
		// Every lease request may wait the whole cap: submissions wake it.
		Poll: maxLeaseWait,
		// Server.Drain is the drain window; once Close stops the worker,
		// in-flight jobs are cancelled at once and their leases released.
		DrainTimeout: time.Nanosecond,
		HTTPClient:   &http.Client{Transport: handlerTransport{s.Handler()}},
		Store:        s.st,
		Logger:       s.log,
	})
	if err != nil {
		return err
	}
	s.local = w
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = w.Run(s.ctx) // nil once s.ctx ends and in-flight leases are released
	}()
	return nil
}

// handlerTransport serves each request by calling a handler directly:
// the in-process worker's socket-free path to its coordinator.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close() // a RoundTripper owns the request body
	}
	return rec.Result(), nil
}

// executorOf names who ran a lease holder's jobs: "local" for the
// in-process worker, "fleet" for any remote one.
func (s *Server) executorOf(workerName string) string {
	if s.local != nil && workerName == s.local.Name() {
		return "local"
	}
	return "fleet"
}

// Store returns the artifact store the server persists into.
func (s *Server) Store() sparkxd.ArtifactStore { return s.st }

// Close stops accepting work and waits for the in-process worker and
// the reaper to exit. The in-process worker's in-flight jobs are
// cancelled and their leases released, so they are requeued (not
// failed) before Close returns and a Ctrl-C'd server never strands a
// job in "running"; call Drain first to give in-flight work a bounded
// chance to complete.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.wakeLocked()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Drain stops handing out work and waits up to timeout for leased jobs
// (the in-process worker's included) to complete. Whatever is still
// outstanding afterwards is requeued: active leases are revoked so their
// jobs go back to queued state immediately rather than waiting for TTL
// expiry.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.wakeLocked()
	s.mu.Unlock()
	s.log.Info("draining", "timeout", timeout)

	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		busy := len(s.leases)
		s.mu.Unlock()
		if busy == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, l := range s.leases {
		delete(s.leases, id)
		s.closeLeaseSpanLocked(l, "revoked")
		s.requeueLocked(l.rec, fmt.Sprintf("drain timeout: lease %s on worker %s revoked", id, l.worker))
	}
}

// Submit registers a job (idempotently) and returns its status plus
// whether this submission created it. An identical spec — same job ID —
// returns the existing job, whatever its state; a job completed in an
// earlier server lifetime against the same store is served from its
// persisted record without re-executing.
//
// On a sharded coordinator, a spec whose job ID hashes to another shard
// is refused with a *MisdirectError naming the owner (jobs already in
// the local table — e.g. leased before a reshard — are still served).
// Every accepted job also persists a queued-state record into the
// store before Submit returns, so a coordinator killed with a backlog
// can be replaced by a fresh process that resumes the queue from the
// shared store (see loadRecords).
func (s *Server) Submit(spec sparkxd.JobSpec) (sparkxd.JobStatus, bool, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit carrying the submission's W3C traceparent
// (from the HTTP header; "" when the client sent none). The trace
// context is held out-of-band on the job record — it never enters the
// spec, so job identity is byte-identical with tracing on or off. A
// valid traceparent continues the client's trace; otherwise the job
// roots a fresh one.
func (s *Server) SubmitTraced(spec sparkxd.JobSpec, traceparent string) (sparkxd.JobStatus, bool, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return sparkxd.JobStatus{}, false, err
	}
	id, err := norm.ID()
	if err != nil {
		return sparkxd.JobStatus{}, false, err
	}

	s.mu.Lock()
	if rec, ok := s.jobs[id]; ok {
		status := copyStatus(rec.status)
		s.mu.Unlock()
		s.metrics.submitted.With("duplicate").Inc()
		return status, false, nil
	}
	if !s.shard.owns(id) {
		owner := s.shard.ownerOf(id)
		s.mu.Unlock()
		s.metrics.misdirected.Inc()
		return sparkxd.JobStatus{}, false, &MisdirectError{JobID: id, Owner: owner}
	}
	if s.closed {
		s.mu.Unlock()
		return sparkxd.JobStatus{}, false, fmt.Errorf("server closed")
	}
	s.jobSeq++
	rec := &jobRec{
		status:   sparkxd.JobStatus{ID: id, State: sparkxd.JobQueued, Spec: norm},
		notify:   make(chan struct{}),
		seq:      s.jobSeq,
		queuedAt: time.Now(),
		trace:    newJobTraceState(traceparent),
	}
	rec.status.TraceID = rec.trace.traceID()
	s.metrics.submitted.With("created").Inc()
	if norm.Kind == sparkxd.JobSweep {
		s.metrics.observeSweepAxes(norm.Sweep)
	}
	s.jobs[id] = rec
	s.queue = append(s.queue, rec)
	s.appendEventLocked(rec, sparkxd.Event{Stage: "job", Phase: "queued", Message: id})
	s.wakeLocked()
	status := copyStatus(rec.status)
	s.mu.Unlock()
	// Persist the queued-state record outside the lock (store writes do
	// IO). The spec is content-addressed and queued records carry no
	// trace fields, so duplicate submissions across coordinator lifetimes
	// write the same record — an idempotent no-op.
	s.persistRecord(status, "")
	s.log.Info("job queued", "job", id, "kind", norm.Kind, "trace", status.TraceID)
	return status, true, nil
}

// Owner reports which federation peer owns a job ID, and whether that
// peer is another coordinator (false on an unsharded server or for the
// shard's own IDs). The HTTP layer uses it to answer 421 for unknown
// jobs that live on a peer.
func (s *Server) Owner(jobID string) (string, bool) {
	if !s.shard.enabled() || s.shard.owns(jobID) {
		return "", false
	}
	return s.shard.ownerOf(jobID), true
}

// Job returns the status of a job by ID.
func (s *Server) Job(id string) (sparkxd.JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return sparkxd.JobStatus{}, false
	}
	return copyStatus(rec.status), true
}

// Jobs lists every known job, sorted by ID.
func (s *Server) Jobs() []sparkxd.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sparkxd.JobStatus, 0, len(s.jobs))
	for _, rec := range s.jobs {
		out = append(out, copyStatus(rec.status))
	}
	sortStatuses(out)
	return out
}

// QueueDepth reports how many jobs are queued and unclaimed.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// eventsSince returns the job's events from absolute index `from` on
// (indices count all events ever recorded, including any trimmed off
// the bounded log), whether the job has reached a terminal state, and a
// channel closed on the next update. The returned next index is `from`
// plus the delivered events plus any trimmed gap.
func (s *Server) eventsSince(id string, from int) (evs []sparkxd.Event, next int, terminal bool, notify <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, found := s.jobs[id]
	if !found {
		return nil, from, false, nil, false
	}
	start := from - rec.dropped
	if start < 0 {
		start = 0 // the subscriber's position was trimmed away
	}
	if start < len(rec.events) {
		evs = append(evs, rec.events[start:]...)
	}
	return evs, rec.dropped + len(rec.events), rec.status.State.Terminal(), rec.notify, true
}

// loadRecords preloads persisted job records (KindJobRecord) from the
// store. Two record states matter:
//
//   - JobDone: submissions of previously-completed jobs are answered
//     from the durable cache. A done record is only trusted if every
//     artifact it references is still present; otherwise the job simply
//     re-executes (and, by determinism, re-derives identical keys).
//   - JobQueued: jobs a previous coordinator accepted but never
//     finished. They re-enter the queue, so a replacement coordinator
//     pointed at the same store resumes the backlog of one that was
//     killed — the federation's failover path.
//
// Both record states coexist for a completed job (queued was written at
// accept time, done at completion); the verified done record wins. On a
// sharded coordinator, records owned by other shards are skipped — each
// federation member restores only its slice of the ID space.
func (s *Server) loadRecords() {
	infos, err := s.st.List(sparkxd.KindJobRecord)
	if err != nil {
		s.log.Warn("job records list failed", "err", err)
		return
	}
	type candidate struct {
		done   *sparkxd.JobRecord
		queued *sparkxd.JobRecord
	}
	cands := make(map[string]*candidate)
	var order []string // List is key-sorted; keep restore order deterministic
	for _, info := range infos {
		rec, err := sparkxd.GetJobRecord(s.st, info.Key)
		if err != nil {
			s.log.Warn("job record unreadable", "key", string(info.Key), "err", err)
			continue
		}
		if rec.Version > sparkxd.JobRecordVersion || rec.JobID == "" {
			continue
		}
		if !s.shard.owns(rec.JobID) {
			continue
		}
		c := cands[rec.JobID]
		if c == nil {
			c = &candidate{}
			cands[rec.JobID] = c
			order = append(order, rec.JobID)
		}
		switch rec.State {
		case sparkxd.JobDone:
			complete := true
			for _, key := range rec.Artifacts {
				if _, err := s.st.Stat(key); err != nil {
					complete = false
					break
				}
			}
			if complete {
				c.done = rec
			}
		case sparkxd.JobQueued:
			c.queued = rec
		}
		// JobFailed records are never persisted today; a job that failed
		// in a previous lifetime keeps only its queued record and re-runs.
	}
	loaded, requeued := 0, 0
	for _, id := range order {
		c := cands[id]
		rec := c.done
		if rec == nil {
			rec = c.queued
		}
		if rec == nil {
			continue
		}
		if _, err := rec.Spec.Config.Fingerprint(); err != nil {
			continue
		}
		if c.done != nil {
			jr := &jobRec{
				status: sparkxd.JobStatus{
					ID:        rec.JobID,
					State:     sparkxd.JobDone,
					Spec:      rec.Spec,
					Artifacts: rec.Artifacts,
					TraceID:   rec.TraceID,
				},
				notify:   make(chan struct{}),
				traceKey: rec.TraceKey,
			}
			s.jobs[rec.JobID] = jr
			s.appendEventLocked(jr, sparkxd.Event{Stage: "job", Phase: "done",
				Message: fmt.Sprintf("served from persisted record (%d artifacts)", len(rec.Artifacts))})
			loaded++
			continue
		}
		s.jobSeq++
		jr := &jobRec{
			status:   sparkxd.JobStatus{ID: rec.JobID, State: sparkxd.JobQueued, Spec: rec.Spec},
			notify:   make(chan struct{}),
			seq:      s.jobSeq,
			queuedAt: time.Now(),
			// The original submission's trace died with the previous
			// coordinator; the takeover lifetime roots a fresh one.
			trace: newJobTraceState(""),
		}
		jr.status.TraceID = jr.trace.traceID()
		s.jobs[rec.JobID] = jr
		s.queue = append(s.queue, jr)
		s.appendEventLocked(jr, sparkxd.Event{Stage: "job", Phase: "queued",
			Message: "requeued from durable record (coordinator takeover)"})
		requeued++
	}
	if loaded > 0 || requeued > 0 {
		s.log.Info("job records restored", "completed", loaded, "requeued", requeued)
	}
}

// persistRecord writes a job's durable record to the store: a
// queued-state record at accept time (so a replacement coordinator can
// resume the queue) and a done-state record at completion. Trace fields
// ride only the done record (traceKey != ""): queued records must stay
// deterministic in the spec so resubmissions across coordinator
// lifetimes remain idempotent store writes. Called without s.mu held
// (store writes do IO).
func (s *Server) persistRecord(status sparkxd.JobStatus, traceKey sparkxd.ArtifactKey) {
	rec := &sparkxd.JobRecord{
		Version:   sparkxd.JobRecordVersion,
		JobID:     status.ID,
		State:     status.State,
		Spec:      status.Spec,
		Artifacts: status.Artifacts,
	}
	if traceKey != "" {
		rec.TraceID = status.TraceID
		rec.TraceKey = traceKey
	}
	if _, err := sparkxd.PutArtifact(s.st, rec); err != nil {
		s.log.Warn("persist record failed", "job", status.ID, "err", err)
	}
}

// agingQuantum is how much queue wait buys one priority step: a
// priority-0 job that has waited 5 quanta dispatches ahead of a fresh
// priority-4 job, so a heavy high-priority submitter cannot starve the
// rest of the queue indefinitely.
const agingQuantum = 5 * time.Second

// effPriority is a job's aged dispatch priority at time now.
func effPriority(rec *jobRec, now time.Time) int {
	p := rec.status.Spec.Priority
	if !rec.queuedAt.IsZero() {
		p += int(now.Sub(rec.queuedAt) / agingQuantum)
	}
	return p
}

// sortQueueLocked orders the queue for dispatch: aged priority
// descending, then submission order. Sorting happens at claim time (not
// insert time) because age shifts effective priorities while jobs wait.
// Caller holds s.mu.
func (s *Server) sortQueueLocked(now time.Time) {
	sort.SliceStable(s.queue, func(a, b int) bool {
		pa, pb := effPriority(s.queue[a], now), effPriority(s.queue[b], now)
		if pa != pb {
			return pa > pb
		}
		return s.queue[a].seq < s.queue[b].seq
	})
}

// requeueLocked returns a non-terminal job to the front of the queue.
// Caller holds s.mu (and has already removed any lease on the job).
func (s *Server) requeueLocked(rec *jobRec, msg string) {
	rec.leaseID = ""
	rec.status.State = sparkxd.JobQueued
	s.metrics.requeued.Inc()
	s.reopenQueueSpanLocked(rec)
	s.appendEventLocked(rec, sparkxd.Event{Stage: "job", Phase: "requeued", Message: msg})
	s.queue = append([]*jobRec{rec}, s.queue...)
	s.wakeLocked()
	s.log.Info("job requeued", "job", rec.status.ID, "trace", rec.status.TraceID, "reason", msg)
}

// wakeLocked wakes every lease request waiting for work: they re-check
// the queue (and see a drain or close). Caller holds s.mu.
func (s *Server) wakeLocked() {
	close(s.enqueued)
	s.enqueued = make(chan struct{})
}

// appendEventLocked records an event on a job (trimming the log's
// front beyond maxJobEvents) and wakes its SSE subscribers. Caller
// holds s.mu.
func (s *Server) appendEventLocked(rec *jobRec, ev sparkxd.Event) {
	rec.events = append(rec.events, ev)
	if excess := len(rec.events) - maxJobEvents; excess > 0 {
		rec.events = append(rec.events[:0:0], rec.events[excess:]...)
		rec.dropped += excess
	}
	close(rec.notify)
	rec.notify = make(chan struct{})
}

// copyStatus deep-copies the mutable parts of a status.
func copyStatus(st sparkxd.JobStatus) sparkxd.JobStatus {
	if st.Artifacts != nil {
		arts := make(map[string]sparkxd.ArtifactKey, len(st.Artifacts))
		for k, v := range st.Artifacts {
			arts[k] = v
		}
		st.Artifacts = arts
	}
	return st
}

// sortStatuses orders statuses by ID.
func sortStatuses(sts []sparkxd.JobStatus) {
	sort.Slice(sts, func(a, b int) bool { return sts[a].ID < sts[b].ID })
}
