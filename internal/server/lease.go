package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
	"sparkxd/internal/tracing"
)

// Lease protocol failures (mapped onto HTTP status codes in http.go).
var (
	// ErrLeaseLost: the lease expired, was revoked, or never existed.
	// The worker must abandon the job — another worker may own it.
	ErrLeaseLost = errors.New("server: lease lost")
	// ErrBadComplete: a completion request referenced artifacts that
	// were never uploaded, or carried neither artifacts nor an error.
	ErrBadComplete = errors.New("server: invalid completion")
)

// Workers lists the workers that have asked for leases, sorted by name.
func (s *Server) Workers() []fleetapi.WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := make(map[string]int)
	for _, l := range s.leases {
		active[l.worker]++
	}
	now := time.Now()
	out := make([]fleetapi.WorkerStatus, 0, len(s.fleet))
	for _, w := range s.fleet {
		out = append(out, fleetapi.WorkerStatus{
			Name:              w.name,
			Slots:             w.slots,
			ActiveLeases:      active[w.name],
			LastSeenMillisAgo: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// maxLeaseWait caps how long POST /v1/leases holds a request that asked
// to wait for work; a worker asking for longer simply asks again.
const maxLeaseWait = 10 * time.Second

// AcquireLeases hands up to capacity queued jobs to a worker without
// waiting. Jobs whose earlier lease expired on this same worker are
// skipped (the worker is excluded — it already demonstrated it cannot
// finish them), and each granted job carries exactly one live lease.
// While draining, no work is handed out.
func (s *Server) AcquireLeases(worker string, capacity int) ([]fleetapi.Grant, error) {
	return s.awaitLeases(context.Background(), fleetapi.LeaseRequest{Worker: worker, Capacity: capacity})
}

// awaitLeases answers one lease request. Every request for work puts
// its worker on the roster with the request's slots, even one that is
// granted nothing. With nothing grantable it waits up to the request's
// wait (capped at maxLeaseWait) for a job to enter the queue, so an
// idle worker is handed a submission as soon as it arrives instead of
// at its next poll. A drain, a close, or ctx ending answers empty at
// once.
func (s *Server) awaitLeases(ctx context.Context, req fleetapi.LeaseRequest) ([]fleetapi.Grant, error) {
	if req.Worker == "" {
		return nil, fmt.Errorf("empty worker name")
	}
	if req.Capacity <= 0 {
		return nil, nil
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	timeout := time.NewTimer(min(wait, maxLeaseWait))
	defer timeout.Stop()
	for {
		s.mu.Lock()
		s.touchWorkerLocked(req.Worker, req.Slots)
		grants := s.grantLocked(req.Worker, req.Capacity)
		// Read the wake channel under the same lock as the empty grant, so
		// a submission landing in between is not missed.
		enqueued := s.enqueued
		idle := len(grants) == 0 && !s.draining && !s.closed
		s.mu.Unlock()
		if !idle || wait <= 0 {
			return grants, nil
		}
		select {
		case <-enqueued:
		case <-timeout.C:
			return nil, nil
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// grantLocked leases up to capacity queued jobs to worker, in aged
// priority order. Caller holds s.mu.
func (s *Server) grantLocked(worker string, capacity int) []fleetapi.Grant {
	if s.draining || s.closed {
		return nil
	}
	var (
		grants []fleetapi.Grant
		keep   []*jobRec
	)
	s.sortQueueLocked(time.Now())
	// Exclusion must never starve a job: if every worker seen alive
	// recently has an expired lease on it, the exclusion set has lost its
	// meaning (nobody else will come) and is wiped so the fleet retries.
	liveCutoff := time.Now().Add(-excludedRetryTTLs * s.leaseTTL)
	for _, rec := range s.queue {
		// rec.leaseID != "" should be impossible for a queued job (leases
		// pop jobs off the queue); the check is the at-most-one-lease
		// invariant spelled defensively.
		if len(grants) >= capacity || rec.leaseID != "" {
			keep = append(keep, rec)
			continue
		}
		if rec.excluded[worker] {
			if s.hasLiveAlternativeLocked(rec, liveCutoff) {
				keep = append(keep, rec)
				continue
			}
			s.log.Warn("every live worker excluded; clearing exclusions", "job", rec.status.ID)
			rec.excluded = nil
		}
		s.leaseSeq++
		l := &lease{
			id:      fmt.Sprintf("lease-%06d", s.leaseSeq),
			worker:  worker,
			rec:     rec,
			expires: time.Now().Add(s.leaseTTL),
		}
		// The queue episode ends with the grant; the lease span stays open
		// until the lease completes, releases, expires, or is revoked, and
		// its context rides the grant so worker spans nest under it.
		s.closeQueueSpanLocked(rec, worker)
		var traceparent string
		if rec.trace != nil {
			l.span = tracing.Start(rec.trace.root, s.procName(), "lease")
			traceparent = l.span.Context().Traceparent()
		}
		s.leases[l.id] = l
		rec.leaseID = l.id
		rec.status.State = sparkxd.JobRunning
		s.appendEventLocked(rec, sparkxd.Event{Stage: "job", Phase: "running",
			Message: fmt.Sprintf("worker %s (lease %s)", worker, l.id)})
		s.log.Info("job running", "job", rec.status.ID, "trace", rec.status.TraceID,
			"worker", worker, "lease", l.id)
		s.metrics.leaseOps.With("grant").Inc()
		grants = append(grants, fleetapi.Grant{
			LeaseID:     l.id,
			JobID:       rec.status.ID,
			Spec:        rec.status.Spec,
			TTLMillis:   s.leaseTTL.Milliseconds(),
			Traceparent: traceparent,
		})
	}
	s.queue = keep
	return grants
}

// RenewLease extends a live lease's TTL and delivers what the job
// produced since the worker's last renewal: the events join the job's
// SSE log and the spans its trace. A lost lease returns ErrLeaseLost
// and drops both, so a worker that lost the job cannot touch a job that
// moved on; it must stop working on the job.
func (s *Server) RenewLease(id string, req fleetapi.RenewRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok {
		return ErrLeaseLost
	}
	l.expires = time.Now().Add(s.leaseTTL)
	l.renews++
	s.touchWorkerLocked(l.worker, 0)
	s.metrics.leaseOps.With("renew").Inc()
	for _, ev := range req.Events {
		s.appendEventLocked(l.rec, ev)
	}
	for _, sd := range req.Spans {
		s.addSpanLocked(l.rec, sd)
	}
	return nil
}

// ReleaseLease returns a leased job to the queue without penalty (the
// graceful half of worker shutdown: drained-but-unfinished jobs are
// handed back instead of left to expire).
func (s *Server) ReleaseLease(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok {
		return ErrLeaseLost
	}
	delete(s.leases, id)
	s.touchWorkerLocked(l.worker, 0)
	s.metrics.leaseOps.With("release").Inc()
	s.closeLeaseSpanLocked(l, "released")
	s.requeueLocked(l.rec, fmt.Sprintf("released by worker %s", l.worker))
	return nil
}

// CompleteLease finishes a leased job — the only done/failed transition
// of an executed job, wherever it ran: either with an artifact role map
// the worker has already uploaded to the store, or with a failure
// message. Artifact keys are verified present before the job is marked
// done — a completion must never dangle. spans carries the worker's
// completion-time spans (artifact upload, the execution envelope),
// which finish after its last renewal; they join the job's trace. The
// trace, and for a done job its durable record, are stored before the
// job reads terminal, so a client that sees the terminal state, or a
// coordinator opened on the same store after that, finds both.
func (s *Server) CompleteLease(id string, arts map[string]sparkxd.ArtifactKey, failure string, spans []sparkxd.TraceSpan) error {
	if failure == "" && len(arts) == 0 {
		return fmt.Errorf("%w: neither artifacts nor an error", ErrBadComplete)
	}
	// Verify uploads outside the lock (store reads do IO); the lease is
	// re-checked under the lock afterwards.
	if failure == "" {
		for role, key := range arts {
			if _, err := s.st.Stat(key); err != nil {
				return fmt.Errorf("%w: artifact %q (%s) not in store: %v", ErrBadComplete, role, key, err)
			}
		}
	}
	s.mu.Lock()
	l, ok := s.leases[id]
	if !ok {
		s.mu.Unlock()
		return ErrLeaseLost
	}
	delete(s.leases, id)
	s.touchWorkerLocked(l.worker, 0)
	s.metrics.leaseOps.With("complete").Inc()
	rec := l.rec
	rec.leaseID = ""
	if rec.status.State.Terminal() {
		s.closeLeaseSpanLocked(l, "stale")
		s.mu.Unlock()
		return nil
	}
	for _, sd := range spans {
		s.addSpanLocked(rec, sd)
	}
	final := copyStatus(rec.status)
	if failure != "" {
		final.State, final.Error = sparkxd.JobFailed, failure
		s.closeLeaseSpanLocked(l, "failed")
	} else {
		final.State, final.Artifacts = sparkxd.JobDone, arts
		s.closeLeaseSpanLocked(l, "completed")
	}
	trace := s.finishTraceLocked(rec, final.State)
	executor := s.executorOf(l.worker)
	s.mu.Unlock()

	// The lease is gone, so nothing else moves the job while its trace
	// and record are written.
	traceKey := s.storeTrace(trace)
	if failure == "" {
		s.persistRecord(final, traceKey)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	rec.traceKey = traceKey
	rec.status = final
	if failure != "" {
		s.appendEventLocked(rec, sparkxd.Event{Stage: "job", Phase: "failed", Message: failure})
		s.metrics.observeTerminal(rec, "failed", executor)
		s.log.Warn("job failed on worker", "job", rec.status.ID, "trace", rec.status.TraceID,
			"worker", l.worker, "err", failure)
		return nil
	}
	s.metrics.observeTerminal(rec, "done", executor)
	s.appendEventLocked(rec, sparkxd.Event{Stage: "job", Phase: "done",
		Message: fmt.Sprintf("%d artifacts (worker %s)", len(arts), l.worker)})
	s.log.Info("job done on worker", "job", rec.status.ID, "trace", rec.status.TraceID,
		"worker", l.worker, "artifacts", len(arts))
	return nil
}

// reapLoop expires overdue leases, requeueing their jobs with the dead
// worker excluded. Runs for the server's lifetime in both dispatch
// modes: local jobs are leases too.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	interval := s.leaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	if interval > 2*time.Second {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-tick.C:
			s.expireLeases(now)
		}
	}
}

// expireLeases requeues every job whose lease deadline has passed,
// excluding the silent worker from re-leasing that job.
func (s *Server) expireLeases(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(s.leases, id)
		s.metrics.leaseOps.With("expire").Inc()
		rec := l.rec
		if rec.excluded == nil {
			rec.excluded = make(map[string]bool)
		}
		rec.excluded[l.worker] = true
		s.closeLeaseSpanLocked(l, "expired")
		s.requeueLocked(rec, fmt.Sprintf("lease %s expired on worker %s", id, l.worker))
	}
}

// excludedRetryTTLs is how many lease TTLs of silence demote a worker
// from "live alternative" when deciding whether a job's exclusion set
// still leaves anyone eligible to run it.
const excludedRetryTTLs = 5

// hasLiveAlternativeLocked reports whether some recently-seen worker is
// not excluded from rec. Caller holds s.mu.
func (s *Server) hasLiveAlternativeLocked(rec *jobRec, cutoff time.Time) bool {
	for name, w := range s.fleet {
		if !rec.excluded[name] && w.lastSeen.After(cutoff) {
			return true
		}
	}
	return false
}

// touchWorkerLocked refreshes a worker's roster entry. Caller holds
// s.mu. slots <= 0 keeps the entry's slot count.
func (s *Server) touchWorkerLocked(name string, slots int) {
	w, ok := s.fleet[name]
	if !ok {
		w = &workerInfo{name: name, slots: 1}
		s.fleet[name] = w
	}
	if slots > 0 {
		w.slots = slots
	}
	w.lastSeen = time.Now()
	if !ok {
		s.log.Info("worker joined", "worker", name, "slots", w.slots)
	}
}
