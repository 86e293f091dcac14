package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
	"sparkxd/internal/metrics"
	"sparkxd/internal/store"
	"sparkxd/internal/tracing"
	"sparkxd/internal/version"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs                 submit a JobSpec (idempotent; 202 on
//	                                creation, 200 when the job already exists)
//	GET    /v1/jobs                 list job statuses
//	GET    /v1/jobs/{id}            one job's status
//	GET    /v1/jobs/{id}/events     server-sent progress events, replayed
//	                                from the start (or from Last-Event-ID)
//	                                and streamed until the job reaches a
//	                                terminal state
//	GET    /v1/jobs/{id}/trace      the assembled distributed trace of a
//	                                terminal job (404 until assembly)
//	GET    /v1/artifacts            Info listing of one artifact kind
//	                                (?kind=; federation peers preload job
//	                                records through it)
//	GET    /v1/artifacts/{key...}   the stored envelope of one artifact key
//	                                (HEAD: its size)
//	PUT    /v1/artifacts/{key...}   upload an envelope (fleet workers;
//	                                verified against its content address)
//	POST   /v1/workers              register a fleet worker
//	GET    /v1/workers              list registered workers
//	POST   /v1/leases               lease queued jobs, long-polling up to
//	                                wait_ms (capped) for one
//	POST   /v1/leases/{id}/renew    heartbeat a lease
//	POST   /v1/leases/{id}/events   bridge worker events into the SSE feed
//	POST   /v1/leases/{id}/complete finish a leased job
//	DELETE /v1/leases/{id}          release a lease (requeue the job)
//	GET    /v1/healthz              liveness probe (dispatch mode, queue
//	                                depth, registered-worker count)
//	GET    /metrics                 Prometheus text-format metrics
//
// The artifact routes are store.NewHandler's over the server's store,
// so a coordinator speaks the artifact wire exactly as `sparkxd store
// serve` does, and every Get and Put through them is metered.
//
// When admission control is enabled (Config.Rate > 0), POST /v1/jobs
// may answer 429 with a Retry-After header; all other routes are never
// throttled.
//
// On a sharded coordinator (Config.ShardCount > 1), the job routes
// answer 421 Misdirected Request — with the owning peer's address in
// the error body — for job IDs hashing to another shard; the artifact,
// worker, and lease routes are shard-agnostic (one shared namespace).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	artifacts := store.NewHandler(s.st)
	mux.Handle("GET /v1/artifacts", artifacts)
	mux.Handle("GET /v1/artifacts/{key...}", artifacts)
	mux.Handle("PUT /v1/artifacts/{key...}", artifacts)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	mux.HandleFunc("POST /v1/leases", s.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/leases/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /v1/leases/{id}/events", s.handleLeaseEvents)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("DELETE /v1/leases/{id}", s.handleLeaseRelease)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleMetrics serves the coordinator's registry plus, in local
// dispatch, its in-process worker's as one exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	regs := []*metrics.Registry{s.metrics.reg}
	if s.local != nil {
		regs = append(regs, s.local.Metrics())
	}
	metrics.Handler(regs...).ServeHTTP(w, r)
}

// apiError is the JSON error body of every non-2xx response. Owner is
// set only on 421 Misdirected Request: the base URL of the federation
// peer owning the job, which clients follow transparently.
type apiError struct {
	Error string `json:"error"`
	Owner string `json:"owner,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeMisdirect answers 421 with the owning peer's address, the
// federation's redirect: the client re-issues the request against
// Owner.
func (s *Server) writeMisdirect(w http.ResponseWriter, jobID, owner string) {
	s.metrics.misdirected.Inc()
	writeJSON(w, http.StatusMisdirectedRequest, apiError{
		Error: fmt.Sprintf("job %s belongs to shard peer %s", jobID, owner),
		Owner: owner,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"version":     version.String(),
		"dispatch":    string(s.dispatch),
		"workers":     len(s.Workers()),
		"queue_depth": s.QueueDepth(),
	})
}

// maxSubmitBytes bounds the body of a job submission; a larger body is
// refused with 413 before it is decoded in full.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.admit != nil {
		if ok, retry := s.admit.admit(submitterKey(r)); !ok {
			s.metrics.submitted.With("throttled").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			writeError(w, http.StatusTooManyRequests, "submission rate limit exceeded; retry in %ds", retryAfterSeconds(retry))
			return
		}
	}
	var spec sparkxd.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.submitted.With("invalid").Inc()
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decode job spec: %v", err)
		return
	}
	status, created, err := s.SubmitTraced(spec, r.Header.Get(tracing.Header))
	if err != nil {
		var mis *MisdirectError
		if errors.As(err, &mis) {
			// Submit already counted the misdirect.
			writeJSON(w, http.StatusMisdirectedRequest, apiError{Error: mis.Error(), Owner: mis.Owner})
			return
		}
		code := http.StatusInternalServerError
		result := "error"
		if errors.Is(err, sparkxd.ErrInvalidJobSpec) {
			code = http.StatusBadRequest
			result = "invalid"
		}
		s.metrics.submitted.With(result).Inc()
		writeError(w, code, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
		s.noteAdmission(status.ID, start)
	}
	writeJSON(w, code, status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, ok := s.Job(id)
	if !ok {
		if owner, mis := s.Owner(id); mis {
			s.writeMisdirect(w, id, owner)
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleEvents streams a job's progress as server-sent events: every
// recorded event is replayed first — from the absolute index after the
// request's Last-Event-ID, when present, so reconnecting consumers
// neither lose nor duplicate events — then new events stream live until
// the job reaches a terminal state (or the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		if owner, mis := s.Owner(id); mis {
			s.writeMisdirect(w, id, owner)
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sent := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		n, err := strconv.Atoi(last)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q", last)
			return
		}
		sent = n + 1
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.metrics.sse.Add(1)
	defer s.metrics.sse.Add(-1)

	for {
		evs, next, terminal, notify, ok := s.eventsSince(id, sent)
		if !ok {
			return
		}
		if next < sent {
			// The client's cursor points beyond the log: its Last-Event-ID
			// is from a previous server lifetime (indices reset when the
			// job table is rebuilt from persisted records). Replay the
			// retained log — duplicates across a restart beat an empty
			// stream that hides the terminal event.
			sent = 0
			continue
		}
		// evs[i] sits at absolute index next-len(evs)+i; emit it as the
		// SSE event id so Last-Event-ID resume is exact.
		base := next - len(evs)
		for i, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", base+i, b)
		}
		sent = next
		flusher.Flush()
		// terminal is snapshotted under the same lock as the events, so a
		// true value means every event has been delivered.
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// handleTrace serves a job's assembled distributed trace. The trace
// only exists once the job is terminal (it is assembled at the terminal
// transition), so a running job answers 404 with a hint; unknown jobs
// follow the same 421-on-peer contract as the other job routes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	trace, known, err := s.TraceFor(id)
	if !known {
		if owner, mis := s.Owner(id); mis {
			s.writeMisdirect(w, id, owner)
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load trace: %v", err)
		return
	}
	if trace == nil {
		writeError(w, http.StatusNotFound, "job %q has no assembled trace yet (traces assemble when the job reaches a terminal state)", id)
		return
	}
	writeJSON(w, http.StatusOK, trace)
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req fleetapi.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode registration: %v", err)
		return
	}
	resp, err := s.RegisterWorker(req.Name, req.Slots)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Workers())
}

func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req fleetapi.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode lease request: %v", err)
		return
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	grants, err := s.awaitLeases(r.Context(), req.Worker, req.Capacity, wait)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleetapi.LeaseResponse{Leases: grants, QueueDepth: s.QueueDepth()})
}

func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	ttl, err := s.RenewLease(r.PathValue("id"))
	if err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleetapi.RenewResponse{TTLMillis: ttl.Milliseconds()})
}

func (s *Server) handleLeaseEvents(w http.ResponseWriter, r *http.Request) {
	var evs []sparkxd.Event
	if err := json.NewDecoder(r.Body).Decode(&evs); err != nil {
		writeError(w, http.StatusBadRequest, "decode events: %v", err)
		return
	}
	if err := s.IngestEvents(r.PathValue("id"), evs); err != nil {
		writeLeaseError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	var req fleetapi.CompleteRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode completion: %v", err)
		return
	}
	if err := s.CompleteLease(r.PathValue("id"), req.Artifacts, req.Error, req.Spans); err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	if err := s.ReleaseLease(r.PathValue("id")); err != nil {
		writeLeaseError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeLeaseError maps lease-protocol failures onto HTTP codes: a lost
// lease is 410 Gone (the worker must abandon the job), anything else a
// 400.
func writeLeaseError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrLeaseLost) {
		code = http.StatusGone
	}
	writeError(w, code, "%v", err)
}
