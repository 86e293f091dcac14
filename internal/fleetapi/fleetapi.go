// Package fleetapi defines the wire types of the coordinator ↔ worker
// lease protocol (DESIGN.md §9). Both sides — the lease endpoints in
// internal/server and the lease client in internal/worker — marshal
// exactly these structs, so the protocol has one source of truth.
//
// The protocol is four verbs over plain HTTP/JSON:
//
//	POST   /v1/leases               lease up to `capacity` queued jobs,
//	                                waiting up to `wait_ms` for one
//	POST   /v1/leases/{id}/renew    extend the lease TTL, delivering the
//	                                job's events and spans since the
//	                                last renewal
//	POST   /v1/leases/{id}/complete finish the job (artifacts or error)
//	DELETE /v1/leases/{id}          release: requeue without completing
//
// Every lease request puts its worker on the roster that
// GET /v1/workers lists; there is no separate registration.
//
// A lost lease (expired, replaced, or unknown) answers 410 Gone; the
// worker must abandon the job — another worker may already own it.
package fleetapi

import "sparkxd"

// LeaseRequest asks for up to Capacity queued jobs.
type LeaseRequest struct {
	// Worker identifies the worker across requests; lease exclusion
	// after a crash is keyed by it, so restarts should reuse the name
	// only if the operator wants the restart to inherit those
	// exclusions.
	Worker string `json:"worker"`
	// Slots is how many jobs the worker executes concurrently, as the
	// roster reports it.
	Slots    int `json:"slots"`
	Capacity int `json:"capacity"`
	// WaitMillis lets the coordinator hold the request, up to its own
	// cap, until a job is grantable instead of answering empty at once
	// (a long-poll). Zero answers at once; coordinators that predate the
	// field ignore it.
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

// Grant is one leased job: the worker owns it until the lease expires,
// is released, or is completed.
type Grant struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	// Spec is the normalized job spec to execute.
	Spec sparkxd.JobSpec `json:"spec"`
	// TTLMillis is how long the lease lives without a renewal.
	TTLMillis int64 `json:"ttl_ms"`
	// Traceparent carries the job's trace context (the lease span, W3C
	// encoded) so worker-side spans nest under the coordinator's lease
	// span. It rides the lease payload — out-of-band, never inside Spec —
	// so job IDs stay content hashes of the spec alone. Empty when the
	// job has no trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// LeaseResponse carries zero or more grants (zero = nothing leasable
// for this worker right now).
type LeaseResponse struct {
	Leases []Grant `json:"leases"`
	// QueueDepth is how many jobs remain queued on the coordinator
	// after these grants — a backlog signal workers surface on their
	// own /metrics endpoints.
	QueueDepth int `json:"queue_depth"`
}

// RenewRequest extends a lease and delivers everything the job
// produced since the last renewal: progress events for the job's SSE
// log and finished spans (stages, warm-System builds) for its trace.
type RenewRequest struct {
	Events []sparkxd.Event     `json:"events,omitempty"`
	Spans  []sparkxd.TraceSpan `json:"spans,omitempty"`
}

// CompleteRequest finishes a leased job. Exactly one of Artifacts or
// Error is set: Artifacts maps result roles to store keys the worker
// has already uploaded (PUT /v1/artifacts/{key}), Error marks the job
// failed.
type CompleteRequest struct {
	Artifacts map[string]sparkxd.ArtifactKey `json:"artifacts,omitempty"`
	Error     string                         `json:"error,omitempty"`
	// Spans carries the worker's final spans (artifact upload, the
	// execution envelope), which finish after the last renewal.
	Spans []sparkxd.TraceSpan `json:"spans,omitempty"`
}

// WorkerStatus is one row of GET /v1/workers.
type WorkerStatus struct {
	Name string `json:"name"`
	// Slots is the concurrency the worker's latest lease request named.
	Slots int `json:"slots"`
	// ActiveLeases counts the worker's live leases.
	ActiveLeases int `json:"active_leases"`
	// LastSeenMillisAgo is how long ago the worker last talked to the
	// coordinator (a lease request, renewal, completion or release).
	LastSeenMillisAgo int64 `json:"last_seen_ms_ago"`
}
