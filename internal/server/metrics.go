package server

import (
	"time"

	"sparkxd"
	"sparkxd/internal/metrics"
	"sparkxd/internal/store"
)

// serverMetrics is the coordinator's instrument set, exposed at
// GET /metrics in Prometheus text format together with the in-process
// worker's registry (stage durations, the warm-System and sweep-profile
// caches) in local dispatch. Naming follows DESIGN.md §11: everything
// under the sparkxd_ prefix, _total counters, _seconds histograms on the
// shared DefLatencyBuckets ladder.
type serverMetrics struct {
	reg *metrics.Registry

	// submitted counts POST /v1/jobs outcomes by result:
	// created | duplicate | throttled | invalid | error.
	submitted *metrics.CounterVec
	// completed counts jobs reaching a terminal state, by outcome
	// (done | failed) and executor (local | fleet).
	completed *metrics.CounterVec
	requeued  *metrics.Counter
	// jobLatency is submit-to-terminal wall time by job kind. Requeues
	// do not reset the clock: the latency a client sees is measured
	// from first submission.
	jobLatency *metrics.HistogramVec
	// leaseOps counts lease-protocol transitions:
	// grant | renew | expire | release | complete.
	leaseOps *metrics.CounterVec
	sse      *metrics.Gauge
	storeOps *metrics.CounterVec
	// misdirected counts jobs refused with 421 because their ID hashes
	// to another federation shard.
	misdirected *metrics.Counter
	// sweepAxis accumulates, per scenario axis, the resolved axis
	// cardinality of every created (non-duplicate) sweep job — the
	// operator's view of which axes the scenario space is actually being
	// swept along.
	sweepAxis *metrics.CounterVec
}

// newServerMetrics builds the registry and binds the read-through
// instruments (queue depth, live leases, fleet size) to live server
// state; they are sampled at scrape time under s.mu.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg: r,
		submitted: r.NewCounterVec("sparkxd_jobs_submitted_total",
			"Job submissions by result.", "result"),
		completed: r.NewCounterVec("sparkxd_jobs_completed_total",
			"Jobs reaching a terminal state, by outcome and executor.", "outcome", "executor"),
		requeued: r.NewCounter("sparkxd_jobs_requeued_total",
			"Jobs returned to the queue (lease expiry, release, drain, shutdown)."),
		jobLatency: r.NewHistogramVec("sparkxd_job_latency_seconds",
			"Submit-to-terminal latency by job kind.", metrics.DefLatencyBuckets, "kind"),
		leaseOps: r.NewCounterVec("sparkxd_leases_total",
			"Lease-protocol operations.", "op"),
		sse: r.NewGauge("sparkxd_sse_subscribers",
			"Live server-sent-event subscriber connections."),
		storeOps: r.NewCounterVec("sparkxd_store_ops_total",
			"Artifact store operations through the server.", "op"),
		misdirected: r.NewCounter("sparkxd_jobs_misdirected_total",
			"Jobs refused with 421 because another federation shard owns them."),
		sweepAxis: r.NewCounterVec("sparkxd_sweep_axis_scenarios_total",
			"Resolved axis cardinalities of created sweep jobs, by axis.", "axis"),
	}
	r.NewGaugeFunc("sparkxd_queue_depth",
		"Jobs queued and not yet claimed by any executor.",
		func() float64 { return float64(s.QueueDepth()) })
	r.NewGaugeFunc("sparkxd_jobs_inflight",
		"Jobs executing right now (live leases, the in-process worker's included).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.leases))
		})
	r.NewGaugeFunc("sparkxd_workers_registered",
		"Workers that have asked this coordinator for leases (the in-process one included).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.fleet))
		})
	// A coordinator backed by a read-through composite (remote store +
	// local cache, `serve -cache`) surfaces the cache's counters; s.st is
	// still the raw configured store here (the metered wrap happens after
	// metrics).
	if rt, ok := s.st.(*store.ReadThrough); ok {
		r.NewCounterFunc("sparkxd_store_cache_hits_total",
			"Read-through store Gets served entirely from the local cache.",
			func() uint64 { h, _, _ := rt.Stats(); return h })
		r.NewCounterFunc("sparkxd_store_cache_misses_total",
			"Read-through store Gets that consulted the remote store.",
			func() uint64 { _, m, _ := rt.Stats(); return m })
		r.NewCounterFunc("sparkxd_store_cache_fills_total",
			"Remote envelopes copied into the read-through local cache.",
			func() uint64 { _, _, f := rt.Stats(); return f })
	}
	return m
}

// observeTerminal records a terminal transition: outcome counter plus
// submit-to-terminal latency (skipped for jobs restored from persisted
// records, whose queuedAt is unknown).
func (m *serverMetrics) observeTerminal(rec *jobRec, outcome, executor string) {
	m.completed.With(outcome, executor).Inc()
	if !rec.queuedAt.IsZero() {
		m.jobLatency.With(rec.status.Spec.Kind).Observe(time.Since(rec.queuedAt).Seconds())
	}
}

// observeSweepAxes records a created sweep job's resolved per-axis
// scenario cardinalities. The spec is normalized, so the legacy axes are
// always filled in and the extended axes are nil whenever they sit at
// the configured default (cardinality 1).
func (m *serverMetrics) observeSweepAxes(sw *sparkxd.SweepSpec) {
	if sw == nil {
		return
	}
	card := func(n int) uint64 {
		if n == 0 {
			return 1
		}
		return uint64(n)
	}
	m.sweepAxis.With("voltages").Add(card(len(sw.Voltages)))
	m.sweepAxis.With("bers").Add(card(len(sw.BERs)))
	m.sweepAxis.With("error_models").Add(card(len(sw.ErrorModels)))
	m.sweepAxis.With("policies").Add(card(len(sw.Policies)))
	m.sweepAxis.With("bitwidths").Add(card(len(sw.Bitwidths)))
	m.sweepAxis.With("prune_levels").Add(card(len(sw.PruneLevels)))
	m.sweepAxis.With("encoders").Add(card(len(sw.Encoders)))
}

// meteredStore wraps the server's artifact store, counting gets and
// puts (including job-record persistence and worker uploads).
type meteredStore struct {
	sparkxd.ArtifactStore
	ops *metrics.CounterVec
}

func (m meteredStore) Put(kind string, payload any) (store.Key, error) {
	m.ops.With("put").Inc()
	return m.ArtifactStore.Put(kind, payload)
}

func (m meteredStore) Get(key store.Key) (*store.Envelope, error) {
	m.ops.With("get").Inc()
	return m.ArtifactStore.Get(key)
}
