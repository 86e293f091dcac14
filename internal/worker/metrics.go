package worker

import (
	"net/http"
	"time"

	"sparkxd/internal/metrics"
	"sparkxd/internal/store"
)

// workerMetrics is the worker's instrument set, served by
// MetricsHandler on a local address (the worker has no public API; the
// endpoint exists purely for scraping) and, for a coordinator's
// in-process worker, as part of the coordinator's /metrics. Names follow
// DESIGN.md §11 with a sparkxd_worker_ prefix for lease-client series;
// the stage, warm-System, sweep-profile and sweep-memo instruments carry
// plain sparkxd_ names, the same on every process that executes jobs.
type workerMetrics struct {
	reg *metrics.Registry

	// heartbeats counts lease renewals by outcome: ok | lost | error
	// (transport failure; the lease may still be alive).
	heartbeats *metrics.CounterVec
	// jobs counts leased executions by outcome:
	// done | failed | released | abandoned.
	jobs *metrics.CounterVec
	// uploadBytes totals artifact envelope bytes PUT to the coordinator.
	uploadBytes *metrics.Counter
	// stageDur times pipeline stages executed by this worker.
	stageDur *metrics.HistogramVec
	// queueDepth mirrors the coordinator backlog from the latest lease
	// response (a scheduling signal, not local state).
	queueDepth *metrics.Gauge
}

func newWorkerMetrics(w *Worker) *workerMetrics {
	r := metrics.NewRegistry()
	m := &workerMetrics{
		reg: r,
		heartbeats: r.NewCounterVec("sparkxd_worker_heartbeats_total",
			"Lease renewals by outcome.", "outcome"),
		jobs: r.NewCounterVec("sparkxd_worker_jobs_total",
			"Leased job executions by outcome.", "outcome"),
		uploadBytes: r.NewCounter("sparkxd_worker_upload_bytes_total",
			"Artifact envelope bytes uploaded to the coordinator."),
		stageDur: r.NewHistogramVec("sparkxd_job_stage_duration_seconds",
			"Wall time of pipeline stages executed by this worker.", metrics.DefLatencyBuckets, "stage"),
		queueDepth: r.NewGauge("sparkxd_worker_coordinator_queue_depth",
			"Coordinator queue depth reported by the latest lease response."),
	}
	r.NewGaugeFunc("sparkxd_worker_leases_held",
		"Leased jobs executing right now.",
		func() float64 { return float64(w.runningCount()) })
	r.NewGaugeFunc("sparkxd_worker_slots",
		"Configured concurrent execution slots.",
		func() float64 { return float64(w.slots) })
	r.NewGaugeFunc("sparkxd_warm_systems",
		"Warm System engines currently cached (bounded by -max-warm-systems).",
		func() float64 { return float64(w.systems.Len()) })
	r.NewCounterFunc("sparkxd_warm_systems_hits_total",
		"Warm-System cache acquisitions served by an existing engine.",
		func() uint64 { h, _, _ := w.systems.Stats(); return h })
	r.NewCounterFunc("sparkxd_warm_systems_misses_total",
		"Warm-System cache acquisitions that built a new engine.",
		func() uint64 { _, m, _ := w.systems.Stats(); return m })
	r.NewCounterFunc("sparkxd_warm_systems_evictions_total",
		"Warm System engines evicted by the LRU bound.",
		func() uint64 { _, _, e := w.systems.Stats(); return e })
	r.NewCounterFunc("sparkxd_sweep_profile_cache_hits_total",
		"Device-profile sweep cache hits across cached engines (SweepCacheStats).",
		func() uint64 { h, _ := w.systems.SweepCacheStats(); return h })
	r.NewCounterFunc("sparkxd_sweep_profile_cache_misses_total",
		"Device-profile sweep cache misses across cached engines (SweepCacheStats).",
		func() uint64 { _, m := w.systems.SweepCacheStats(); return m })
	r.NewCounterFunc("sparkxd_sweep_memo_hits_total",
		"Sweep memo hits (per-model and per-test-set work) across cached engines (SweepMemoStats).",
		func() uint64 { h, _, _ := w.systems.SweepMemoStats(); return h })
	r.NewCounterFunc("sparkxd_sweep_memo_misses_total",
		"Sweep memo misses across cached engines (SweepMemoStats).",
		func() uint64 { _, m, _ := w.systems.SweepMemoStats(); return m })
	r.NewCounterFunc("sparkxd_sweep_memo_evictions_total",
		"Sweep memo values its byte budget did not keep, across cached engines (SweepMemoStats).",
		func() uint64 { _, _, e := w.systems.SweepMemoStats(); return e })
	// A worker uploading through a read-through composite (remote store
	// + local cache) surfaces the cache's counters, mirroring the
	// coordinator's series names.
	if rt, ok := w.st.(*store.ReadThrough); ok {
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

// observeStage is the stageObserver of this worker's jobs.
func (m *workerMetrics) observeStage(stage string, d time.Duration) {
	m.stageDur.With(stage).Observe(d.Seconds())
}

// MetricsHandler serves the worker's Prometheus metrics; mount it on a
// local listener (`sparkxd worker -metrics`).
func (w *Worker) MetricsHandler() http.Handler { return w.metrics.reg.Handler() }

// Metrics returns the worker's registry, for a process that exposes it
// alongside its own (a coordinator's in-process worker).
func (w *Worker) Metrics() *metrics.Registry { return w.metrics.reg }
