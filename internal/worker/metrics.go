package worker

import (
	"net/http"
	"time"

	"sparkxd/internal/metrics"
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

	// heartbeats counts lease renewals, those that deliver events and
	// spans included, by outcome: ok | lost | error (transport failure;
	// the lease may still be alive).
	heartbeats *metrics.CounterVec
	// jobs counts leased executions by outcome:
	// done | failed | released | abandoned.
	jobs *metrics.CounterVec
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
	for i, series := range sweepSeries {
		r.NewCounterFunc(series[0], series[1], func() uint64 { return w.systems.sweepStats()[i] })
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

// sweepSeries names and describes the sweep-engine counters, in
// systems.sweepStats order.
var sweepSeries = [5][2]string{
	{"sparkxd_sweep_profile_cache_hits_total", "Sweep device-profile lookups served by the engine memo, over every engine this process built."},
	{"sparkxd_sweep_profile_cache_misses_total", "Sweep device-profile derivations, one per device point the memo did not hold, over every engine this process built."},
	{"sparkxd_sweep_memo_hits_total", "Sweep memo hits (device-point state, per-model and per-test-set work) over every engine this process built."},
	{"sparkxd_sweep_memo_misses_total", "Sweep memo misses over every engine this process built."},
	{"sparkxd_sweep_memo_evictions_total", "Sweep memo values its byte budget did not keep, over every engine this process built."},
}
