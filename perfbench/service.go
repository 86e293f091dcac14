package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparkxd"
	"sparkxd/client"
	"sparkxd/internal/server"
	"sparkxd/internal/worker"
)

// The service workloads are the job-service tenants: an open-loop
// Poisson generator submits loadgen-sized jobs over HTTP to an in-process
// coordinator (local dispatch, or fleet dispatch to in-process workers
// joined over loopback) and polls each job to its terminal state.

type mode string

const (
	modeLocal mode = "local"
	modeFleet mode = "fleet"
)

// Offered rates, from each mode's closed-loop capacity measured with
// `--capacity` (nproc closed-loop clients over the same job mix) on a
// 2-core machine. Local dispatch completed 17.4 jobs/s at a p50 of
// 101 ms; it is offered about a quarter of that, because at half the
// median job swung by 15% between identical runs. Fleet dispatch
// completed 4.2 jobs/s at a p50 of 496 ms, since an idle worker asks for
// work once per 500 ms poll; it is offered about half.
var offeredRate = map[mode]float64{modeLocal: 4.5, modeFleet: 2}

// pollEvery is the fixed client poll interval, well under each mode's
// median job latency, so completion is observed within a few ms.
var pollEvery = map[mode]time.Duration{modeLocal: 5 * time.Millisecond, modeFleet: 20 * time.Millisecond}

// stack is one running service: the coordinator behind an httptest
// listener, its fleet workers, and the client the generator drives it
// with.
type stack struct {
	mode    mode
	srv     *server.Server
	ts      *httptest.Server
	hc      *http.Client
	cli     *client.Client
	workers []*worker.Worker
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// startStack starts a coordinator with the `sparkxd serve` defaults
// (in-memory store, Workers = nproc, no admission limit) and, for fleet
// dispatch, nproc one-slot workers with the `sparkxd worker` defaults.
func startStack(m mode) (*stack, error) {
	nproc := runtime.GOMAXPROCS(0)
	dispatch := server.DispatchLocal
	if m == modeFleet {
		dispatch = server.DispatchFleet
	}
	srv, err := server.New(server.Config{Store: sparkxd.MemoryStore(), Workers: nproc, Dispatch: dispatch})
	if err != nil {
		return nil, err
	}
	s := &stack{mode: m, srv: srv, ts: httptest.NewServer(srv.Handler())}
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	if s.cli, err = client.New(s.ts.URL, client.WithHTTPClient(s.hc), client.WithSubmitter("perfbench")); err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	if m == modeFleet {
		for i := 0; i < nproc; i++ {
			w, err := worker.New(worker.Config{Coordinator: s.ts.URL, Name: fmt.Sprintf("w%d", i), Slots: 1})
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers = append(s.workers, w)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if err := w.Run(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "worker: %v\n", err)
				}
			}()
		}
	}
	return s, nil
}

// close stops the workers and waits for them, then the listener and the
// coordinator.
func (s *stack) close() {
	if s.stop != nil {
		s.stop()
	}
	s.wg.Wait()
	s.ts.Close()
	s.srv.Close()
	if t, ok := s.hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// jobSample is one submission as the client saw it.
type jobSample struct {
	op       jobOp
	due      time.Time
	sent     time.Time
	submitMS float64
	observed time.Time
	err      error
}

// wantRoles are the artifact roles a done job of each kind carries.
func wantRoles(spec sparkxd.JobSpec) []string {
	if spec.Kind == sparkxd.JobSweep {
		return []string{"improved", "sweep"}
	}
	return []string{"baseline"}
}

// do submits one job and polls it, at a fixed jitter-free interval, to
// its terminal state, then checks the answer.
func (s *stack) do(ctx context.Context, op jobOp) jobSample {
	smp := jobSample{op: op, sent: time.Now()}
	st, err := s.cli.Submit(ctx, op.Spec)
	smp.submitMS = float64(time.Since(smp.sent)) / 1e6
	if err != nil {
		smp.err = fmt.Errorf("submit: %w", err)
		return smp
	}
	poll := pollEvery[s.mode]
	st, err = s.cli.Wait(ctx, st.ID, client.WaitPollInterval(poll), client.WaitMaxInterval(poll),
		client.WaitBackoff(1), client.WaitJitter(0))
	smp.observed = time.Now()
	switch {
	case err != nil:
		smp.err = fmt.Errorf("wait: %w", err)
	case op.ID != "" && st.ID != op.ID:
		smp.err = fmt.Errorf("answered job %s, want %s", st.ID, op.ID)
	case st.State != sparkxd.JobDone:
		smp.err = fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	if smp.err == nil {
		for _, role := range wantRoles(op.Spec) {
			if st.Artifacts[role] == "" {
				smp.err = fmt.Errorf("job %s has no %q artifact", st.ID, role)
			}
		}
	}
	return smp
}

// serviceSetup starts a stack and runs the warm-up jobs through it one
// at a time.
func serviceSetup(rc *runCtx, m mode) (*stack, error) {
	s, err := startStack(m)
	if err != nil {
		return nil, err
	}
	for _, spec := range warmupJobs(rc.seed) {
		if smp := s.do(context.Background(), jobOp{Spec: spec}); smp.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", smp.err)
		}
	}
	return s, nil
}

// drainTimeout bounds how long the generator waits for the schedule's
// last jobs after the window closes.
const drainTimeout = 60 * time.Second

func runService(rc *runCtx, m mode) (*outcome, error) {
	out := &outcome{}
	var s *stack
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = serviceSetup(rc, m); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	defer s.close()

	ops, err := serviceSchedule(rc.seed, offeredRate[m], rc.seconds)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), rc.seconds+drainTimeout)
	defer cancel()
	samples := make([]jobSample, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i, op := range ops {
		due := start.Add(op.Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, op jobOp) {
			defer wg.Done()
			samples[i] = s.do(ctx, op)
			samples[i].due = due
		}(i, op)
	}
	wg.Wait()

	var last time.Time
	for _, smp := range samples {
		out.attempted++
		if smp.err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "%s job (%s): %v\n", m, smp.op.Class, smp.err)
			continue
		}
		out.latS = append(out.latS, smp.observed.Sub(smp.due).Seconds())
		out.units++
		if smp.observed.After(last) {
			last = smp.observed
		}
	}
	out.wallS = last.Sub(start).Seconds()
	if rc.tr == nil {
		return out, nil
	}
	for _, smp := range samples {
		rc.tr.add("client.late", -1, smp.due, smp.sent.Sub(smp.due))
		rc.tr.add("client.submit", -1, smp.sent, time.Duration(smp.submitMS*1e6))
	}
	layers, err := serviceLayers(ctx, rc, s, samples)
	if err != nil {
		return nil, err
	}
	out.layers = layers
	return out, nil
}

// jobParts is one job's persisted trace, reduced to the spans the
// per-layer metrics read (ms), plus the client's view of it.
type jobParts struct {
	job, admit, queue, execute, lease, build, store float64
	stages                                          map[string]float64
	lag, latency, late                              float64
}

// partsOf fetches and reduces the trace of one completed job.
func partsOf(ctx context.Context, s *stack, smp jobSample) (*jobParts, error) {
	tr, err := s.cli.Trace(ctx, smp.op.ID)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", smp.op.ID, err)
	}
	p := &jobParts{stages: map[string]float64{}}
	for _, sp := range tr.Spans {
		ms := float64(sp.DurationNanos) / 1e6
		switch {
		case sp.Name == "job":
			p.job = ms
			p.lag = float64(smp.observed.UnixNano()-sp.EndUnixNano()) / 1e6
		case sp.Name == "admit":
			p.admit += ms
		case sp.Name == "queue-wait":
			p.queue += ms
		case sp.Name == "execute":
			p.execute += ms
		case sp.Name == "lease":
			p.lease += ms
		case sp.Name == "warm-system-build":
			p.build += ms
		case sp.Name == "store-artifacts" || sp.Name == "artifact-upload":
			p.store += ms
		case strings.HasPrefix(sp.Name, "stage:"):
			p.stages[strings.TrimPrefix(sp.Name, "stage:")] += ms
		}
	}
	p.latency = float64(smp.observed.Sub(smp.due)) / 1e6
	p.late = float64(smp.sent.Sub(smp.due)) / 1e6
	return p, nil
}

// serviceLayers derives the service layers' metrics from client-side
// spans, every first-submitted job's persisted trace, and one final
// /metrics scrape of the coordinator (and of each fleet worker).
func serviceLayers(ctx context.Context, rc *runCtx, s *stack, samples []jobSample) (map[string]float64, error) {
	var parts []*jobParts
	for _, smp := range samples {
		if smp.op.Class == classDup {
			continue // a resubmission shares its original's trace
		}
		p, err := partsOf(ctx, s, smp)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	col := func(f func(*jobParts) (float64, bool)) []float64 {
		var xs []float64
		for _, p := range parts {
			if v, ok := f(p); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	holder := func(p *jobParts) float64 { // the span that held the job while it ran
		if s.mode == modeFleet {
			return p.lease
		}
		return p.execute
	}
	queue := col(func(p *jobParts) (float64, bool) { return p.queue, true })
	L := map[string]float64{
		"client.submit_ms":         median(rc.tr.durations("client.submit", false)),
		"loadgen.late_p99_ms":      quantile(rc.tr.durations("client.late", false), 0.99),
		"client.wait_lag_ms":       median(col(func(p *jobParts) (float64, bool) { return p.lag, true })),
		"server.admit_ms":          median(col(func(p *jobParts) (float64, bool) { return p.admit, true })),
		"server.queue_wait_p50_ms": quantile(queue, 0.5),
		"server.queue_wait_p90_ms": quantile(queue, 0.9),
		"jobrun.warm_build_ms":     median(col(func(p *jobParts) (float64, bool) { return p.build, p.build > 0 })),
		"store.put_ms":             median(col(func(p *jobParts) (float64, bool) { return p.store, true })),
		"trace.residual_ms": median(col(func(p *jobParts) (float64, bool) {
			return p.job - p.admit - p.queue - holder(p), true
		})),
	}
	for _, st := range []string{"train", "improve", "sweep"} {
		L["jobrun.stage_"+st+"_ms"] = median(col(func(p *jobParts) (float64, bool) {
			v, ok := p.stages[st]
			return v, ok
		}))
	}
	if s.mode == modeFleet {
		L["server.lease_overhead_ms"] = median(col(func(p *jobParts) (float64, bool) { return p.lease - p.execute, true }))
	}

	// Conservation: what no named part explains (the HTTP submit path,
	// dispatch hand-offs) must stay a small share of the client latency.
	gap := median(col(func(p *jobParts) (float64, bool) {
		return p.latency - p.late - p.admit - p.queue - holder(p) - p.lag, true
	}))
	lat := median(col(func(p *jobParts) (float64, bool) { return p.latency, true }))
	fmt.Fprintf(os.Stderr, "%s conservation: p50 latency %.2f ms, unexplained p50 %.2f ms\n", s.mode, lat, gap)

	coord, err := scrape(s.srv.Handler())
	if err != nil {
		return nil, err
	}
	warm := coord // fleet workers keep their own warm Systems
	if s.mode == modeFleet {
		warm = metricSet{}
		for _, w := range s.workers {
			ws, err := scrape(w.MetricsHandler())
			if err != nil {
				return nil, err
			}
			for k, v := range ws {
				warm[k] += v
			}
		}
	}
	hits, misses := warm.sum("sparkxd_warm_systems_hits_total"), warm.sum("sparkxd_warm_systems_misses_total")
	L["jobrun.warm_hit_ratio"] = ratio(hits, hits+misses)
	dups := coord.sum(`sparkxd_jobs_submitted_total{result="duplicate"}`)
	L["server.dedup_ratio"] = ratio(dups, dups+coord.sum(`sparkxd_jobs_submitted_total{result="created"}`))
	L["server.requeued"] = coord.sum("sparkxd_jobs_requeued_total")
	L["worker.heartbeats"] = warm.sum("sparkxd_worker_heartbeats_total")
	if lat > 0 && gap > 0.25*lat+5 {
		return nil, fmt.Errorf("conservation: unexplained %.2f ms of a %.2f ms median job", gap, lat)
	}
	return L, nil
}

// metricSet is a Prometheus text exposition, series -> value.
type metricSet map[string]float64

// sum adds every series whose name (with labels) starts with prefix.
func (m metricSet) sum(prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return t
}

// scrape reads one /metrics exposition from a handler.
func scrape(h http.Handler) (metricSet, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", rec.Code)
	}
	return parseMetrics(rec.Body.String())
}

// parseMetrics reads "series value" lines, skipping comments.
func parseMetrics(text string) (metricSet, error) {
	m := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, errors.New("metrics: malformed line " + strconv.Quote(line))
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// measureCapacity runs nproc closed-loop clients over the job mix for
// the window and prints the completed jobs per second: the capacity the
// offered rates are derived from.
func measureCapacity(rc *runCtx, name string) int {
	m := map[string]mode{"service_local": modeLocal, "service_fleet": modeFleet}[name]
	if m == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --capacity applies to service workloads")
		return 2
	}
	s, err := serviceSetup(rc, m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer s.close()
	// A schedule denser than capacity, consumed closed-loop.
	ops, err := serviceSchedule(rc.seed, 100, rc.seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var (
		mu        sync.Mutex
		next      int
		done      int
		latencies []float64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < rc.seconds {
				mu.Lock()
				if next == len(ops) {
					mu.Unlock()
					return
				}
				op := ops[next]
				next++
				mu.Unlock()
				t0 := time.Now()
				smp := s.do(context.Background(), op)
				mu.Lock()
				if smp.err == nil {
					done++
					latencies = append(latencies, time.Since(t0).Seconds())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	fmt.Printf("%s closed-loop capacity: %.2f jobs/s over %d jobs (p50 %.1f ms)\n",
		name, float64(done)/el, done, median(latencies)*1e3)
	return 0
}
