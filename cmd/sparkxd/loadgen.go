package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparkxd"
	"sparkxd/client"
)

// runLoadgen drives a running job service with N concurrent closed-loop
// clients for a fixed duration and prints one deterministic-schema JSON
// report ("sparkxd-loadgen/v1") on stdout: throughput, submit-to-done
// latency percentiles, 429 throttle counts, and a per-priority
// breakdown. Each client submits a job, waits for it to finish, and
// immediately submits the next one, so offered load tracks service
// capacity; admission-control 429s are absorbed by the client's
// Retry-After backoff and only show up in the throttled counter.
//
// Every submitted spec is unique (the seed encodes client and sequence
// number), so the run measures real executions, not idempotent-dedup
// cache hits. The exit code is 1 if any job failed, so smoke scripts
// can assert a clean run without parsing the report.
func runLoadgen(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "job service base URL")
		clients  = fs.Int("clients", 4, "concurrent closed-loop clients")
		duration = fs.Duration("duration", 10*time.Second, "how long clients keep submitting new jobs")
		mix      = fs.String("mix", "1:0", "single:sweep job mix per client, e.g. 3:1")
		prios    = fs.String("priorities", "0", "comma-separated job priorities, cycled per submission")
		neurons  = fs.Int("neurons", 20, "excitatory neurons per generated job (kept tiny for load testing)")
		axes     = addAxisFlags(fs)
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	if *clients <= 0 {
		fmt.Fprintln(stderr, "sparkxd loadgen: -clients must be positive")
		return 2
	}
	singles, sweeps, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd loadgen: -mix: %v\n", err)
		return 2
	}
	var priorities []int
	for _, tok := range splitList(*prios) {
		p, err := strconv.Atoi(tok)
		if err != nil || p < sparkxd.MinPriority || p > sparkxd.MaxPriority {
			fmt.Fprintf(stderr, "sparkxd loadgen: -priorities: bad value %q (range %d..%d)\n",
				tok, sparkxd.MinPriority, sparkxd.MaxPriority)
			return 2
		}
		priorities = append(priorities, p)
	}
	if len(priorities) == 0 {
		priorities = []int{0}
	}
	var grid sparkxd.SweepSpec
	if err := axes.parse(&grid); err != nil {
		fmt.Fprintf(stderr, "sparkxd loadgen: %v\n", err)
		return 2
	}

	var throttled atomic.Uint64
	var (
		mu      sync.Mutex
		samples []loadSample
	)
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for id := 0; id < *clients; id++ {
		cli, err := client.New(*addr,
			client.WithSubmitter(fmt.Sprintf("loadgen-%d", id)),
			client.WithThrottleHook(func(time.Duration) { throttled.Add(1) }))
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd loadgen: %v\n", err)
			return 2
		}
		wg.Add(1)
		go func(id int, cli *client.Client) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				spec := loadSpec(id, seq, singles, sweeps, priorities, *neurons, grid)
				s := loadSample{priority: spec.Priority}
				t0 := time.Now()
				status, err := cli.Submit(ctx, spec)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					s.err = err
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
					fmt.Fprintf(stderr, "loadgen: client %d: submit: %v\n", id, err)
					return
				}
				s.jobID, s.traceID = status.ID, status.TraceID
				// The submit window is closed, but every accepted job is
				// awaited so the report never counts abandoned work.
				if _, err := cli.Wait(ctx, status.ID); err != nil {
					if ctx.Err() != nil && !errors.Is(err, client.ErrJobFailed) {
						return
					}
					s.err = err
				}
				s.latency = time.Since(t0)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(id, cli)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := buildLoadReport(samples, *addr, *clients, *mix, elapsed, throttled.Load())
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "sparkxd loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "loadgen: %d done, %d failed, %d throttled in %s (%.2f jobs/s, p50 %dms p99 %dms)\n",
		rep.Done, rep.Failed, rep.Throttled, elapsed.Round(time.Millisecond),
		rep.Throughput, rep.Latency.P50, rep.Latency.P99)
	if len(rep.Slowest) > 0 {
		s := rep.Slowest[0]
		fmt.Fprintf(stderr, "loadgen: slowest job %s (%dms) — inspect with `sparkxd trace -addr %s %s`\n",
			s.JobID, s.LatencyMS, *addr, s.JobID)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// loadSample is one closed-loop iteration: the job's priority, its
// submit-to-done latency, the failure (if any), and the IDs that let a
// slow sample be chased into its distributed trace afterwards.
type loadSample struct {
	priority int
	latency  time.Duration
	err      error
	jobID    string
	traceID  string
}

// parseMix parses "single:sweep" submission ratios, e.g. "3:1".
func parseMix(s string) (singles, sweeps int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want single:sweep, e.g. 3:1, got %q", s)
	}
	if singles, err = strconv.Atoi(strings.TrimSpace(a)); err != nil || singles < 0 {
		return 0, 0, fmt.Errorf("bad single count %q", a)
	}
	if sweeps, err = strconv.Atoi(strings.TrimSpace(b)); err != nil || sweeps < 0 {
		return 0, 0, fmt.Errorf("bad sweep count %q", b)
	}
	if singles+sweeps == 0 {
		return 0, 0, fmt.Errorf("mix %q submits nothing", s)
	}
	return singles, sweeps, nil
}

// loadSpec builds the seq-th job of one client: the first `singles`
// slots of each mix cycle are pipeline-train jobs, the rest tiny
// sweeps. The seed encodes (client, seq) so every spec is distinct
// work, and priorities cycle so the run exercises the priority queue.
// Sweeps take their bitwidth, prune and encoder axes from grid.
func loadSpec(id, seq, singles, sweeps int, priorities []int, neurons int, grid sparkxd.SweepSpec) sparkxd.JobSpec {
	cfg := sparkxd.ConfigSpec{
		Neurons:      neurons,
		TrainSamples: 20,
		TestSamples:  10,
		BaseEpochs:   1,
		BERSchedule:  []float64{1e-5},
		Seed:         uint64(id)<<32 | uint64(seq+1),
	}
	spec := sparkxd.JobSpec{
		Kind:     sparkxd.JobPipeline,
		Stage:    "train",
		Config:   cfg,
		Priority: priorities[seq%len(priorities)],
	}
	if seq%(singles+sweeps) >= singles {
		spec.Kind = sparkxd.JobSweep
		spec.Stage = ""
		spec.Sweep = &sparkxd.SweepSpec{
			Voltages:    []float64{1.1},
			BERs:        []float64{1e-5},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
			Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
			Bitwidths:   grid.Bitwidths,
			PruneLevels: grid.PruneLevels,
			Encoders:    grid.Encoders,
		}
	}
	return spec
}

// loadReport is the stable JSON schema loadgen prints on stdout.
// Consumers key on Schema; field order and names are part of the
// contract (scripts/loadgen-smoke.sh parses them).
type loadReport struct {
	Schema     string         `json:"schema"`
	Addr       string         `json:"addr"`
	Clients    int            `json:"clients"`
	Mix        string         `json:"mix"`
	DurationS  float64        `json:"duration_s"`
	Submitted  int            `json:"submitted"`
	Done       int            `json:"done"`
	Failed     int            `json:"failed"`
	Throttled  uint64         `json:"throttled_429"`
	Throughput float64        `json:"throughput_jobs_per_s"`
	Latency    latencySummary `json:"latency_ms"`
	PerPrio    []prioReport   `json:"per_priority"`
	// Slowest names the jobs in the p99 latency tail with their trace
	// IDs, so a bad percentile leads straight to `sparkxd trace <job>`
	// waterfalls instead of a needle-in-haystack log hunt.
	Slowest []slowJob `json:"slowest"`
}

type latencySummary struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

type prioReport struct {
	Priority  int   `json:"priority"`
	Submitted int   `json:"submitted"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	P50       int64 `json:"latency_ms_p50"`
}

// slowJob is one p99-tail sample: enough identity to fetch its status
// and distributed trace from the service after the run.
type slowJob struct {
	JobID     string `json:"job_id"`
	TraceID   string `json:"trace_id,omitempty"`
	Priority  int    `json:"priority"`
	LatencyMS int64  `json:"latency_ms"`
}

func buildLoadReport(samples []loadSample, addr string, clients int, mix string, elapsed time.Duration, throttled uint64) loadReport {
	rep := loadReport{
		Schema:    "sparkxd-loadgen/v1",
		Addr:      addr,
		Clients:   clients,
		Mix:       mix,
		DurationS: elapsed.Seconds(),
		Submitted: len(samples),
		Throttled: throttled,
	}
	var all []time.Duration
	byPrio := map[int]*prioReport{}
	perPrioLats := map[int][]time.Duration{}
	for _, s := range samples {
		pr := byPrio[s.priority]
		if pr == nil {
			pr = &prioReport{Priority: s.priority}
			byPrio[s.priority] = pr
		}
		pr.Submitted++
		if s.err != nil {
			rep.Failed++
			pr.Failed++
			continue
		}
		rep.Done++
		pr.Done++
		all = append(all, s.latency)
		perPrioLats[s.priority] = append(perPrioLats[s.priority], s.latency)
	}
	rep.Latency = latencySummary{
		P50: percentileMS(all, 0.50),
		P95: percentileMS(all, 0.95),
		P99: percentileMS(all, 0.99),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Done) / secs
	}
	for p, pr := range byPrio {
		pr.P50 = percentileMS(perPrioLats[p], 0.50)
		rep.PerPrio = append(rep.PerPrio, *pr)
	}
	sort.Slice(rep.PerPrio, func(a, b int) bool { return rep.PerPrio[a].Priority < rep.PerPrio[b].Priority })
	if rep.PerPrio == nil {
		rep.PerPrio = []prioReport{} // schema stability: [] not null
	}
	rep.Slowest = slowestJobs(samples, rep.Latency.P99)
	return rep
}

// slowestJobs returns the completed samples at or above the p99 latency
// (capped at 5, slowest first) with their job and trace IDs.
func slowestJobs(samples []loadSample, p99MS int64) []slowJob {
	var tail []loadSample
	for _, s := range samples {
		if s.err == nil && s.jobID != "" && s.latency.Milliseconds() >= p99MS {
			tail = append(tail, s)
		}
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a].latency > tail[b].latency })
	if len(tail) > 5 {
		tail = tail[:5]
	}
	out := make([]slowJob, 0, len(tail))
	for _, s := range tail {
		out = append(out, slowJob{
			JobID:     s.jobID,
			TraceID:   s.traceID,
			Priority:  s.priority,
			LatencyMS: s.latency.Milliseconds(),
		})
	}
	return out
}

// percentileMS is the nearest-rank percentile of lats in integer
// milliseconds; 0 when no samples completed.
func percentileMS(lats []time.Duration, q float64) int64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Milliseconds()
}
