// Package sched runs the experiment suite's independent, name-keyed jobs
// (a figure, a table, an ablation, a pipeline configuration) on a bounded
// worker pool. There is no job graph: every job is self-contained and
// shares expensive artifacts through a single-flight Cache, so the
// scheduler is shard selection plus one ParallelFor over the shard's
// jobs, largest cost first.
//
// Determinism contract (see DESIGN.md §6): results must be bit-identical
// regardless of worker count or shard split. The scheduler holds up the
// half it can: every job runs, whatever another job did, and per-job
// reports are returned in name order. Jobs hold up the other half by
// deriving any randomness from their own labels, never from execution
// order or worker identity.
//
// Sharding: a Shard{i, m} run executes the jobs whose rank in the
// name-sorted full suite is congruent to i-1 mod m. The assignment
// depends only on the set of job names, so the union of shards 1/m..m/m
// is exactly the full suite with no overlap, no matter how jobs were
// registered.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Job is one schedulable unit of work.
type Job struct {
	// Name is the unique identity of the job: reports come back in name
	// order, and shards are chosen by rank in the name-sorted suite.
	Name string
	// Cost is a relative expense hint; jobs start largest cost first
	// (ties by name) to shorten the makespan.
	Cost float64
	// Run performs the work. The returned value lands in the job's
	// Report. Panics are contained and converted to errors.
	Run func() (any, error)
}

// Shard selects a 1-based slice i/m of the suite. The zero value means
// "no sharding" (run everything).
type Shard struct {
	Index, Count int
}

// Enabled reports whether the shard actually partitions the suite.
func (s Shard) Enabled() bool { return s.Count > 1 }

func (s Shard) String() string {
	if !s.Enabled() {
		return "1/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Validate checks the shard arithmetic.
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 || s.Index < 1 || s.Index > s.Count {
		return fmt.Errorf("sched: invalid shard %d/%d (want 1 <= i <= m)", s.Index, s.Count)
	}
	return nil
}

// ParseShard parses "i/m" (e.g. "2/4"). The empty string means no
// sharding. The whole spec must be consumed: trailing garbage ("1/2x")
// is rejected rather than silently running a different slice.
func ParseShard(spec string) (Shard, error) {
	if spec == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sched: malformed shard %q (want i/m)", spec)
	}
	var s Shard
	var err error
	if s.Index, err = strconv.Atoi(idx); err != nil {
		return Shard{}, fmt.Errorf("sched: malformed shard %q (want i/m)", spec)
	}
	if s.Count, err = strconv.Atoi(count); err != nil {
		return Shard{}, fmt.Errorf("sched: malformed shard %q (want i/m)", spec)
	}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// Config parameterizes a scheduler.
type Config struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Shard restricts the run to a slice of the suite.
	Shard Shard
}

// Report is the per-job outcome of a run.
type Report struct {
	Name    string
	Value   any
	Err     error
	Elapsed time.Duration
	// Worker is the pool slot that executed the job (timing diagnostics
	// only; it varies between runs and must not influence results).
	Worker int
}

// Scheduler accumulates jobs and runs them.
type Scheduler struct {
	cfg  Config
	jobs []Job
	seen map[string]bool
}

// New returns an empty scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Shard.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{cfg: cfg, seen: make(map[string]bool)}, nil
}

// Workers returns the resolved pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Add registers jobs. Names must be unique and non-empty.
func (s *Scheduler) Add(jobs ...Job) error {
	for _, j := range jobs {
		if j.Name == "" {
			return errors.New("sched: job with empty name")
		}
		if strings.ContainsAny(j.Name, "\n") {
			return fmt.Errorf("sched: job name %q contains a newline", j.Name)
		}
		if s.seen[j.Name] {
			return fmt.Errorf("sched: duplicate job %q", j.Name)
		}
		if j.Run == nil {
			return fmt.Errorf("sched: job %q has no Run function", j.Name)
		}
		s.seen[j.Name] = true
		s.jobs = append(s.jobs, j)
	}
	return nil
}

// members returns the jobs this scheduler's shard will execute, in name
// order.
func (s *Scheduler) members() []Job {
	all := append([]Job(nil), s.jobs...)
	sort.Slice(all, func(a, b int) bool { return all[a].Name < all[b].Name })
	if !s.cfg.Shard.Enabled() {
		return all
	}
	var mine []Job
	for rank, j := range all {
		if rank%s.cfg.Shard.Count == s.cfg.Shard.Index-1 {
			mine = append(mine, j)
		}
	}
	return mine
}

// Members returns the name-sorted set of jobs this scheduler's shard
// will execute.
func (s *Scheduler) Members() []string {
	jobs := s.members()
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

// Run executes the shard's jobs, largest cost first, and returns their
// reports in name order. Every job runs whatever the others do; panics
// inside jobs are contained and surfaced as that job's error. The
// returned error is the first job error in name order (nil if every job
// succeeded).
func (s *Scheduler) Run() ([]Report, error) {
	jobs := s.members()
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	// jobs is in name order, so a stable sort breaks cost ties by name.
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Cost > jobs[order[b]].Cost })

	reports := make([]Report, len(jobs))
	// runJob never fails, so ParallelFor hands out every index.
	_ = ParallelFor(s.cfg.Workers, len(order), func(w, k int) error {
		reports[order[k]] = runJob(jobs[order[k]], w)
		return nil
	})
	for _, rep := range reports {
		if rep.Err != nil {
			return reports, fmt.Errorf("sched: job %q: %w", rep.Name, rep.Err)
		}
	}
	return reports, nil
}

// runJob executes a single job on pool slot w with panic containment.
func runJob(job Job, w int) (rep Report) {
	rep = Report{Name: job.Name, Worker: w}
	start := time.Now()
	defer func() {
		rep.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			rep.Err = fmt.Errorf("sched: panic in job %q: %v\n%s", job.Name, r, debug.Stack())
		}
	}()
	rep.Value, rep.Err = job.Run()
	return rep
}
