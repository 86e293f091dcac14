package worker

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sparkxd"
)

// systems is a worker's fingerprint-keyed cache of warm engines: jobs
// whose ConfigSpecs hash to the same fingerprint run against one
// lazily-built *sparkxd.System, so datasets, device
// profiles, and sweep caches are derived once per configuration per
// process. The observer receives every engine event tagged with the
// owning fingerprint (for per-job fanout).
//
// The cache is optionally bounded: with maxWarm > 0 it keeps at most
// that many engines, evicting the least-recently-acquired unpinned one
// when a new fingerprint arrives. Entries are pinned while a job runs
// on them (Acquire pins, the returned release unpins), so an engine is
// never dropped out from under live execution — when every entry is
// pinned the cache temporarily exceeds its bound rather than stalling.
// Eviction is safe by construction: a re-acquired fingerprint rebuilds
// the System from the same ConfigSpec, and because construction is
// deterministic in the spec, the rebuilt engine produces byte-identical
// artifacts (pinned by TestEvictedFingerprintRebuildsIdentically).
type systems struct {
	workers  int
	maxWarm  int // 0 = unbounded (the pre-bound behavior)
	observer func(fp string, ev sparkxd.Event)

	mu      sync.Mutex
	entries map[string]*sysEntry
	order   []string // LRU order: least recently acquired first
	hits    uint64
	misses  uint64
	evicted uint64
}

// sysEntry lazily builds one shared System per config fingerprint.
type sysEntry struct {
	fp   string
	pins int // live Acquires; evictable only at zero
	once sync.Once
	sys  *sparkxd.System
	err  error
}

// newSystems builds a cache whose engines run sweeps on a pool of
// `workers` and report events through observer. The same budget also
// parallelizes within single evaluations (batched spike encoding and
// drive accumulation), so a lone big job on an idle worker process uses
// every core instead of one; artifacts stay byte-identical for any
// worker count. maxWarm bounds the number of cached engines (0 keeps
// the cache unbounded).
func newSystems(workers, maxWarm int, observer func(fp string, ev sparkxd.Event)) *systems {
	if observer == nil {
		observer = func(string, sparkxd.Event) {}
	}
	if maxWarm < 0 {
		maxWarm = 0
	}
	return &systems{
		workers:  workers,
		maxWarm:  maxWarm,
		observer: observer,
		entries:  make(map[string]*sysEntry),
	}
}

// Acquire returns (building once) the shared System of one
// configuration fingerprint, pinned against eviction until release is
// called. built reports whether this call found the fingerprint cold
// and (with the engine build happening inside the call) paid for the
// System construction — callers use it to attribute warm-build latency
// (e.g. a "warm-system-build" trace span). release is always non-nil
// and safe to call exactly once; callers should defer it around the
// job's execution.
func (c *systems) Acquire(fp string, cfg sparkxd.ConfigSpec) (sys *sparkxd.System, built bool, release func(), err error) {
	c.mu.Lock()
	ent, ok := c.entries[fp]
	if ok {
		c.hits++
		c.touchLocked(fp)
	} else {
		c.misses++
		ent = &sysEntry{fp: fp}
		c.entries[fp] = ent
		c.order = append(c.order, fp)
	}
	ent.pins++
	if !ok {
		c.evictLocked()
	}
	c.mu.Unlock()

	ent.once.Do(func() {
		opts, err := cfg.Options()
		if err != nil {
			c.setBuiltLocked(ent, nil, err)
			return
		}
		opts = append(opts,
			sparkxd.WithSweepWorkers(c.workers),
			sparkxd.WithObserver(func(ev sparkxd.Event) { c.observer(fp, ev) }),
		)
		s, err := sparkxd.New(opts...)
		c.setBuiltLocked(ent, s, err)
	})

	var relOnce sync.Once
	release = func() {
		relOnce.Do(func() {
			c.mu.Lock()
			ent.pins--
			c.evictLocked()
			c.mu.Unlock()
		})
	}
	return ent.sys, !ok, release, ent.err
}

// setBuiltLocked records a build result under the lock so concurrent
// stats readers (which iterate entries) never race the builder.
func (c *systems) setBuiltLocked(ent *sysEntry, sys *sparkxd.System, err error) {
	c.mu.Lock()
	ent.sys, ent.err = sys, err
	c.mu.Unlock()
}

// touchLocked moves fp to the most-recently-used end. Caller holds
// c.mu.
func (c *systems) touchLocked(fp string) {
	for i, f := range c.order {
		if f == fp {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// evictLocked drops least-recently-acquired unpinned entries until the
// cache respects its bound (or only pinned entries remain). Caller
// holds c.mu.
func (c *systems) evictLocked() {
	if c.maxWarm <= 0 {
		return
	}
	for len(c.entries) > c.maxWarm {
		victim := -1
		for i, fp := range c.order {
			if c.entries[fp].pins == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return // everything pinned: exceed the bound rather than stall
		}
		fp := c.order[victim]
		c.order = append(c.order[:victim:victim], c.order[victim+1:]...)
		delete(c.entries, fp)
		c.evicted++
	}
}

// Len returns how many engines are currently cached.
func (c *systems) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative acquire hit/miss and eviction counts.
func (c *systems) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}

// sweepStats sums the sweep-engine counters of every currently cached
// engine, in sweepSeries order: profile hits and misses (one miss per
// device point derived, System.SweepCacheStats), then the whole memo's
// hits, misses and evictions (System.SweepMemoStats). Evicted engines
// take their counts with them, so this tracks the live working set.
func (c *systems) sweepStats() (sum [5]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ent := range c.entries {
		if ent.sys == nil {
			continue
		}
		ph, pm := ent.sys.SweepCacheStats()
		mh, mm, me := ent.sys.SweepMemoStats()
		for i, v := range [5]uint64{ph, pm, mh, mm, me} {
			sum[i] += v
		}
	}
	return sum
}

// stageObserver receives the wall-clock duration of each completed
// pipeline stage a job executes (metrics wiring; nil disables).
type stageObserver func(stage string, d time.Duration)

// produce runs spec's work on sys and returns the artifact values
// keyed by their result role ("baseline", "improved", "tolerance",
// "placement", "evaluation", "energy", "sweep"). The caller persists
// them (locally or by uploading to the coordinator); every returned
// value is accepted by sparkxd.PutArtifact. observe, when non-nil,
// receives per-stage wall-clock durations.
func produce(ctx context.Context, sys *sparkxd.System, spec sparkxd.JobSpec, observe stageObserver) (map[string]any, error) {
	timed := func(stage string, run func(context.Context) error) error {
		start := time.Now()
		err := run(ctx)
		if observe != nil && err == nil {
			observe(stage, time.Since(start))
		}
		return err
	}
	p := sys.Pipeline()
	switch spec.Kind {
	case sparkxd.JobSweep:
		if err := timed("train", func(ctx context.Context) error { _, err := p.Train(ctx); return err }); err != nil {
			return nil, err
		}
		if err := timed("improve", func(ctx context.Context) error { _, err := p.ImproveTolerance(ctx); return err }); err != nil {
			return nil, err
		}
		var rep *sparkxd.SweepReport
		err := timed("sweep", func(ctx context.Context) error {
			var err error
			rep, err = p.Sweep(ctx, *spec.Sweep)
			return err
		})
		if err != nil {
			return nil, err
		}
		return map[string]any{"improved": p.Improved, "sweep": rep}, nil

	case sparkxd.JobPipeline:
		target := sparkxd.StageRank(spec.Stage)
		if target < 0 {
			return nil, fmt.Errorf("unknown stage %q", spec.Stage)
		}
		stages := []struct {
			name string
			run  func(context.Context) error
		}{
			{"train", func(ctx context.Context) error { _, err := p.Train(ctx); return err }},
			{"improve", func(ctx context.Context) error { _, err := p.ImproveTolerance(ctx); return err }},
			{"analyze", func(ctx context.Context) error { _, err := p.AnalyzeTolerance(ctx); return err }},
			{"map", func(ctx context.Context) error { _, err := p.Map(ctx); return err }},
			{"evaluate", func(ctx context.Context) error { _, err := p.EvaluateUnderErrors(ctx); return err }},
			{"energy", func(ctx context.Context) error { _, err := p.EnergyReport(ctx); return err }},
		}
		for i, st := range stages {
			if i > target {
				break
			}
			if err := timed(st.name, st.run); err != nil {
				return nil, fmt.Errorf("stage %s: %w", st.name, err)
			}
		}
		produced := map[string]any{}
		if p.Baseline != nil {
			produced["baseline"] = p.Baseline
		}
		if p.Improved != nil {
			produced["improved"] = p.Improved
		}
		if p.Tolerance != nil {
			produced["tolerance"] = p.Tolerance
		}
		if p.Placement != nil {
			produced["placement"] = p.Placement
		}
		if p.Evaluation != nil {
			produced["evaluation"] = p.Evaluation
		}
		if p.Energy != nil {
			produced["energy"] = p.Energy
		}
		return produced, nil

	default:
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}
