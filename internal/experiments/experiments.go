// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each Fig*/Table*
// function returns a structured result and can render itself as terminal
// tables/charts. Every entry also registers itself (from its exp_*.go
// file's init) as a job of the internal/sched scheduler;
// cmd/experiments is the CLI front-end: `experiments run` executes the
// whole registered suite in parallel with shard support.
//
// Results are *shape-level* reproductions: the DRAM-side numbers
// (Figs. 2, 6, 12, Table I) track the paper closely because the energy
// and circuit models are calibrated against it, while the SNN-side
// numbers (Figs. 1a, 8, 11) use synthetic datasets and scaled-down
// training budgets, so absolute accuracies differ but orderings and
// trends are preserved (EXPERIMENTS.md records both).
package experiments

import (
	"context"
	"fmt"
	"io"

	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/engine"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
	"sparkxd/internal/snn"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks network sizes and sample counts so the whole suite
	// runs in tens of seconds (used by tests and benchmarks). Full mode
	// uses the paper's network sizes.
	Quick bool
	// Seed drives every stochastic component.
	Seed uint64
	// Workers bounds the intra-experiment parallelism (panel sweeps,
	// encoder comparisons); <= 0 means GOMAXPROCS. Results are
	// bit-identical for any value because every random stream is
	// derived from labels, never from execution order.
	Workers int
	// Log receives progress lines (nil = silent).
	Log io.Writer

	// Overrides, used by benchmarks to pin extra-small budgets; zero/nil
	// values fall back to the Quick/full defaults.
	OverrideSizes  []int
	OverrideTrainN int
	OverrideTestN  int
	OverrideBERs   []float64
}

// BenchOptions returns minimal budgets: tiny networks and sample counts
// that still exercise the full experiment path, for tests that run it.
func BenchOptions() Options {
	return Options{
		Quick:          true,
		Seed:           2021,
		OverrideSizes:  []int{50, 100},
		OverrideTrainN: 80,
		OverrideTestN:  40,
		OverrideBERs:   []float64{1e-5, 1e-3},
	}
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Sizes returns the network-size sweep for the accuracy/energy figures.
func (o Options) Sizes() []int {
	if len(o.OverrideSizes) > 0 {
		return o.OverrideSizes
	}
	if o.Quick {
		return []int{400, 900}
	}
	return snn.PaperSizes()
}

// TrainN returns the training-set size.
func (o Options) TrainN() int {
	if o.OverrideTrainN > 0 {
		return o.OverrideTrainN
	}
	if o.Quick {
		return 200
	}
	return 400
}

// TestN returns the test-set size.
func (o Options) TestN() int {
	if o.OverrideTestN > 0 {
		return o.OverrideTestN
	}
	if o.Quick {
		return 100
	}
	return 200
}

// BaseEpochs returns the number of error-free training epochs.
func (o Options) BaseEpochs() int {
	if o.Quick {
		return 1
	}
	return 2
}

// BERs returns the bit-error-rate sweep of Figs. 8 and 11.
func (o Options) BERs() []float64 {
	if len(o.OverrideBERs) > 0 {
		return o.OverrideBERs
	}
	if o.Quick {
		return []float64{1e-9, 1e-7, 1e-5, 1e-3}
	}
	return []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}
}

// Runner caches trained models across experiments (Figs. 8, 11, 12 share
// them) and owns the framework instance. The cache is a sched.Cache, so
// scheduler jobs running concurrently share single-flight artifact
// computation: the first job to need a (size, flavour, seed) model pair
// trains it and every other job blocks on — then reuses — that result.
type Runner struct {
	Opts  Options
	F     *core.Framework
	cache *sched.Cache
	eng   *engine.Engine
}

// ModelPair is a baseline network and its fault-aware-trained counterpart.
type ModelPair struct {
	Size     int
	Flavor   dataset.Flavor
	Baseline *snn.Network
	Improved *snn.Network
	// BaselineAcc is the error-free baseline accuracy (acc0 in Alg. 1).
	BaselineAcc float64
	// TrainCurve is the per-rate accuracy observed during Algorithm 1.
	TrainCurve []core.RatePoint
	// BERth is the provisional maximum tolerable BER from training.
	BERth float64
}

// NewRunner builds a runner over the paper's framework with its own
// artifact cache.
func NewRunner(opts Options) *Runner {
	f := core.NewFramework()
	return &Runner{
		Opts:  opts,
		F:     f,
		cache: sched.NewCache(),
		eng:   engine.New(f),
	}
}

// Engine exposes the runner's batched scenario-sweep engine; the
// accuracy-grid experiments (Figs. 8, 11) fan their BER points out
// through it, sharing derived profiles and prepared injectors across
// experiments and workers.
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Data returns (train, test) for a flavour, cached by
// flavour+budgets+seed.
func (r *Runner) Data(fl dataset.Flavor) (*dataset.Dataset, *dataset.Dataset, error) {
	key := fmt.Sprintf("dset/%s/train%d/test%d/seed%d", fl, r.Opts.TrainN(), r.Opts.TestN(), r.Opts.Seed)
	v, err := r.cache.GetOrCompute(key, func() (any, error) {
		cfg := dataset.DefaultConfig(fl)
		cfg.Train, cfg.Test = r.Opts.TrainN(), r.Opts.TestN()
		cfg.Seed = r.Opts.Seed
		train, test, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return [2]*dataset.Dataset{train, test}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	d := v.([2]*dataset.Dataset)
	return d[0], d[1], nil
}

// trainCfg returns the Algorithm-1 schedule for this run.
func (r *Runner) trainCfg() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Rates = r.Opts.BERs()
	cfg.Seed = r.Opts.Seed + 13
	return cfg
}

// Pair returns the trained (baseline, improved) pair for a size and
// flavour, training on first use and caching by size+flavour+seed.
// Training seeds derive from the pair's label, so the result is
// bit-identical no matter which experiment (or worker) triggers it.
func (r *Runner) Pair(size int, fl dataset.Flavor) (*ModelPair, error) {
	label := fmt.Sprintf("%s/N%d", fl, size)
	key := fmt.Sprintf("pair/%s/N%d/seed%d", fl, size, r.Opts.Seed)
	v, err := r.cache.GetOrCompute(key, func() (any, error) {
		train, test, err := r.Data(fl)
		if err != nil {
			return nil, err
		}
		r.Opts.logf("training %s ...", label)
		baseline, err := snn.New(snn.DefaultConfig(size), rng.New(r.Opts.Seed))
		if err != nil {
			return nil, err
		}
		// The baseline gets the same total training budget as the improved
		// model (base epochs + one epoch per BER schedule rate); otherwise
		// the fault-aware model's extra epochs would confound the Fig. 8/11
		// comparison, which isolates the effect of error awareness.
		root := rng.New(r.Opts.Seed).Derive(label)
		epochs := r.Opts.BaseEpochs() + len(r.Opts.BERs())*r.trainCfg().EpochsPerRate
		ctx := context.Background()
		for e := 0; e < epochs; e++ {
			if err := baseline.TrainEpochCtx(ctx, train, root.DeriveIndex("epoch", e)); err != nil {
				return nil, err
			}
		}
		if err := baseline.AssignLabelsCtx(ctx, train, root.Derive("assign")); err != nil {
			return nil, err
		}

		res, err := r.F.ImproveErrorTolerance(ctx, baseline, train, test, r.trainCfg())
		if err != nil {
			return nil, err
		}
		p := &ModelPair{
			Size:        size,
			Flavor:      fl,
			Baseline:    baseline,
			Improved:    res.Model,
			BaselineAcc: res.BaselineAcc,
			TrainCurve:  res.PerRate,
			BERth:       res.BERth,
		}
		r.Opts.logf("trained  %s: acc0=%.1f%% BERth=%.0e", label, p.BaselineAcc*100, p.BERth)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ModelPair), nil
}

// parallelFor runs fn(i) for i in [0, n) on up to Opts.Workers workers
// (GOMAXPROCS when unset) and returns the lowest-index error.
func (r *Runner) parallelFor(n int, fn func(i int) error) error {
	return sched.ParallelFor(r.Opts.Workers, n, func(_, i int) error { return fn(i) })
}
