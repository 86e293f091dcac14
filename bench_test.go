// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md §4), plus micro-benchmarks of the computational kernels
// each experiment leans on. The per-figure benchmarks run the same code
// paths as `cmd/experiments` with the minimal BenchOptions budgets, so
// `go test -bench=. -benchmem` regenerates every result shape end to end.
package sparkxd_test

import (
	"context"
	"fmt"
	"testing"

	"sparkxd"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/experiments"
	"sparkxd/internal/mapping"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.BenchOptions())
}

// --- one benchmark per paper table/figure --------------------------------

func BenchmarkFig1a(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig1a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1b(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.Fig1b()
	}
}

func BenchmarkFig2a(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig2a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2b(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.Fig2b()
	}
}

func BenchmarkFig2c(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.Fig2c()
	}
}

func BenchmarkFig2d(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.Fig2d()
	}
}

func BenchmarkFig6(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.Fig6()
	}
}

func BenchmarkFig8(b *testing.B) {
	// Trained models are cached by the runner, so the steady-state
	// iteration measures the tolerance analysis itself; the first
	// iteration includes fault-aware training.
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig12a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12b(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig12b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		_ = r.TableI()
	}
}

// --- design-choice ablations (DESIGN.md §5) -------------------------------

func BenchmarkAblationMapping(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationMapping(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationErrModels(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationErrModels(1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCoding(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationCoding(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiment scheduler (DESIGN.md §6) ----------------------------------

// BenchmarkScheduledSuite runs every registered experiment through the
// work-stealing scheduler with the minimal benchmark budgets — the same
// path as `cmd/experiments run`. Each iteration uses a fresh runner, so
// this measures the cold-cache suite makespan.
func BenchmarkScheduledSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := sched.New(sched.Config{Seed: 2021, Cache: r.Cache()})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Add(r.Jobs()...); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerOverhead measures the pure scheduling cost: 256
// no-op jobs dispatched across the worker pool.
func BenchmarkSchedulerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sched.New(sched.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 256; j++ {
			if err := s.Add(sched.Job{
				Name: fmt.Sprintf("noop-%03d", j),
				Run:  func(*sched.Ctx) (any, error) { return nil, nil },
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel micro-benchmarks ----------------------------------------------

// BenchmarkMappingBaseline places an N900-sized image sequentially.
func BenchmarkMappingBaseline(b *testing.B) {
	f := core.NewFramework()
	for i := 0; i < b.N; i++ {
		if _, err := f.LayoutForWeights(784*900, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappingSparkXD runs Algorithm 2 with a realistic safe set.
func BenchmarkMappingSparkXD(b *testing.B) {
	f := core.NewFramework()
	profile, err := f.ProfileAt(voltscale.V1100)
	if err != nil {
		b.Fatal(err)
	}
	safe := profile.SafeSubarrays(1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.SparkXD(f.Geom, 784*900*4/32, safe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerReplay streams one N900 inference pass.
func BenchmarkControllerReplay(b *testing.B) {
	f := core.NewFramework()
	layout, err := f.LayoutForWeights(784*900, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := memctrl.New(f.Geom, f.Circuit.Timing(voltscale.V1025))
	if err != nil {
		b.Fatal(err)
	}
	stream := layout.AccessStream()
	b.SetBytes(int64(len(stream) * f.Geom.ColumnBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctl.ReplayReads(stream)
	}
}

// BenchmarkErrorInjection corrupts an N900 FP32 weight image at BER 1e-3.
func BenchmarkErrorInjection(b *testing.B) {
	f := core.NewFramework()
	layout, err := f.LayoutForWeights(784*900, nil)
	if err != nil {
		b.Fatal(err)
	}
	profile, err := errmodel.UniformProfile(f.Geom, 1e-3, f.DeviceSeed)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float32, 784*900)
	r := rng.New(1)
	for i := range w {
		w[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = f.CorruptWeights(w, layout, profile, rng.New(uint64(i)))
	}
}

// BenchmarkSNNInference measures one sample presentation (N400).
func BenchmarkSNNInference(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = 4, 1
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.SpikeCounts(train.Images[i%train.Len()], rng.New(uint64(i)))
	}
}

// BenchmarkSweep measures the batched scenario-sweep engine over a
// 24-scenario grid (2 voltages x 3 BERs x 2 error models x 2 policies).
// The workers=1 case is the sequential per-scenario loop the engine
// replaces; the higher-worker cases show the fan-out speedup on the
// same byte-identical workload.
func BenchmarkSweep(b *testing.B) {
	sys, err := sparkxd.New(
		sparkxd.WithNeurons(50),
		sparkxd.WithSampleBudget(60, 30),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithBERSchedule(1e-5, 1e-3),
	)
	if err != nil {
		b.Fatal(err)
	}
	p := sys.Pipeline()
	if _, err := p.Train(context.Background()); err != nil {
		b.Fatal(err)
	}
	spec := sparkxd.SweepSpec{
		Voltages:    []float64{sparkxd.V1100, sparkxd.V1025},
		BERs:        []float64{1e-6, 1e-5, 1e-4},
		ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelDataDependent},
		Policies:    []sparkxd.Policy{sparkxd.PolicyBaseline, sparkxd.PolicySparkXD},
	}
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Sweep(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndPipeline runs the complete SparkXD flow through the
// public SDK on a tiny configuration (the quickstart example's -tiny
// workload).
func BenchmarkEndToEndPipeline(b *testing.B) {
	sys, err := sparkxd.New(
		sparkxd.WithNeurons(50),
		sparkxd.WithSampleBudget(60, 30),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithBERSchedule(1e-5, 1e-3),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Pipeline().Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
