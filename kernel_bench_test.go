// Kernel benchmarks backing the committed BENCH_kernel.json baseline
// (DESIGN.md §10). They measure the per-scenario hot path every layer
// above (sweep engine, job server, worker fleet) bottoms out in, and the
// two training stages that dominate a cold pipeline:
//
//	BenchmarkLIFStep        one Pool.Step over an N3600 population
//	BenchmarkEvaluate       one corrupted-weight-image evaluation, the
//	                        steady-state per-scenario cost inside a sweep
//	BenchmarkInject         one Model-0 error-injection pass (paper default)
//	BenchmarkInjectWordline one Model-2 (wordline-clustered) injection pass
//	BenchmarkSweepScenario  one full scenario through internal/engine
//	                        (inject + evaluate), caches warm
//	BenchmarkTrainEpoch     one STDP training epoch, the pipeline
//	                        workload's shape
//	BenchmarkImproveTolerance
//	                        one Algorithm 1 run (fault-aware training),
//	                        the pipeline workload's shape
//
// `scripts/bench-record.sh` runs them with fixed iteration counts and
// -count=3, normalizes the minimum of the runs into BENCH_kernel.json,
// and CI gates regressions against the committed baseline. Keep names
// and workload shapes stable across PRs: the baseline is only
// comparable to itself.
package sparkxd_test

import (
	"context"
	"testing"

	"sparkxd"
	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/engine"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/neuron"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
)

// benchTestSet generates the deterministic evaluation set shared by the
// evaluate-shaped kernel benchmarks.
func benchTestSet(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = n, 1
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return train
}

// BenchmarkLIFStep measures one timestep of an N3600 LIF population (the
// paper's largest network) with a realistic sparse drive: a fraction of
// the neurons receive suprathreshold input so the spike/reset/refractory
// paths are exercised, not just the leak.
func BenchmarkLIFStep(b *testing.B) {
	const n = 3600
	pool, err := neuron.NewPool(neuron.DefaultLIF(n))
	if err != nil {
		b.Fatal(err)
	}
	// A few distinct drive vectors so the branch pattern is not constant.
	r := rng.New(42)
	drives := make([][]float32, 4)
	for d := range drives {
		drives[d] = make([]float32, n)
		for j := range drives[d] {
			v := r.Float32()
			if v > 0.97 { // ~3% of neurons near threshold per step
				drives[d][j] = 12
			} else {
				drives[d][j] = v
			}
		}
	}
	spikes := make([]int32, 0, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spikes = pool.Step(drives[i&3], spikes)
	}
	_ = spikes
}

// BenchmarkEvaluate measures the steady-state per-scenario evaluation
// cost of the sweep engine: loading one corrupted weight image into a
// reusable snn.Evaluator and classifying the full test set. The spike
// trains are paired (same eval stream every call), matching how every
// scenario of a sweep evaluates.
func BenchmarkEvaluate(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	test := benchTestSet(b, 64)
	ev := snn.NewEvaluator(net)
	w := net.WeightsFlat()
	// Perturb a few weights so the image is not the pristine one.
	pr := rng.New(9)
	for k := 0; k < 64; k++ {
		w[pr.Intn(len(w))] *= -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateWeights(context.Background(), test, w, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInjector builds a prepared injector over an N900 FP32 weight
// image placed with the baseline policy, returning the injector, the
// layout, and a serialized image buffer.
func benchInjector(b *testing.B, kind errmodel.Kind, ber float64) (*errmodel.Injector, errmodel.Placement, []byte) {
	b.Helper()
	f := core.NewFramework()
	layout, err := f.LayoutForWeights(784*900, nil)
	if err != nil {
		b.Fatal(err)
	}
	profile, err := errmodel.UniformProfile(f.Geom, ber, f.DeviceSeed)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float32, 784*900)
	r := rng.New(1)
	for i := range w {
		w[i] = r.Float32()
	}
	img := make([]byte, quant.FP32.ImageSize(len(w), layout.UnitBytes()))
	if err := quant.Serialize(w, quant.FP32, img); err != nil {
		b.Fatal(err)
	}
	inj := errmodel.NewInjector(kind, profile)
	inj.Prepare(layout)
	return inj, layout, img
}

// BenchmarkInject measures one Model-0 (uniform, the paper default)
// injection pass over a prepared N900 FP32 image at BER 1e-3.
func BenchmarkInject(b *testing.B) {
	inj, layout, img := benchInjector(b, errmodel.Model0, 1e-3)
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inj.Inject(img, layout, rng.New(uint64(i)))
	}
}

// BenchmarkInjectWordline measures one Model-2 (wordline-clustered)
// injection pass — the model whose flips land in dense per-unit runs,
// the word-at-a-time mask path.
func BenchmarkInjectWordline(b *testing.B) {
	inj, layout, img := benchInjector(b, errmodel.Model2, 1e-3)
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inj.Inject(img, layout, rng.New(uint64(i)))
	}
}

// BenchmarkSweepScenario measures one full scenario through the sweep
// engine — serialize, inject, deserialize, evaluate — with the engine's
// profile/layout/injector caches warm: the marginal cost of one more
// grid point, i.e. the kernel the fleet fan-out multiplies.
func BenchmarkSweepScenario(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	test := benchTestSet(b, 64)
	eng := engine.New(core.NewFramework())
	spec := engine.Spec{
		BERs:     []float64{1e-4},
		Kinds:    []errmodel.Kind{errmodel.Model0},
		Policies: []string{engine.PolicyBaseline},
		Uniform:  true,
		Seed:     11,
		EvalSeed: 7,
		Workers:  4,
	}
	// Warm the caches so the measured iterations see the steady state.
	if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepScenarioMultiAxis measures one all-non-default scenario
// through the sweep engine — FP16 bitwidth, 50% magnitude pruning, TTFS
// encoding — with caches warm. Against BenchmarkSweepScenario it prices
// the marginal cost the extended axes add per grid point (re-encode into
// the per-encoder set is cached; pruning re-copies the weight image).
func BenchmarkSweepScenarioMultiAxis(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	test := benchTestSet(b, 64)
	eng := engine.New(core.NewFramework())
	spec := engine.Spec{
		BERs:        []float64{1e-4},
		Kinds:       []errmodel.Kind{errmodel.Model0},
		Policies:    []string{engine.PolicyBaseline},
		Bitwidths:   []int{16},
		PruneLevels: []float64{0.5},
		Encoders:    []engine.EncoderAxis{{Name: "ttfs", Coder: coding.TTFS{}}},
		Uniform:     true,
		Seed:        11,
		EvalSeed:    7,
		Workers:     4,
	}
	// Warm the caches so the measured iterations see the steady state.
	if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one STDP training epoch at the pipeline
// workload's shape (N100, 100 samples): the sequential presentation
// chain with its spike trains encoded ahead. The network keeps learning
// across iterations, as it does across a training run's epochs.
func BenchmarkTrainEpoch(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(100), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	train := benchTestSet(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.TrainEpochCtx(context.Background(), train, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImproveTolerance measures one ImproveTolerance stage
// (Algorithm 1) at the pipeline workload's shape: N100, 100 training and
// 64 test samples, the default 7-rate schedule, evaluation workers =
// GOMAXPROCS. The baseline trains once in set-up; every iteration
// improves that same baseline.
func BenchmarkImproveTolerance(b *testing.B) {
	sys, err := sparkxd.New(
		sparkxd.WithNeurons(100),
		sparkxd.WithSampleBudget(100, 64),
		sparkxd.WithBaseEpochs(1),
	)
	if err != nil {
		b.Fatal(err)
	}
	p := sys.Pipeline()
	if _, err := p.Train(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ImproveTolerance(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
