// Kernel benchmarks backing the committed BENCH_kernel.json baseline
// (DESIGN.md §10). They measure the per-scenario hot path every layer
// above (sweep engine, job server, worker fleet) bottoms out in, the
// spike encoder, and the two training stages that dominate a cold
// pipeline:
//
//	BenchmarkRateEncode     the Poisson rate coder: 100 MNIST-like
//	                        samples into 60-step trains, the pipeline
//	                        workload's training set
//	BenchmarkDriveAccumulation
//	                        Phase A: one sample's 60 per-step drive sums
//	                        at the sweep shape (N200, rate-coded trains)
//	BenchmarkLIFStep        Phase B: one Pool.Step over an N3600 population
//	BenchmarkEvaluate       one corrupted-weight-image evaluation, the
//	                        steady-state per-scenario cost inside a sweep
//	BenchmarkInject         one Model-0 error-injection pass (paper default)
//	BenchmarkInjectWordline one Model-2 (wordline-clustered) injection pass
//	BenchmarkSweepScenario  one full scenario through internal/engine
//	                        (digests + inject + patched evaluate), the
//	                        engine's caches and memo warm
//	BenchmarkSweepScenarioMultiAxis
//	                        the same with FP16, 50% pruning and TTFS
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

// benchTrain keeps BenchmarkRateEncode's result live.
var benchTrain coding.Train

// BenchmarkRateEncode measures the Poisson rate coder at the pipeline
// workload's shape: one op encodes 100 MNIST-like samples into 60-step
// trains, each from its own derived stream, as a training epoch's
// encode-ahead goroutines do. Against BenchmarkTrainEpoch it separates
// the encoder, which runs beside the STDP chain, from the chain.
func BenchmarkRateEncode(b *testing.B) {
	enc := coding.NewRate()
	set := benchTestSet(b, 100)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s, img := range set.Images {
			benchTrain = enc.Encode(img, 60, r.DeriveIndex("enc", s))
		}
	}
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

// BenchmarkDriveAccumulation measures Phase A of one inference
// presentation at the sweep workload's shape: the 60 per-step SumRows
// calls that accumulate an N200 network's synaptic drive from a sample's
// rate-coded spike train. Against BenchmarkLIFStep (Phase B) it
// attributes a change to the drive kernel. Iterations cycle over eight
// samples' trains so the cost averages over their input densities.
func BenchmarkDriveAccumulation(b *testing.B) {
	cfg := snn.DefaultConfig(200)
	net, err := snn.New(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	set := benchTestSet(b, 8)
	trains := make([]coding.Train, set.Len())
	for s := range trains {
		trains[s] = cfg.Encoder.Encode(set.Images[s], cfg.Steps, rng.New(uint64(s)))
	}
	drives := make([]float32, cfg.Steps*cfg.Neurons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t, active := range trains[i%len(trains)] {
			net.W.SumRows(active, drives[t*cfg.Neurons:(t+1)*cfg.Neurons])
		}
	}
}

// BenchmarkEvaluate measures the steady-state per-scenario evaluation
// cost of the sweep engine: loading one corrupted weight image into a
// reusable snn.Evaluator and classifying the full test set. The spike
// trains are encoded once before the timer, as a sweep encodes its test
// set once for every scenario (paired evaluation).
func BenchmarkEvaluate(b *testing.B) {
	net, err := snn.New(snn.DefaultConfig(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	test := benchTestSet(b, 64)
	ev := snn.NewEvaluatorWorkers(net, 1)
	w := net.WeightsFlat()
	// Perturb a few weights so the image is not the pristine one.
	pr := rng.New(9)
	for k := 0; k < 64; k++ {
		w[pr.Intn(len(w))] *= -1
	}
	es, err := net.EncodeDataset(context.Background(), test, rng.New(7), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateWeightsEncoded(context.Background(), es, w); err != nil {
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
// engine — a one-scenario Run: digest the model and the test set, take
// the clean set from the memo, inject into its image, decode and load
// only the flipped weights, evaluate — with the engine's caches and memo
// warm (every iteration sweeps the same model, so the clean set is built
// once, before the timer): the marginal cost of one more grid point of a
// model the engine has seen, i.e. the kernel the fleet fan-out
// multiplies.
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
	// Warm the caches so the measured iterations see the steady state:
	// the memo keeps a model's work from its second Run on.
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
			b.Fatal(err)
		}
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
// encoding — with caches and memo warm. Against BenchmarkSweepScenario
// it prices the marginal cost the extended axes add per grid point: the
// TTFS-encoded set, the pruned master and the FP16 clean set all come
// from the memo, built once before the timer.
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
	// Warm the caches so the measured iterations see the steady state:
	// the memo keeps a model's work from its second Run on.
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), net, test, spec); err != nil {
			b.Fatal(err)
		}
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
