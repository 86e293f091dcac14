// Package core implements the SparkXD framework itself — the paper's
// contribution (Sec. IV, Fig. 7). It wires the substrates together:
//
//	reduced supply voltage ─┐
//	DRAM error modeling ────┼─> Improving the SNN Error Tolerance (IV-B)
//	SNN model ──────────────┘        │ improved model
//	                                 v
//	                     Analyzing the Error Tolerance (IV-C)
//	                                 │ maximum tolerable BER (BERth)
//	                                 v
//	                     DRAM Mapping (IV-D, Algorithm 2)
//	                                 │
//	                                 v
//	          improved SNN + safe-subarray, row-hit-maximizing mapping
//
// The three public phases are ImproveErrorTolerance (Algorithm 1),
// AnalyzeErrorTolerance (the linear BER search), and MapModel
// (Algorithm 2 via package mapping), with Evaluate* helpers that measure
// accuracy, DRAM energy, and throughput for the experiment harness.
package core

import (
	"context"
	"errors"
	"fmt"

	"sparkxd/internal/dataset"
	"sparkxd/internal/dram"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/mapping"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/power"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// Framework bundles the device models SparkXD operates against.
type Framework struct {
	Geom    dram.Geometry
	Circuit voltscale.Model
	Power   power.Model
	// ErrKind selects the EDEN error model (the paper uses Model 0).
	ErrKind errmodel.Kind
	// Spread is the per-subarray BER lognormal sigma for voltage-derived
	// profiles (0 = uniform device).
	Spread float64
	// DeviceSeed pins weak-cell locations of the simulated device.
	DeviceSeed uint64
	// Format is the stored weight representation (FP32 in the paper).
	Format quant.Format
	// EvalWorkers parallelizes accuracy evaluations within one call
	// (spike encoding and synaptic-drive accumulation fan out on
	// sched.ParallelFor; the theta-coupled neuron updates stay
	// sequential). ImproveErrorTolerance runs one such evaluation beside
	// the training of the next rate, whose loops encode ahead on their
	// own GOMAXPROCS-1 ParallelFor slots. Accuracy is bit-identical for
	// any value; <= 0 means GOMAXPROCS.
	EvalWorkers int
	// Observer, when non-nil, receives structured progress events from
	// the training and analysis loops whose context names no observer of
	// its own (WithObserver).
	Observer Observer

	// evalStarted, when non-nil, is called first by the goroutine that
	// evaluates ImproveErrorTolerance's rate i, so a test can hold that
	// evaluation in flight. It is nil outside tests.
	evalStarted func(i int)
}

// NewFramework returns the paper's experimental setup: LPDDR3-1600 4Gb,
// calibrated circuit and power models, EDEN error model 0, FP32 weights.
func NewFramework() *Framework {
	return &Framework{
		Geom:       dram.LPDDR3_1600_4Gb(),
		Circuit:    voltscale.Default(),
		Power:      power.Default(),
		ErrKind:    errmodel.Model0,
		Spread:     errmodel.DefaultSpread,
		DeviceSeed: 0xD0C5EED,
		Format:     quant.FP32,
	}
}

// Validate reports whether the framework is coherent.
func (f *Framework) Validate() error {
	if err := f.Geom.Validate(); err != nil {
		return err
	}
	if err := f.Circuit.Validate(); err != nil {
		return err
	}
	if err := f.Power.Validate(); err != nil {
		return err
	}
	if f.Spread < 0 {
		return errors.New("core: spread must be non-negative")
	}
	return nil
}

// LayoutForWeights places an image of weightCount weights with the given
// policy: nil safe flags select the baseline sequential mapping, a
// safe-flag set selects Algorithm 2.
func (f *Framework) LayoutForWeights(weightCount int, safe []bool) (*mapping.Layout, error) {
	return f.LayoutForWeightsIn(f.Format, weightCount, safe)
}

// LayoutForWeightsIn is LayoutForWeights with an explicit stored-weight
// format — the sweep engine's bitwidth axis overrides the framework
// format per scenario, which changes the image size and therefore the
// placement.
func (f *Framework) LayoutForWeightsIn(format quant.Format, weightCount int, safe []bool) (*mapping.Layout, error) {
	units := mapping.UnitsFor(format.ImageSize(weightCount, f.Geom.ColumnBytes), f.Geom.ColumnBytes)
	if safe == nil {
		return mapping.Baseline(f.Geom, units)
	}
	return mapping.SparkXD(f.Geom, units, safe)
}

// LayoutFor places a network's weight image with the given policy
// ("baseline" or a SparkXD safe-flag set).
func (f *Framework) LayoutFor(net *snn.Network, safe []bool) (*mapping.Layout, error) {
	return f.LayoutForWeights(net.WeightCount(), safe)
}

// CorruptWeights serializes weights through the layout, injects errors
// from the profile, and returns the corrupted weights plus the number of
// flipped bits. The input slice is not modified.
func (f *Framework) CorruptWeights(w []float32, layout *mapping.Layout,
	profile *errmodel.Profile, r *rng.Stream) ([]float32, int64) {
	img := make([]byte, f.Format.ImageSize(len(w), layout.UnitBytes()))
	if err := quant.Serialize(w, f.Format, img); err != nil {
		panic("core: serialize: " + err.Error()) // sizes are internally consistent
	}
	inj := errmodel.NewInjector(f.ErrKind, profile)
	inj.Prepare(layout)
	flips := inj.Inject(img, layout, r)
	out := make([]float32, len(w))
	if err := quant.Deserialize(img, f.Format, out); err != nil {
		panic("core: deserialize: " + err.Error())
	}
	return out, flips
}

// EvaluateUnderErrorsCtx measures a network's accuracy when its weights
// pass through approximate DRAM: weights are corrupted via (layout,
// profile), loaded into a clone (with on-load sanitization), and
// evaluated. The eval stream is derived deterministically from evalSeed
// so that different corruption conditions are compared on identical
// spike trains (paired evaluation, which removes encoder noise from the
// comparison). The context is checked between test samples; a cancelled
// evaluation returns ctx.Err().
func (f *Framework) EvaluateUnderErrorsCtx(ctx context.Context, net *snn.Network,
	test *dataset.Dataset, layout *mapping.Layout, profile *errmodel.Profile,
	injectSeed, evalSeed uint64) (float64, error) {
	// Check before the encoding and corruption passes, not only inside
	// the sample loop: a caller sweeping many evaluation points must be
	// able to stop at a point boundary without paying for another full
	// injection pass.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	es, err := net.EncodeDataset(ctx, test, rng.New(evalSeed), f.EvalWorkers)
	if err != nil {
		return 0, err
	}
	return f.evaluateCorrupted(ctx, net, es, layout, profile, injectSeed)
}

// evaluateCorrupted is the corrupt/load/evaluate step of
// EvaluateUnderErrorsCtx over a pre-encoded test set: net's weights are
// corrupted via (layout, profile) from injectSeed, loaded (with on-load
// sanitization) into a clone, and the clone is evaluated. net is only
// read, so it may be evaluated while other goroutines read it too.
func (f *Framework) evaluateCorrupted(ctx context.Context, net *snn.Network, es *snn.EncodedSet,
	layout *mapping.Layout, profile *errmodel.Profile, injectSeed uint64) (float64, error) {
	w, _ := f.CorruptWeights(net.W.Data, layout, profile, rng.New(injectSeed))
	clone := net.Clone()
	if err := clone.SetWeightsFlat(w); err != nil {
		panic("core: " + err.Error())
	}
	return clone.EvaluateEncoded(ctx, es, f.EvalWorkers)
}

// TrainConfig parameterizes Algorithm 1 (fault-aware training).
type TrainConfig struct {
	// Rates is the increasing BER schedule (e.g. 1e-9, 1e-8, ..., 1e-3:
	// "the next error rate is 10x of the previous one").
	Rates []float64
	// EpochsPerRate is Nepoch in Algorithm 1.
	EpochsPerRate int
	// AccBound is the tolerated accuracy drop versus the error-free
	// baseline (the paper uses 1% = 0.01).
	AccBound float64
	// Seed drives error injection and spike encoding during training.
	Seed uint64
}

// DefaultTrainConfig mirrors the paper's schedule.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Rates:         []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3},
		EpochsPerRate: 1,
		AccBound:      0.01,
		Seed:          7,
	}
}

// TrainResult is the outcome of Algorithm 1.
type TrainResult struct {
	// Model is the improved (fault-aware trained) network.
	Model *snn.Network
	// BaselineAcc is the error-free accuracy of the input model (acc0).
	BaselineAcc float64
	// BERth is the highest BER whose accuracy met the bound during
	// training (refined further by AnalyzeErrorTolerance).
	BERth float64
	// PerRate records accuracy after training at each schedule rate.
	PerRate []RatePoint
}

// RatePoint is one (BER, accuracy) observation.
type RatePoint struct {
	BER float64
	Acc float64
}

// ImproveErrorTolerance implements Algorithm 1: starting from a trained
// baseline model, it walks the increasing BER schedule; at each rate it
// injects bit errors into the stored weights (baseline mapping, fixed
// weak cells), retrains for EpochsPerRate epochs, and evaluates under the
// same error rate. The last rate whose accuracy stays within AccBound of
// the baseline defines the provisional BERth. The input network is not
// modified: the error-free accuracy acc0 is measured on a clone, which
// is then trained from the adaptive thresholds that pass left behind,
// and which is also the returned model if no rate passes. The improved
// model is returned. The context is checked inside the per-sample
// training and evaluation loops, so cancellation takes effect promptly.
//
// Training is one sequential chain (each rate continues from the
// previous rate's weights and thresholds), but a rate's evaluation only
// reads a snapshot of the model it trained: rate i's corrupt-and-evaluate
// runs on its own goroutine while rate i+1 corrupts, trains and assigns
// labels. At most one evaluation is outstanding, results settle in rate
// order, and acc0 and every rate share one encoding of the test set
// (they share the eval stream), so the result is bit-identical to
// running the steps one after another. Every goroutine is joined before
// ImproveErrorTolerance returns, on error paths too.
func (f *Framework) ImproveErrorTolerance(ctx context.Context, baseline *snn.Network,
	train, test *dataset.Dataset, cfg TrainConfig) (*TrainResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, errors.New("core: empty BER schedule")
	}
	for i := 1; i < len(cfg.Rates); i++ {
		if cfg.Rates[i] <= cfg.Rates[i-1] {
			return nil, errors.New("core: BER schedule must be strictly increasing")
		}
	}
	if cfg.EpochsPerRate <= 0 {
		return nil, errors.New("core: EpochsPerRate must be positive")
	}

	layout, err := f.LayoutFor(baseline, nil) // training assumes baseline mapping
	if err != nil {
		return nil, fmt.Errorf("core: improve-tolerance layout: %w", err)
	}
	root := rng.New(cfg.Seed)
	es, err := baseline.EncodeDataset(ctx, test, rng.New(root.Derive("eval").Uint64()), f.EvalWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: baseline evaluation: %w", err)
	}
	modelTemp := baseline.Clone()
	acc0, err := modelTemp.EvaluateEncoded(ctx, es, f.EvalWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: baseline evaluation: %w", err)
	}
	f.Emit(ctx, Event{Stage: "improve", Phase: "start", Epochs: len(cfg.Rates) * cfg.EpochsPerRate, Acc: acc0})

	res := &TrainResult{BaselineAcc: acc0, BERth: 0}
	best := modelTemp.Clone() // nothing passes: the input, as its acc0 pass left it

	// pending is the outstanding evaluation of the last trained rate: the
	// snapshot it evaluates (the candidate best model) and its result.
	type rateEval struct {
		rate  float64
		model *snn.Network
		acc   float64
		err   error
		done  chan struct{}
	}
	var pending *rateEval
	evalCtx, cancelEval := context.WithCancel(ctx)
	defer func() {
		cancelEval() // an error return discards the outstanding result
		if pending != nil {
			<-pending.done
		}
	}()
	settle := func() error {
		if pending == nil {
			return nil
		}
		ev := pending
		<-ev.done
		pending = nil
		if ev.err != nil {
			return fmt.Errorf("core: evaluation at BER %.0e: %w", ev.rate, ev.err)
		}
		res.PerRate = append(res.PerRate, RatePoint{BER: ev.rate, Acc: ev.acc})
		if ev.acc >= acc0-cfg.AccBound {
			best = ev.model
			res.BERth = ev.rate
		}
		return nil
	}

	for i, rate := range cfg.Rates {
		if err := ctx.Err(); err != nil {
			return nil, err // stop at a rate boundary, not mid-epoch only
		}
		profile, err := errmodel.UniformProfile(f.Geom, rate, f.DeviceSeed)
		if err != nil {
			return nil, fmt.Errorf("core: profile at BER %.0e: %w", rate, err)
		}
		for e := 0; e < cfg.EpochsPerRate; e++ {
			// Inject errors into the stored weights, load (sanitized),
			// then train: the network adapts around the corrupted cells.
			w, _ := f.CorruptWeights(modelTemp.W.Data, layout, profile,
				root.DeriveIndex("inject", i*cfg.EpochsPerRate+e))
			if err := modelTemp.SetWeightsFlat(w); err != nil {
				return nil, fmt.Errorf("core: load corrupted weights: %w", err)
			}
			if err := modelTemp.TrainEpochCtx(ctx, train, root.DeriveIndex("train", i*cfg.EpochsPerRate+e)); err != nil {
				return nil, fmt.Errorf("core: fault-aware epoch at BER %.0e: %w", rate, err)
			}
			f.Emit(ctx, Event{Stage: "improve", Phase: "progress",
				Epoch: i*cfg.EpochsPerRate + e + 1, Epochs: len(cfg.Rates) * cfg.EpochsPerRate, BER: rate})
		}
		if err := modelTemp.AssignLabelsCtx(ctx, train, root.DeriveIndex("assign", i)); err != nil {
			return nil, fmt.Errorf("core: label assignment at BER %.0e: %w", rate, err)
		}
		if err := settle(); err != nil {
			return nil, err
		}
		ev := &rateEval{rate: rate, model: modelTemp.Clone(), done: make(chan struct{})}
		injectSeed := root.DeriveIndex("evalinject", i).Uint64()
		go func() {
			defer close(ev.done)
			if f.evalStarted != nil {
				f.evalStarted(i)
			}
			ev.acc, ev.err = f.evaluateCorrupted(evalCtx, ev.model, es, layout, profile, injectSeed)
		}()
		pending = ev
	}
	if err := settle(); err != nil {
		return nil, err
	}
	res.Model = best
	f.Emit(ctx, Event{Stage: "improve", Phase: "done", BER: res.BERth, Acc: acc0})
	return res, nil
}

// AnalyzeErrorTolerance implements Sec. IV-C: a linear search over the
// given increasing BER values, evaluating the (already improved) model
// under error injection at each rate, returning the maximum tolerable
// BER — the largest rate whose accuracy stays within accBound of
// baselineAcc — together with the full tolerance curve. The paper relies
// on the curve being generally decreasing (Fig. 8), so the search keeps
// the last passing rate. The context is checked inside the per-sample
// evaluation loops.
func (f *Framework) AnalyzeErrorTolerance(ctx context.Context, model *snn.Network,
	test *dataset.Dataset, rates []float64, baselineAcc, accBound float64,
	seed uint64) (float64, []RatePoint, error) {
	if len(rates) == 0 {
		return 0, nil, errors.New("core: no BER values to analyze")
	}
	layout, err := f.LayoutFor(model, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("core: analyze-tolerance layout: %w", err)
	}
	f.Emit(ctx, Event{Stage: "analyze", Phase: "start", Epochs: len(rates)})
	root := rng.New(seed)
	evalSeed := root.Derive("eval").Uint64()
	berTh := 0.0
	var curve []RatePoint
	// The model and the eval stream are fixed across the whole search —
	// only the injected corruption changes per point — so the test set
	// encodes once and each point is a corruption plus the
	// neuron-dynamics pass.
	es, err := model.EncodeDataset(ctx, test, rng.New(evalSeed), f.EvalWorkers)
	if err != nil {
		return 0, nil, err
	}
	for i, rate := range rates {
		if err := ctx.Err(); err != nil {
			return 0, nil, err // stop at a point boundary
		}
		profile, err := errmodel.UniformProfile(f.Geom, rate, f.DeviceSeed)
		if err != nil {
			return 0, nil, fmt.Errorf("core: profile at BER %.0e: %w", rate, err)
		}
		acc, err := f.evaluateCorrupted(ctx, model, es, layout, profile, root.DeriveIndex("inject", i).Uint64())
		if err != nil {
			return 0, nil, fmt.Errorf("core: tolerance evaluation at BER %.0e: %w", rate, err)
		}
		curve = append(curve, RatePoint{BER: rate, Acc: acc})
		f.Emit(ctx, Event{Stage: "analyze", Phase: "progress", Epoch: i + 1, Epochs: len(rates), BER: rate, Acc: acc})
		if acc >= baselineAcc-accBound {
			berTh = rate
		}
	}
	f.Emit(ctx, Event{Stage: "analyze", Phase: "done", BER: berTh})
	return berTh, curve, nil
}

// ProfileAt characterizes the simulated device at a supply voltage
// (per-subarray BERs with the framework's spread and device seed).
func (f *Framework) ProfileAt(v float64) (*errmodel.Profile, error) {
	return errmodel.NewProfile(f.Geom, f.Circuit, v, f.Spread, f.DeviceSeed)
}

// MapModel performs the Sec. IV-D step: at supply voltage v, mark the
// subarrays whose error rate exceeds berTh as unsafe and place the
// model's weights with Algorithm 2. It returns the layout and profile.
func (f *Framework) MapModel(net *snn.Network, v, berTh float64) (*mapping.Layout, *errmodel.Profile, error) {
	profile, err := f.ProfileAt(v)
	if err != nil {
		return nil, nil, fmt.Errorf("core: device profile at %.3f V: %w", v, err)
	}
	safe := profile.SafeSubarrays(berTh)
	layout, err := f.LayoutFor(net, safe)
	if err != nil {
		return nil, nil, fmt.Errorf("core: map at %.3f V, BERth %.0e: %w", v, berTh, err)
	}
	return layout, profile, nil
}

// MapWeightsAdaptive maps a weight image of the given size at supply
// voltage v, relaxing the BER threshold (doubling it) until the safe
// subarrays can hold the image. It returns the layout, the profile, and
// the effective threshold actually used. This mirrors what a deployment
// would do when the tolerance analysis yields a threshold stricter than
// the device can satisfy for the required capacity.
func (f *Framework) MapWeightsAdaptive(weightCount int, v, berTh float64) (*mapping.Layout, *errmodel.Profile, float64, error) {
	profile, err := f.ProfileAt(v)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: device profile at %.3f V: %w", v, err)
	}
	layout, th, err := f.MapAdaptiveWithProfileIn(f.Format, profile, weightCount, berTh)
	if err != nil {
		return nil, nil, 0, err
	}
	return layout, profile, th, nil
}

// MapAdaptiveWithProfileIn is the relaxation kernel of
// MapWeightsAdaptive against an already-derived profile (the sweep
// engine shares one profile across many thresholds) and an explicit
// stored-weight format (see LayoutForWeightsIn): the threshold doubles
// until the safe subarrays can hold the image, for at most 64 attempts.
func (f *Framework) MapAdaptiveWithProfileIn(format quant.Format, profile *errmodel.Profile, weightCount int, berTh float64) (*mapping.Layout, float64, error) {
	th := berTh
	if th <= 0 {
		th = 1e-12
	}
	for attempt := 0; attempt < 64; attempt++ {
		layout, err := f.LayoutForWeightsIn(format, weightCount, profile.SafeSubarrays(th))
		if err == nil {
			return layout, th, nil
		}
		if !errors.Is(err, mapping.ErrInsufficientSafeCapacity) {
			return nil, 0, err
		}
		th *= 2
	}
	return nil, 0, fmt.Errorf("core: device cannot hold %d weights even with a relaxed threshold", weightCount)
}

// EnergyResult is the outcome of one energy/performance evaluation.
type EnergyResult struct {
	Voltage   float64
	Policy    string
	Stats     memctrl.Stats
	Breakdown power.Breakdown
}

// TotalMJ returns the DRAM energy of the replayed inference in mJ.
func (e EnergyResult) TotalMJ() float64 { return e.Breakdown.TotalMJ() }

// String summarizes the result.
func (e EnergyResult) String() string {
	return fmt.Sprintf("%s @ %.3fV: %.4f mJ, %s", e.Policy, e.Voltage, e.TotalMJ(), e.Stats)
}

// EvaluateEnergy replays one inference weight-streaming pass over the
// layout at supply voltage v and integrates DRAM energy: the controller
// classifies accesses and counts commands with the voltage-stretched
// timing, and the power model integrates the tally at the reduced
// voltage — the Fig. 10 tool-flow (traces + statistics -> DRAMPower).
func (f *Framework) EvaluateEnergy(layout *mapping.Layout, v float64) (EnergyResult, error) {
	ctl, err := memctrl.New(f.Geom, f.Circuit.Timing(v))
	if err != nil {
		return EnergyResult{}, fmt.Errorf("core: controller at %.3f V: %w", v, err)
	}
	stats := ctl.ReplayReads(layout.AccessStream())
	return EnergyResult{
		Voltage:   v,
		Policy:    layout.Policy,
		Stats:     stats,
		Breakdown: f.Power.Energy(stats.Tally, v),
	}, nil
}

// The end-to-end pipeline composition that used to live here as
// Framework.Run (train -> improve -> analyze -> map -> evaluate ->
// energy) moved to the public SDK at the repository root: package
// sparkxd's staged Pipeline API composes these kernel phases with
// cancellation, progress events, and persistable artifacts.
