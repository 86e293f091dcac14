package sparkxd

import (
	"context"
	"fmt"

	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/mapping"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// Internal shorthands used across the SDK files.
type (
	layoutT  = mapping.Layout
	datasetT = dataset.Dataset
)

// Pipeline drives the staged SparkXD flow over one System. Each stage
// consumes the artifacts of earlier stages (from the exported fields)
// and stores its own artifact back, so stages can run one by one, be
// composed by Run, or resume from persisted artifacts: assign a loaded
// TrainedModel to Improved (and a ToleranceReport to Tolerance) and call
// Map without ever training.
//
// A Pipeline is single-goroutine; create one Pipeline per concurrent run
// (Systems are safe to share). Artifacts are not: a pipeline lazily
// annotates the artifacts assigned to it (measured baseline accuracy,
// rebuilt layouts, evaluation scratch state), so never assign the same
// artifact value to two concurrently running pipelines — load or decode
// a separate copy for each instead.
type Pipeline struct {
	sys *System

	// Artifacts, populated by the stages (or by the caller, to resume).
	Baseline   *TrainedModel
	Improved   *TrainedModel
	Tolerance  *ToleranceReport
	Placement  *Placement
	Evaluation *Evaluation
	Energy     *EnergyReport
}

// System returns the system the pipeline runs against.
func (p *Pipeline) System() *System { return p.sys }

// data returns the (train, test) datasets shared through the System.
// Generation is deterministic in the configuration, so resumed pipelines
// evaluate on exactly the samples the original run used.
func (p *Pipeline) data() (*datasetT, *datasetT, error) {
	return p.sys.datasets()
}

// datasets resolves the configured (train, test) pair once and caches
// it for the lifetime of the System: real IDX files when a data
// directory is configured and holds them, the deterministic synthetic
// generator otherwise.
func (s *System) datasets() (*datasetT, *datasetT, error) {
	s.dataOnce.Do(func() {
		if s.cfg.dataDir != "" {
			train, test, found, err := dataset.LoadIDX(s.cfg.dataDir, s.cfg.flavor)
			if err != nil {
				s.dsErr = fmt.Errorf("load %s dataset from %s: %w", s.cfg.flavor, s.cfg.dataDir, err)
				return
			}
			if found {
				s.dsTrain = train.Subset(s.cfg.trainN)
				s.dsTest = test.Subset(s.cfg.testN)
				return
			}
		}
		dcfg := dataset.DefaultConfig(s.cfg.flavor)
		dcfg.Train, dcfg.Test = s.cfg.trainN, s.cfg.testN
		train, test, err := dataset.Generate(dcfg)
		if err != nil {
			s.dsErr = fmt.Errorf("generate %s dataset: %w", s.cfg.flavor, err)
			return
		}
		s.dsTrain, s.dsTest = train, test
	})
	return s.dsTrain, s.dsTest, s.dsErr
}

// model returns the most-trained model available (improved over
// baseline).
func (p *Pipeline) model() *TrainedModel {
	if p.Improved != nil {
		return p.Improved
	}
	return p.Baseline
}

// trainCfg assembles the Algorithm 1 schedule from the configuration.
func (s *System) trainCfg() core.TrainConfig {
	return core.TrainConfig{
		Rates:         s.cfg.rates,
		EpochsPerRate: s.cfg.epochsPerRate,
		AccBound:      s.cfg.accBound,
		Seed:          s.cfg.trainSeed,
	}
}

// Train runs the error-free baseline training: a fresh SNN trained for
// the configured epochs, labels assigned. The resulting TrainedModel is
// stored in p.Baseline and returned.
func (p *Pipeline) Train(ctx context.Context) (*TrainedModel, error) {
	cfg := &p.sys.cfg
	train, _, err := p.data()
	if err != nil {
		return nil, wrapStage("train", err)
	}
	p.sys.fw.Emit(ctx, Event{Stage: "train", Phase: "start", Epochs: cfg.baseEpochs})
	baseline, err := snn.New(snn.DefaultConfig(cfg.neurons), p.sys.newRNG())
	if err != nil {
		return nil, wrapStage("train", err)
	}
	root := p.sys.newRNG().Derive("run")
	for e := 0; e < cfg.baseEpochs; e++ {
		if err := baseline.TrainEpochCtx(ctx, train, root.DeriveIndex("base-epoch", e)); err != nil {
			return nil, wrapStage("train", err)
		}
		p.sys.fw.Emit(ctx, Event{Stage: "train", Phase: "progress", Epoch: e + 1, Epochs: cfg.baseEpochs})
	}
	if err := baseline.AssignLabelsCtx(ctx, train, root.Derive("base-assign")); err != nil {
		return nil, wrapStage("train", err)
	}
	p.sys.fw.Emit(ctx, Event{Stage: "train", Phase: "done"})
	p.Baseline = &TrainedModel{
		Stage:        "baseline",
		Dataset:      datasetName(cfg.flavor),
		Neurons:      cfg.neurons,
		Seed:         cfg.seed,
		TrainSamples: cfg.trainN,
		TestSamples:  cfg.testN,
		net:          baseline,
	}
	return p.Baseline, nil
}

// ImproveTolerance runs Algorithm 1 (fault-aware training) on the
// baseline model: walk the increasing BER schedule, inject errors into
// the stored weights, retrain, and keep the last model whose accuracy
// stays within the bound. The improved TrainedModel is stored in
// p.Improved and returned; p.Baseline gains its measured error-free
// accuracy.
func (p *Pipeline) ImproveTolerance(ctx context.Context) (*TrainedModel, error) {
	if p.Baseline == nil || p.Baseline.net == nil {
		return nil, missingArtifact("ImproveTolerance", "a baseline model", "run Train first or assign Pipeline.Baseline")
	}
	train, test, err := p.data()
	if err != nil {
		return nil, wrapStage("improve", err)
	}
	tr, err := p.sys.fw.ImproveErrorTolerance(ctx, p.Baseline.net, train, test, p.sys.trainCfg())
	if err != nil {
		return nil, wrapStage("improve", err)
	}
	p.Baseline.BaselineAcc = tr.BaselineAcc
	p.Improved = &TrainedModel{
		Stage:        "improved",
		Dataset:      p.Baseline.Dataset,
		Neurons:      p.Baseline.Neurons,
		Seed:         p.Baseline.Seed,
		TrainSamples: p.Baseline.TrainSamples,
		TestSamples:  p.Baseline.TestSamples,
		BaselineAcc:  tr.BaselineAcc,
		BERth:        tr.BERth,
		Curve:        tr.PerRate,
		net:          tr.Model,
	}
	return p.Improved, nil
}

// AnalyzeTolerance runs the Sec. IV-C linear BER search on the improved
// model (falling back to the baseline if no improved model is present),
// producing the maximum tolerable BER and the tolerance curve. The
// report is stored in p.Tolerance and returned.
func (p *Pipeline) AnalyzeTolerance(ctx context.Context) (*ToleranceReport, error) {
	m := p.model()
	if m == nil || m.net == nil {
		return nil, missingArtifact("AnalyzeTolerance", "a trained model", "run Train/ImproveTolerance or assign Pipeline.Improved")
	}
	_, test, err := p.data()
	if err != nil {
		return nil, wrapStage("analyze", err)
	}
	cfg := &p.sys.cfg
	baselineAcc := m.BaselineAcc
	if baselineAcc == 0 {
		// A model persisted before ImproveTolerance has no measured
		// error-free accuracy; measure it with the schedule's eval
		// stream, matching what ImproveTolerance would have used.
		evalSeed := rng.New(cfg.trainSeed).Derive("eval").Uint64()
		workers := p.sys.fw.EvalWorkers
		es, err := m.net.EncodeDataset(ctx, test, rng.New(evalSeed), workers)
		if err != nil {
			return nil, wrapStage("analyze", err)
		}
		if baselineAcc, err = m.net.Clone().EvaluateEncoded(ctx, es, workers); err != nil {
			return nil, wrapStage("analyze", err)
		}
		m.BaselineAcc = baselineAcc
	}
	berTh, curve, err := p.sys.fw.AnalyzeErrorTolerance(ctx, m.net, test,
		cfg.rates, baselineAcc, cfg.accBound, cfg.trainSeed+1)
	if err != nil {
		return nil, wrapStage("analyze", err)
	}
	p.Tolerance = &ToleranceReport{
		BaselineAcc: baselineAcc,
		AccBound:    cfg.accBound,
		BERth:       berTh,
		Curve:       curve,
	}
	return p.Tolerance, nil
}

// Map places the model's weight image into the safe subarrays of the
// approximate DRAM at the configured voltage (Algorithm 2), using the
// tolerance report's BERth. It fails with ErrNoSafeSubarrays when the
// safe capacity cannot hold the image; see MapAdaptive for the relaxing
// variant. The Placement is stored in p.Placement and returned.
func (p *Pipeline) Map(ctx context.Context) (*Placement, error) {
	return p.mapModel(ctx, false)
}

// MapAdaptive is Map with threshold relaxation: the BERth is doubled
// until the safe subarrays can hold the image, mirroring what a
// deployment does when the analysis yields a threshold stricter than the
// device can satisfy.
func (p *Pipeline) MapAdaptive(ctx context.Context) (*Placement, error) {
	return p.mapModel(ctx, true)
}

func (p *Pipeline) mapModel(ctx context.Context, adaptive bool) (*Placement, error) {
	m := p.model()
	if m == nil || m.net == nil {
		return nil, missingArtifact("Map", "a trained model", "run ImproveTolerance or assign Pipeline.Improved")
	}
	if p.Tolerance == nil {
		return nil, missingArtifact("Map", "a tolerance report", "run AnalyzeTolerance or assign Pipeline.Tolerance")
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapStage("map", err)
	}
	cfg := &p.sys.cfg
	berTh := p.Tolerance.BERth
	effTh := berTh
	var (
		layout  *layoutT
		profile *DeviceProfile
		err     error
	)
	if adaptive {
		layout, profile, effTh, err = p.sys.fw.MapWeightsAdaptive(m.net.WeightCount(), cfg.voltage, berTh)
	} else {
		layout, profile, err = p.sys.fw.MapModel(m.net, cfg.voltage, berTh)
	}
	if err != nil {
		return nil, wrapStage("map", err)
	}
	p.sys.fw.Emit(ctx, Event{Stage: "map", Phase: "done", BER: effTh,
		Message: fmt.Sprintf("%d units in %d subarrays", layout.Units(), layout.SubarraysUsed())})
	p.Placement = &Placement{
		Voltage:        cfg.voltage,
		RequestedBERth: berTh,
		EffectiveBERth: effTh,
		Policy:         PolicySparkXD,
		WeightCount:    m.net.WeightCount(),
		Profile:        profile,
		layout:         layout,
	}
	return p.Placement, nil
}

// layoutOf returns the placement's DRAM layout, rebuilding it from the
// persisted fields when the placement was deserialized. The rebuild is
// deterministic: the same profile, threshold, and weight count always
// produce the same layout.
func (s *System) layoutOf(pl *Placement) (*layoutT, error) {
	if pl.layout != nil {
		return pl.layout, nil
	}
	if pl.WeightCount <= 0 {
		return nil, fmt.Errorf("placement has no weight count")
	}
	var safe []bool
	if pl.Policy == PolicySparkXD {
		if pl.Profile == nil {
			return nil, fmt.Errorf("placement has no device profile")
		}
		safe = pl.Profile.SafeSubarrays(pl.EffectiveBERth)
	}
	layout, err := s.fw.LayoutForWeights(pl.WeightCount, safe)
	if err != nil {
		return nil, err
	}
	pl.layout = layout
	return layout, nil
}

// EvaluateUnderErrors measures the model's accuracy when its weights
// stream through the placed approximate DRAM: corrupt via the
// placement's profile and layout, load (sanitized), evaluate. The
// Evaluation is stored in p.Evaluation and returned.
func (p *Pipeline) EvaluateUnderErrors(ctx context.Context) (*Evaluation, error) {
	m := p.model()
	if m == nil || m.net == nil {
		return nil, missingArtifact("EvaluateUnderErrors", "a trained model", "run ImproveTolerance or assign Pipeline.Improved")
	}
	if p.Placement == nil {
		return nil, missingArtifact("EvaluateUnderErrors", "a placement", "run Map or assign Pipeline.Placement")
	}
	// Cancellation is also checked before the corruption pass (and inside
	// the sample loops) in core; checking here lets a cancelled sweep of
	// evaluations stop at a point boundary before touching the datasets.
	if err := ctx.Err(); err != nil {
		return nil, wrapStage("evaluate", err)
	}
	_, test, err := p.data()
	if err != nil {
		return nil, wrapStage("evaluate", err)
	}
	layout, err := p.sys.layoutOf(p.Placement)
	if err != nil {
		return nil, wrapStage("evaluate", err)
	}
	cfg := &p.sys.cfg
	acc, err := p.sys.fw.EvaluateUnderErrorsCtx(ctx, m.net, test, layout,
		p.Placement.Profile, cfg.trainSeed+2, cfg.trainSeed+3)
	if err != nil {
		return nil, wrapStage("evaluate", err)
	}
	p.sys.fw.Emit(ctx, Event{Stage: "evaluate", Phase: "done", Acc: acc, BER: p.Placement.EffectiveBERth})
	p.Evaluation = &Evaluation{
		Voltage:     p.Placement.Voltage,
		BERth:       p.Placement.EffectiveBERth,
		BaselineAcc: m.BaselineAcc,
		Accuracy:    acc,
	}
	return p.Evaluation, nil
}

// EnergyReport replays one inference weight-streaming pass over the
// baseline mapping at nominal voltage and over the placement at its
// reduced voltage, integrating DRAM energy for both (the Fig. 12
// comparison). The report is stored in p.Energy and returned.
func (p *Pipeline) EnergyReport(ctx context.Context) (*EnergyReport, error) {
	if p.Placement == nil {
		return nil, missingArtifact("EnergyReport", "a placement", "run Map or assign Pipeline.Placement")
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapStage("energy", err)
	}
	layout, err := p.sys.layoutOf(p.Placement)
	if err != nil {
		return nil, wrapStage("energy", err)
	}
	baseLayout, err := p.sys.fw.LayoutForWeights(p.Placement.WeightCount, nil)
	if err != nil {
		return nil, wrapStage("energy", err)
	}
	eBase, err := p.sys.fw.EvaluateEnergy(baseLayout, voltscale.VNominal)
	if err != nil {
		return nil, wrapStage("energy", err)
	}
	eSpark, err := p.sys.fw.EvaluateEnergy(layout, p.Placement.Voltage)
	if err != nil {
		return nil, wrapStage("energy", err)
	}
	speedup := 1.0
	if eSpark.Stats.TotalNs > 0 {
		// Matched (nominal) timing isolates the mapping effect, as in
		// Fig. 12(b).
		eSparkNominal, err := p.sys.fw.EvaluateEnergy(layout, voltscale.VNominal)
		if err != nil {
			return nil, wrapStage("energy", err)
		}
		speedup = eBase.Stats.TotalNs / eSparkNominal.Stats.TotalNs
	}
	savings := 0.0
	if eBase.TotalMJ() > 0 {
		savings = 1 - eSpark.TotalMJ()/eBase.TotalMJ()
	}
	p.sys.fw.Emit(ctx, Event{Stage: "energy", Phase: "done",
		Message: fmt.Sprintf("%.4f mJ -> %.4f mJ", eBase.TotalMJ(), eSpark.TotalMJ())})
	p.Energy = &EnergyReport{
		Baseline: energyPoint(eBase),
		SparkXD:  energyPoint(eSpark),
		Savings:  savings,
		Speedup:  speedup,
	}
	return p.Energy, nil
}

func energyPoint(e core.EnergyResult) EnergyPoint {
	return EnergyPoint{
		Voltage:        e.Voltage,
		Policy:         Policy(e.Policy),
		TotalMJ:        e.TotalMJ(),
		HitRate:        e.Stats.HitRate(),
		MakespanNs:     e.Stats.TotalNs,
		BusUtilization: e.Stats.BusUtilization(),
	}
}

// Run executes the whole SparkXD pipeline in order — Train,
// ImproveTolerance, AnalyzeTolerance, Map, EvaluateUnderErrors,
// EnergyReport — skipping stages whose artifacts are already present
// (which is how a pipeline resumes from persisted artifacts), and
// returns every artifact.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	if p.Baseline == nil && p.Improved == nil {
		if _, err := p.Train(ctx); err != nil {
			return nil, err
		}
	}
	if p.Improved == nil {
		if _, err := p.ImproveTolerance(ctx); err != nil {
			return nil, err
		}
	}
	if p.Tolerance == nil {
		if _, err := p.AnalyzeTolerance(ctx); err != nil {
			return nil, err
		}
	}
	if p.Placement == nil {
		if _, err := p.Map(ctx); err != nil {
			return nil, err
		}
	}
	if p.Evaluation == nil {
		if _, err := p.EvaluateUnderErrors(ctx); err != nil {
			return nil, err
		}
	}
	if p.Energy == nil {
		if _, err := p.EnergyReport(ctx); err != nil {
			return nil, err
		}
	}
	return &Result{
		Baseline:   p.Baseline,
		Improved:   p.Improved,
		Tolerance:  p.Tolerance,
		Placement:  p.Placement,
		Evaluation: p.Evaluation,
		Energy:     p.Energy,
	}, nil
}
