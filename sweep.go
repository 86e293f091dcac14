package sparkxd

import (
	"context"
	"fmt"
	"slices"

	"sparkxd/internal/engine"
	"sparkxd/internal/errmodel"
)

// SweepSpec declares a scenario grid for Pipeline.Sweep as the
// cross-product of its axes. Zero-valued axes fall back to the system's
// configuration: the configured voltage, the configured BER schedule,
// the configured error model, and the SparkXD mapping policy.
type SweepSpec struct {
	// Voltages are the approximate-DRAM supply voltages to evaluate at.
	Voltages []float64 `json:"voltages,omitempty"`
	// BERs are the tolerance thresholds (BERth candidates) each mapping
	// is derived under.
	BERs []float64 `json:"bers,omitempty"`
	// ErrorModels are the EDEN error models to inject with.
	ErrorModels []ErrorModel `json:"error_models,omitempty"`
	// Policies are the mapping policies to place the weights with.
	Policies []Policy `json:"policies,omitempty"`
	// Bitwidths are stored-weight bitwidths to sweep (16 = FP16, 32 =
	// FP32); empty means the configured quantization only. A spelled-out
	// axis equal to the configured default is canonicalized back to
	// omitted, so both spellings share one job identity.
	Bitwidths []int `json:"bitwidths,omitempty"`
	// PruneLevels are pruned weight fractions (by magnitude) to sweep,
	// each in [0, 1); empty means unpruned only.
	PruneLevels []float64 `json:"prune_levels,omitempty"`
	// Encoders are the spike encoders to evaluate under; empty means the
	// network's own (rate) encoder only. Evaluation reads trains encoded
	// per axis point; training always uses the network's encoder.
	Encoders []Encoder `json:"encoders,omitempty"`
	// Workers bounds the evaluation pool (<= 0: the WithSweepWorkers
	// option, then GOMAXPROCS). The report is byte-identical for any
	// value.
	Workers int `json:"-"`
}

// SweepPoint is the outcome of one scenario of a sweep.
type SweepPoint struct {
	// Key is the scenario's canonical identity (the report sort key and
	// the scenario's random-stream derivation path).
	Key     string  `json:"key"`
	Voltage float64 `json:"voltage"`
	// BER is the requested tolerance threshold of the scenario.
	BER float64 `json:"ber"`
	// ErrorModel names the EDEN error model injected (scenario
	// vocabulary, e.g. "model0-uniform").
	ErrorModel ErrorModelName `json:"error_model"`
	Policy     Policy         `json:"policy"`
	// Bitwidth, PruneLevel, and Encoder echo the scenario's extended-axis
	// values; the zero value means the configured default (the field is
	// then omitted, matching pre-N-axis artifacts).
	Bitwidth   int     `json:"bitwidth,omitempty"`
	PruneLevel float64 `json:"prune_level,omitempty"`
	Encoder    Encoder `json:"encoder,omitempty"`
	// EffectiveBERth is the threshold actually used (the sparkxd policy
	// relaxes the requested one until the image fits).
	EffectiveBERth float64 `json:"effective_ber_th"`
	// SafeSubarrays counts subarrays at or below the effective threshold.
	SafeSubarrays int `json:"safe_subarrays"`
	// FlippedBits is the number of bit errors injected at this point.
	FlippedBits int64 `json:"flipped_bits"`
	// Accuracy is the model's accuracy under the scenario's errors.
	Accuracy float64 `json:"accuracy"`
	// EnergyMJ and HitRate describe one weight-streaming inference pass
	// over the scenario's layout at the scenario voltage.
	EnergyMJ float64 `json:"energy_mj"`
	HitRate  float64 `json:"hit_rate"`
}

// SweepReport is the artifact of Pipeline.Sweep: one point per scenario,
// sorted by scenario key. It round-trips losslessly through
// encoding/json (PutArtifact / GetSweepReport) and is byte-identical
// for any worker count.
type SweepReport struct {
	// Dataset/Neurons identify the model the sweep evaluated.
	Dataset string `json:"dataset"`
	Neurons int    `json:"neurons"`
	// BaselineAcc is the model's error-free accuracy (zero if never
	// measured).
	BaselineAcc float64 `json:"baseline_acc"`
	// The resolved grid axes. Every axis echo is typed; error models use
	// the scenario vocabulary ("model0-uniform"), the stable artifact
	// spelling since the first sweep release. The extended axes are
	// omitted when the grid left them at the configured default, so
	// 4-axis artifacts are byte-identical to pre-N-axis ones.
	Voltages    []float64        `json:"voltages"`
	BERs        []float64        `json:"bers"`
	ErrorModels []ErrorModelName `json:"error_models"`
	Policies    []Policy         `json:"policies"`
	Bitwidths   []int            `json:"bitwidths,omitempty"`
	PruneLevels []float64        `json:"prune_levels,omitempty"`
	Encoders    []Encoder        `json:"encoders,omitempty"`
	// Points holds one record per scenario, sorted by Key.
	Points []SweepPoint `json:"points"`
}

// Sweep evaluates the model under every scenario of the grid — the
// batched, parallel generalization of EvaluateUnderErrors. Scenarios run
// in key order on a pool of Workers slots; device profiles are derived
// once per (voltage, error model) point and shared, and every scenario
// draws its injection randomness from a stream derived from its scenario
// key, so the report is byte-identical whether Workers is 1 or N.
// Evaluation is paired: every scenario uses the spike trains of the same
// evaluation seed family as EvaluateUnderErrors.
//
// Sweep needs a trained model (run Train/ImproveTolerance or assign one)
// but no prior Map: each scenario derives its own placement.
func (p *Pipeline) Sweep(ctx context.Context, spec SweepSpec) (*SweepReport, error) {
	m := p.model()
	if m == nil || m.net == nil {
		return nil, missingArtifact("Sweep", "a trained model", "run Train/ImproveTolerance or assign Pipeline.Improved")
	}
	_, test, err := p.data()
	if err != nil {
		return nil, wrapStage("sweep", err)
	}
	canon, espec, err := resolveSweep(spec, &p.sys.cfg)
	if err != nil {
		return nil, invalidSweep(err)
	}

	scenarios := len(espec.Scenarios())
	p.sys.notify(Event{Stage: "sweep", Phase: "start", Epochs: scenarios,
		Message: fmt.Sprintf("%d scenarios on %d workers", scenarios, espec.Workers)})
	results, err := p.sys.sweepEngine().Run(ctx, m.net, test, espec)
	if err != nil {
		return nil, wrapStage("sweep", err)
	}

	report := &SweepReport{
		Dataset:     m.Dataset,
		Neurons:     m.Neurons,
		BaselineAcc: m.BaselineAcc,
		Voltages:    canon.Voltages,
		BERs:        canon.BERs,
		Policies:    canon.Policies,
		Bitwidths:   canon.Bitwidths,
		PruneLevels: canon.PruneLevels,
		Encoders:    canon.Encoders,
		Points:      make([]SweepPoint, len(results)),
	}
	for _, k := range espec.Kinds {
		report.ErrorModels = append(report.ErrorModels, ErrorModelName(k.String()))
	}
	for i, r := range results {
		report.Points[i] = SweepPoint{
			Key:            r.Key,
			Voltage:        r.Voltage,
			BER:            r.BER,
			ErrorModel:     ErrorModelName(r.Kind),
			Policy:         Policy(r.Policy),
			Bitwidth:       r.Bitwidth,
			PruneLevel:     r.PruneLevel,
			Encoder:        Encoder(r.Encoder),
			EffectiveBERth: r.EffectiveBERth,
			SafeSubarrays:  r.SafeSubarrays,
			FlippedBits:    r.FlippedBits,
			Accuracy:       r.Accuracy,
			EnergyMJ:       r.EnergyMJ,
			HitRate:        r.HitRate,
		}
	}
	p.sys.notify(Event{Stage: "sweep", Phase: "done", Epochs: scenarios})
	return report, nil
}

// ValidateSweep reports whether the spec — resolved against the system
// defaults — describes a runnable grid. It needs no trained model, so
// front-ends can reject a malformed grid before spending time training;
// failures satisfy errors.Is(err, ErrInvalidSweep).
func (s *System) ValidateSweep(spec SweepSpec) error {
	if _, _, err := resolveSweep(spec, &s.cfg); err != nil {
		return invalidSweep(err)
	}
	return nil
}

// resolveSweep is the one resolution of a sweep grid against a
// configuration; Pipeline.Sweep, ValidateSweep and JobSpec.Normalized
// all call it. It returns the validated engine grid, and the canonical
// spec that job IDs hash and reports echo: empty base axes filled from
// cfg (the configured voltage, BER schedule and error model, and the
// SparkXD policy), names canonicalized, every −0 written as 0, Workers
// zeroed, and each extended axis resolved by the rule of axes.go.
func resolveSweep(spec SweepSpec, cfg *config) (SweepSpec, engine.Spec, error) {
	fail := func(err error) (SweepSpec, engine.Spec, error) { return SweepSpec{}, engine.Spec{}, err }
	workers := spec.Workers
	if workers <= 0 {
		workers = cfg.sweepWorkers
	}
	spec.Workers = 0
	if len(spec.Voltages) == 0 {
		spec.Voltages = []float64{cfg.voltage}
	}
	spec.Voltages = unsignedZeros(spec.Voltages)
	if len(spec.BERs) == 0 {
		spec.BERs = cfg.rates
	}
	spec.BERs = unsignedZeros(spec.BERs)
	if len(spec.ErrorModels) == 0 {
		spec.ErrorModels = []ErrorModel{errorModelOf(cfg.errKind)}
	}
	spec.ErrorModels = slices.Clone(spec.ErrorModels)
	kinds := make([]errmodel.Kind, len(spec.ErrorModels))
	for i, m := range spec.ErrorModels {
		k, err := m.kind()
		if err != nil {
			return fail(err)
		}
		kinds[i] = k
	}
	if len(spec.Policies) == 0 {
		spec.Policies = []Policy{PolicySparkXD}
	}
	spec.Policies = slices.Clone(spec.Policies)
	policies := make([]string, len(spec.Policies))
	for i, pol := range spec.Policies {
		p, err := ParsePolicy(string(pol))
		if err != nil {
			return fail(err)
		}
		spec.Policies[i], policies[i] = p, string(p)
	}

	// The extended axes. A value equal to the configured default is the
	// engine's zero value, which scenario keys elide.
	engBits := make([]int, len(spec.Bitwidths))
	for i, b := range spec.Bitwidths {
		q, err := ParseBitwidth(b)
		if err != nil {
			return fail(err)
		}
		if f, err := q.format(); err != nil || f != cfg.format {
			engBits[i] = b
		}
	}
	if engBits = elideDefault(engBits, 0); engBits == nil {
		spec.Bitwidths = nil
	}
	spec.Bitwidths = slices.Clone(spec.Bitwidths)
	spec.PruneLevels = elideDefault(unsignedZeros(spec.PruneLevels), 0)
	for _, lv := range spec.PruneLevels {
		if err := ValidatePruneLevel(lv); err != nil {
			return fail(err)
		}
	}
	encoders := make([]Encoder, len(spec.Encoders))
	for i, e := range spec.Encoders {
		var err error
		if encoders[i], err = ParseEncoder(string(e)); err != nil {
			return fail(err)
		}
	}
	spec.Encoders = elideDefault(encoders, EncoderRate)
	engEncs := make([]engine.EncoderAxis, len(spec.Encoders))
	for i, e := range spec.Encoders {
		if e != EncoderRate {
			c, err := e.coder()
			if err != nil {
				return fail(err)
			}
			engEncs[i] = engine.EncoderAxis{Name: string(e), Coder: c}
		}
	}

	espec := engine.Spec{
		Voltages:    spec.Voltages,
		BERs:        spec.BERs,
		Kinds:       kinds,
		Policies:    policies,
		Bitwidths:   engBits,
		PruneLevels: spec.PruneLevels,
		Encoders:    engEncs,
		// The seed family matches EvaluateUnderErrors (trainSeed+2 roots
		// injection, trainSeed+3 drives paired spike encoding), so sweep
		// accuracies are comparable with the single-scenario stage.
		Seed:     cfg.trainSeed + 2,
		EvalSeed: cfg.trainSeed + 3,
		Workers:  workers,
	}
	if err := espec.Validate(); err != nil {
		return fail(err)
	}
	return spec, espec, nil
}
