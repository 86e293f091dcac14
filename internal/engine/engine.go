// Package engine is the batched scenario-sweep evaluation engine: it
// takes a trained SNN and a declarative scenario grid (supply voltages ×
// bit-error rates × EDEN error-model kinds × mapping policies, plus the
// optional stored-weight bitwidth, prune-level, and spike-encoder axes),
// fans the cross-product out over the internal/sched work-stealing pool,
// and returns one deterministic accuracy/energy record per scenario.
//
// The sweep decomposes into independent scenario jobs, and each distinct
// piece of scenario work is done once:
//
//   - device error profiles are derived once per device point through a
//     single-flight sched.Cache keyed by (voltage, error-model kind,
//     device seed) — a (2 voltages × 7 BERs × policies) grid derives 2
//     profiles, not 14×;
//   - DRAM placements are cached by what placement reads (policy, image
//     size and, for sparkxd, the device point and threshold), never by
//     error-model kind, so every kind shares one layout;
//   - prepared injectors (weak-cell sets) and the energy replay are
//     cached per (profile, policy, threshold), so every baseline-policy
//     scenario of one device point shares a single preparation pass and
//     a single replay;
//   - within one Run, every scenario whose injection flipped no bit
//     evaluates the same weights — the storage round trip of its master
//     weights — so each (encoder, bitwidth, prune level) group of such
//     scenarios is evaluated once;
//   - each worker corrupts weights into its own pooled scratch buffer and
//     evaluates through its own snn.Evaluator, so the hot path allocates
//     nothing per scenario after warm-up.
//
// Determinism contract (same as internal/sched, DESIGN.md §6/§7): every
// scenario draws its injection randomness from a stream derived from the
// scheduler seed and the scenario *key* — never from execution order or
// worker identity — and results are returned sorted by key, so a sweep is
// byte-identical for any worker count. Evaluation uses one shared
// EvalSeed across scenarios (paired evaluation on identical spike
// trains), which every scenario re-expands into its own private stream.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/mapping"
	"sparkxd/internal/prune"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
	"sparkxd/internal/snn"
)

// Mapping policy names accepted by Spec.Policies.
const (
	PolicyBaseline = "baseline"
	PolicySparkXD  = "sparkxd"
)

// Spec declares a scenario grid as the cross-product of its axes.
type Spec struct {
	// Voltages are the supply voltages to characterize the device at.
	// Ignored (may be empty) when Uniform is set.
	Voltages []float64
	// BERs are the per-scenario bit-error-rate points: the mapping
	// threshold (BERth) for the sparkxd policy, and — when Uniform is
	// set — the uniform injection rate itself.
	BERs []float64
	// Kinds are the EDEN error models to inject with.
	Kinds []errmodel.Kind
	// Policies are the mapping policies ("baseline", "sparkxd").
	Policies []string
	// Uniform switches the profile source from voltage-derived device
	// profiles to uniform profiles at exactly the scenario BER — the
	// regime of the paper's Figs. 8 and 11 (rates, not voltages, drive
	// the sweep). The sparkxd policy is not meaningful against a uniform
	// profile (every subarray is equally safe or unsafe).
	Uniform bool
	// Seed roots every per-scenario injection stream (derived from the
	// scenario key, never from execution order).
	Seed uint64
	// EvalSeed drives spike encoding during evaluation; it is shared by
	// every scenario so that accuracies are compared on identical spike
	// trains (paired evaluation).
	EvalSeed uint64
	// Workers bounds the scheduler pool; <= 0 means GOMAXPROCS.
	Workers int

	// The axes below extend the paper's 4-axis grid. An empty axis (or a
	// zero element) means "the framework default" and is elided from
	// scenario keys, so grids that do not exercise an axis keep the exact
	// keys — and therefore RNG streams and cache identities — of the
	// 4-axis engine.

	// Bitwidths are stored-weight bitwidths to sweep (16 = FP16,
	// 32 = FP32); 0 means the framework's configured format.
	Bitwidths []int
	// PruneLevels are fractions of weights zeroed by magnitude before
	// storage, each in [0, 1); 0 means no pruning.
	PruneLevels []float64
	// Encoders are spike-encoder axis points; the zero EncoderAxis means
	// the network's own encoder.
	Encoders []EncoderAxis
}

// EncoderAxis is one point of the spike-encoder axis. The zero value
// selects the network's own encoder and is elided from scenario keys.
type EncoderAxis struct {
	// Name is the short stable axis name embedded in scenario keys
	// ("ttfs", "phase", …); it must be non-empty iff Coder is non-nil.
	Name string
	// Coder encodes the test set for this axis point.
	Coder coding.Encoder
}

// Scenario is one evaluation point of the grid.
type Scenario struct {
	Voltage float64
	BER     float64
	Kind    errmodel.Kind
	Policy  string
	// Bits is the stored-weight bitwidth (0 = framework format).
	Bits int
	// Prune is the pruned weight fraction (0 = none).
	Prune float64
	// Encoder is the spike-encoder axis point (zero = network encoder).
	Encoder EncoderAxis
}

// Key returns the scenario's canonical identity. It is the seed-
// derivation path of the scenario's injection stream and the sort key of
// the sweep results, so it must be stable across releases. Default axis
// values (zero bitwidth/prune, zero EncoderAxis) are elided, keeping
// 4-axis keys byte-identical to the pre-N-axis engine.
func (sc Scenario) Key() string {
	key := fmt.Sprintf("v%.4f/ber%.3e/%s/%s", sc.Voltage, sc.BER, sc.Kind, sc.Policy)
	if sc.Bits != 0 {
		key += fmt.Sprintf("/bw%d", sc.Bits)
	}
	if sc.Prune != 0 {
		key += fmt.Sprintf("/pr%.4f", sc.Prune)
	}
	if sc.Encoder.Name != "" {
		key += "/enc-" + sc.Encoder.Name
	}
	return key
}

// Result is the outcome of one scenario, deterministic in (spec, model,
// device): identical for any worker count.
type Result struct {
	Key     string  `json:"key"`
	Voltage float64 `json:"voltage"`
	BER     float64 `json:"ber"`
	Kind    string  `json:"error_model"`
	Policy  string  `json:"policy"`
	// EffectiveBERth is the mapping threshold actually used (the sparkxd
	// policy relaxes the scenario BER until the image fits).
	EffectiveBERth float64 `json:"effective_ber_th"`
	// SafeSubarrays counts subarrays at or below the effective threshold.
	SafeSubarrays int `json:"safe_subarrays"`
	// FlippedBits is the number of bit errors this scenario injected.
	FlippedBits int64 `json:"flipped_bits"`
	// Bitwidth, PruneLevel, and Encoder echo the scenario's extended-axis
	// values; the zero value means the framework default (and the field is
	// omitted, matching pre-N-axis records).
	Bitwidth   int     `json:"bitwidth,omitempty"`
	PruneLevel float64 `json:"prune_level,omitempty"`
	Encoder    string  `json:"encoder,omitempty"`
	// Accuracy is the model's accuracy under the scenario's errors.
	Accuracy float64 `json:"accuracy"`
	// EnergyMJ and HitRate describe one weight-streaming inference pass
	// over the scenario's layout at the scenario voltage (voltage-derived
	// grids only; zero when Uniform).
	EnergyMJ float64 `json:"energy_mj,omitempty"`
	HitRate  float64 `json:"hit_rate,omitempty"`
}

// Engine evaluates scenario grids against one framework (device models,
// error-model kind selection happens per scenario). The caches persist
// across Run calls, so repeated sweeps against the same device share
// profiles and placements. An Engine is safe for concurrent use.
type Engine struct {
	fw *core.Framework
	// profiles single-flights device-profile derivation, keyed by
	// (voltage | uniform BER, error-model kind, device seed).
	profiles *sched.Cache
	// layouts single-flights placement, keyed by (policy, stored format,
	// image size and — for sparkxd — device point and threshold). Profiles
	// do not depend on the error-model kind, so neither does this key.
	layouts *sched.Cache
	// prepared single-flights injector weak-cell preparation and the
	// energy replay, keyed by (profile key, policy, threshold, image size,
	// and — when non-default — the scenario bitwidth).
	prepared *sched.Cache
	// encMu/encs cache the encoded test sets across Run calls, one entry
	// per encoder-axis name ("" = the network's own encoder): spike
	// trains depend only on (dataset, encoder, steps, EvalSeed), so
	// repeated sweeps against one system — the serve/fleet steady state —
	// encode each test-set/encoder pair once, not once per Run.
	encMu sync.Mutex
	encs  map[string]*snn.EncodedSet
}

// New returns an engine over the framework's device models.
func New(fw *core.Framework) *Engine {
	return &Engine{fw: fw, profiles: sched.NewCache(), layouts: sched.NewCache(), prepared: sched.NewCache()}
}

// ProfileCacheStats returns the cumulative hit/miss counts of the
// profile cache. After one Run over a grid, misses equals the number of
// distinct device points and hits equals scenarios − distinct points.
func (e *Engine) ProfileCacheStats() (hits, misses uint64) { return e.profiles.Stats() }

// Scenarios expands the spec's cross-product in axis order (voltage,
// BER, kind, policy, bitwidth, prune level, encoder). Empty extended
// axes expand to their single default point, so a 4-axis spec yields
// exactly the pre-N-axis grid.
func (s Spec) Scenarios() []Scenario {
	voltages := s.Voltages
	if s.Uniform {
		voltages = []float64{0}
	}
	bits := s.Bitwidths
	if len(bits) == 0 {
		bits = []int{0}
	}
	prunes := s.PruneLevels
	if len(prunes) == 0 {
		prunes = []float64{0}
	}
	encs := s.Encoders
	if len(encs) == 0 {
		encs = []EncoderAxis{{}}
	}
	n := len(voltages) * len(s.BERs) * len(s.Kinds) * len(s.Policies) * len(bits) * len(prunes) * len(encs)
	out := make([]Scenario, 0, n)
	for _, v := range voltages {
		for _, ber := range s.BERs {
			for _, k := range s.Kinds {
				for _, pol := range s.Policies {
					for _, bw := range bits {
						for _, pr := range prunes {
							for _, enc := range encs {
								out = append(out, Scenario{
									Voltage: v, BER: ber, Kind: k, Policy: pol,
									Bits: bw, Prune: pr, Encoder: enc,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Validate reports whether the spec describes a runnable grid.
func (s Spec) Validate() error {
	switch {
	case !s.Uniform && len(s.Voltages) == 0:
		return errors.New("engine: no voltages in sweep spec")
	case len(s.BERs) == 0:
		return errors.New("engine: no BER points in sweep spec")
	case len(s.Kinds) == 0:
		return errors.New("engine: no error models in sweep spec")
	case len(s.Policies) == 0:
		return errors.New("engine: no mapping policies in sweep spec")
	}
	if !s.Uniform {
		for _, v := range s.Voltages {
			if v <= 0 {
				return fmt.Errorf("engine: non-positive voltage %v in sweep spec", v)
			}
		}
	}
	for _, b := range s.BERs {
		if b < 0 || b > 0.5 {
			return fmt.Errorf("engine: BER %v outside [0, 0.5]", b)
		}
	}
	for _, p := range s.Policies {
		if p != PolicyBaseline && p != PolicySparkXD {
			return fmt.Errorf("engine: unknown mapping policy %q", p)
		}
	}
	for _, bw := range s.Bitwidths {
		if _, err := formatForBits(bw, 0); err != nil {
			return err
		}
	}
	for _, pr := range s.PruneLevels {
		if pr < 0 || pr >= 1 {
			return fmt.Errorf("engine: prune level %v outside [0, 1)", pr)
		}
	}
	for _, enc := range s.Encoders {
		if (enc.Name == "") != (enc.Coder == nil) {
			return fmt.Errorf("engine: encoder axis %q must set Name and Coder together", enc.Name)
		}
	}
	seen := make(map[string]bool)
	for _, sc := range s.Scenarios() {
		key := sc.Key()
		if seen[key] {
			return fmt.Errorf("engine: duplicate scenario %q (axis values collide at key precision)", key)
		}
		seen[key] = true
	}
	return nil
}

// scratch is the per-worker reusable evaluation state: the injected
// weight copy, its serialized image, and the batched evaluator.
type scratch struct {
	w   []float32
	img []byte
	ev  *snn.Evaluator
}

// placement is one cached layout. effTh (the threshold Algorithm 2
// settled on) and safe (the subarrays at or below it) are only
// meaningful for the sparkxd policy, whose cache key includes the
// threshold; the baseline layout is shared across BER points and its
// per-scenario threshold fields are derived by the caller instead.
type placement struct {
	layout *mapping.Layout
	effTh  float64
	safe   int
}

// prep is one cached (placement, prepared injector, energy replay)
// entry. The placement is shared across error-model kinds through the
// layout cache; energyMJ and hitRate are zero on uniform grids.
type prep struct {
	*placement
	inj      *errmodel.Injector
	energyMJ float64
	hitRate  float64
}

// Run evaluates every scenario of the grid against the network and test
// set, and returns the results sorted by scenario key. Cancellation is
// checked at scenario boundaries; a cancelled run returns ctx.Err()
// wrapped in the first failing scenario's error.
func (e *Engine) Run(ctx context.Context, net *snn.Network, test *dataset.Dataset, spec Spec) ([]Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, errors.New("engine: nil network")
	}
	if test == nil || test.Len() == 0 {
		return nil, errors.New("engine: empty test set")
	}

	weights := net.WeightsFlat() // shared read-only master copy
	scenarios := spec.Scenarios()

	// Parallelism splits across two levels: scenario jobs fan out over
	// the scheduler pool, and each evaluation fans its drive precompute
	// out over evalWorkers. When the grid is wide the scenario level
	// saturates the machine and evaluations stay sequential; when the
	// grid is narrower than the pool (the single-big-job case) the spare
	// workers move inside the evaluation. Results are bit-identical
	// either way (snn.EvaluateEncoded's contract).
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	evalWorkers := workers / len(scenarios)
	if evalWorkers < 1 {
		evalWorkers = 1
	}

	// Every scenario of one encoder-axis point evaluates on the same
	// spike trains (paired evaluation, one shared EvalSeed), so each
	// distinct encoder's test set is encoded once here and shared
	// read-only by all workers.
	encSets, err := e.encodedTestSets(ctx, net, test, spec, workers)
	if err != nil {
		return nil, fmt.Errorf("engine: encode test set: %w", err)
	}

	// Pruned master-weight variants are shared across the scenarios of
	// one prune level, and zero-flip accuracies across the scenarios of
	// one (encoder, bitwidth, prune level) group, but neither may outlive
	// this Run: both depend on the network's weights and thresholds,
	// which may differ between Run calls on a persistent Engine.
	pruned, evals := sched.NewCache(), sched.NewCache()

	pool := sync.Pool{New: func() any {
		return &scratch{ev: snn.NewEvaluatorWorkers(net, evalWorkers)}
	}}

	s, err := sched.New(sched.Config{Workers: spec.Workers, Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	for _, sc := range scenarios {
		sc := sc
		err := s.Add(sched.Job{Name: sc.Key(), Run: func(c *sched.Ctx) (any, error) {
			// Scenario-boundary cancellation: a cancelled sweep stops
			// before deriving profiles or corrupting weights.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return e.runScenario(ctx, sc, spec, weights, encSets, pruned, evals, &pool, c.RNG)
		}})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}

	reports, runErr := s.Run()
	if runErr != nil {
		return nil, fmt.Errorf("engine: %w", runErr)
	}
	out := make([]Result, len(reports)) // name order == key order
	for i, rep := range reports {
		out[i] = rep.Value.(Result)
	}
	return out, nil
}

// runScenario evaluates one grid point. r is the scenario's private
// stream (derived by the scheduler from the scenario key); encSets maps
// encoder-axis names to the run-wide encoded test sets; pruned and evals
// are the run-local pruned-master-weights and zero-flip accuracy caches.
func (e *Engine) runScenario(ctx context.Context, sc Scenario, spec Spec,
	weights []float32, encSets map[string]*snn.EncodedSet, pruned, evals *sched.Cache,
	pool *sync.Pool, r *rng.Stream) (Result, error) {
	format, err := formatForBits(sc.Bits, e.fw.Format)
	if err != nil {
		return Result{}, err
	}
	profile, profileKey, err := e.profileFor(sc, spec)
	if err != nil {
		return Result{}, err
	}
	p, err := e.prepFor(sc, spec, profileKey, profile, len(weights), format)
	if err != nil {
		return Result{}, err
	}
	effTh, safe := p.effTh, p.safe
	if sc.Policy == PolicyBaseline {
		// The baseline placement is shared across BER points (the layout
		// does not depend on the threshold), so the per-scenario threshold
		// fields must be derived here, not read from the cache.
		effTh, safe = sc.BER, profile.SafeCount(sc.BER)
	}

	w := weights
	if sc.Prune != 0 {
		if w, err = prunedWeights(pruned, weights, sc.Prune); err != nil {
			return Result{}, err
		}
	}
	es := encSets[sc.Encoder.Name]
	if es == nil {
		return Result{}, fmt.Errorf("engine: no encoded test set for encoder axis %q", sc.Encoder.Name)
	}

	s := pool.Get().(*scratch)
	defer pool.Put(s)
	flips, err := e.injectInto(s, w, p, format, r.Derive("inject"))
	if err != nil {
		return Result{}, err
	}
	evaluate := func() (float64, error) {
		if err := decodeInto(s, len(w), format); err != nil {
			return 0, err
		}
		// Point the pooled evaluator at the scenario's encoder so the
		// encoded-set identity check passes; evaluation itself reads only
		// the pre-encoded trains, so results do not depend on which
		// scenario last used this scratch.
		s.ev.SetEncoder(sc.Encoder.Coder)
		return s.ev.EvaluateWeightsEncoded(ctx, es, s.w)
	}
	var acc float64
	if flips == 0 {
		// An image with no flipped bit decodes to exactly the storage
		// round trip of w, whatever the scenario's device point, policy
		// or error model: every zero-flip scenario of one (encoder, stored
		// format, prune level) evaluates identical weights on identical
		// spike trains, so the first one to get here evaluates for all.
		key := fmt.Sprintf("eval/enc-%s/%s/pr%.4f", sc.Encoder.Name, format, sc.Prune)
		v, err := evals.GetOrCompute(key, func() (any, error) { return evaluate() })
		if err != nil {
			return Result{}, err
		}
		acc = v.(float64)
	} else if acc, err = evaluate(); err != nil {
		return Result{}, err
	}

	return Result{
		Key:            sc.Key(),
		Voltage:        sc.Voltage,
		BER:            sc.BER,
		Kind:           sc.Kind.String(),
		Policy:         sc.Policy,
		EffectiveBERth: effTh,
		SafeSubarrays:  safe,
		FlippedBits:    flips,
		Bitwidth:       sc.Bits,
		PruneLevel:     sc.Prune,
		Encoder:        sc.Encoder.Name,
		Accuracy:       acc,
		EnergyMJ:       p.energyMJ,
		HitRate:        p.hitRate,
	}, nil
}

// encodedTestSets returns the sweep's pre-encoded spike trains, one set
// per encoder-axis point, reusing cached sets when the dataset, encoder,
// steps, and EvalSeed all match a previous Run (trains do not depend on
// the network's weights or thresholds). Every encoder expands the same
// EvalSeed root, so accuracies stay paired across the encoder axis.
// Encoding runs under the mutex, single-flighted.
func (e *Engine) encodedTestSets(ctx context.Context, net *snn.Network, test *dataset.Dataset, spec Spec, workers int) (map[string]*snn.EncodedSet, error) {
	e.encMu.Lock()
	defer e.encMu.Unlock()
	if e.encs == nil {
		e.encs = make(map[string]*snn.EncodedSet)
	}
	axes := spec.Encoders
	if len(axes) == 0 {
		axes = []EncoderAxis{{}}
	}
	out := make(map[string]*snn.EncodedSet, len(axes))
	for _, ax := range axes {
		r := rng.New(spec.EvalSeed)
		encName := net.Cfg.Encoder.Name()
		if ax.Coder != nil {
			encName = ax.Coder.Name()
		}
		if cached := e.encs[ax.Name]; cached != nil && cached.MatchesFor(test, r, net.Cfg.Steps, encName) {
			out[ax.Name] = cached
			continue
		}
		es, err := net.EncodeDatasetWith(ctx, test, ax.Coder, r, workers)
		if err != nil {
			return nil, err
		}
		e.encs[ax.Name] = es
		out[ax.Name] = es
	}
	return out, nil
}

// formatForBits resolves a scenario bitwidth to a stored-weight format;
// the 0 default resolves to def (the framework's configured format).
func formatForBits(bits int, def quant.Format) (quant.Format, error) {
	switch bits {
	case 0:
		return def, nil
	case 16:
		return quant.FP16, nil
	case 32:
		return quant.FP32, nil
	default:
		return def, fmt.Errorf("engine: unsupported bitwidth %d (valid: 16, 32)", bits)
	}
}

// prunedWeights returns the master weights with the scenario's prune
// level applied, single-flighted per level through the run-local cache
// (the returned slice is shared read-only by every scenario of that
// level).
func prunedWeights(cache *sched.Cache, weights []float32, level float64) ([]float32, error) {
	v, err := cache.GetOrCompute(fmt.Sprintf("pruned/pr%.4f", level), func() (any, error) {
		w := append([]float32(nil), weights...)
		if _, err := prune.ByMagnitude(w, 1-level); err != nil {
			return nil, fmt.Errorf("engine: prune level %v: %w", level, err)
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float32), nil
}

// devicePoint names the scenario's device point: its voltage, or its
// uniform BER on uniform grids. Profiles depend on nothing else but the
// framework's device seed (ProfileAt and UniformProfile ignore the
// error-model kind).
func devicePoint(sc Scenario, spec Spec) string {
	if spec.Uniform {
		return fmt.Sprintf("uniform/ber%.3e", sc.BER)
	}
	return fmt.Sprintf("v%.4f", sc.Voltage)
}

// profileFor returns the scenario's device profile through the
// single-flight cache, deriving it at most once per device point.
func (e *Engine) profileFor(sc Scenario, spec Spec) (*errmodel.Profile, string, error) {
	key := fmt.Sprintf("profile/%s/%s/seed%d", devicePoint(sc, spec), sc.Kind, e.fw.DeviceSeed)
	v, err := e.profiles.GetOrCompute(key, func() (any, error) {
		if spec.Uniform {
			return errmodel.UniformProfile(e.fw.Geom, sc.BER, e.fw.DeviceSeed)
		}
		return e.fw.ProfileAt(sc.Voltage)
	})
	if err != nil {
		return nil, "", err
	}
	return v.(*errmodel.Profile), key, nil
}

// layoutFor returns the scenario's placement through the engine-lifetime
// single-flight cache. The key holds exactly what LayoutForWeightsIn and
// MapAdaptiveWithProfileIn read: the policy, the stored format and weight
// count, and for sparkxd the device point (whose profile decides which
// subarrays are safe) and the requested threshold. The error-model kind
// is absent, so all kinds of one device point share one layout.
func (e *Engine) layoutFor(sc Scenario, spec Spec, profile *errmodel.Profile, weightCount int, format quant.Format) (*placement, error) {
	key := fmt.Sprintf("layout/%s/%s/n%d", sc.Policy, format, weightCount)
	if sc.Policy == PolicySparkXD {
		key = fmt.Sprintf("%s/%s/seed%d/th%.3e", key, devicePoint(sc, spec), e.fw.DeviceSeed, sc.BER)
	}
	v, err := e.layouts.GetOrCompute(key, func() (any, error) {
		if sc.Policy == PolicyBaseline {
			layout, err := e.fw.LayoutForWeightsIn(format, weightCount, nil)
			return &placement{layout: layout}, err
		}
		layout, th, err := e.fw.MapAdaptiveWithProfileIn(format, profile, weightCount, sc.BER)
		if err != nil {
			return nil, err
		}
		return &placement{layout: layout, effTh: th, safe: profile.SafeCount(th)}, nil
	})
	if err != nil {
		if sc.Policy == PolicySparkXD {
			err = fmt.Errorf("engine: scenario %s: %w", sc.Key(), err)
		}
		return nil, err
	}
	return v.(*placement), nil
}

// prepFor returns the scenario's (layout, prepared injector, energy)
// triple through the single-flight cache. Prepared injectors are
// read-only during Inject, so concurrent scenarios of the same device
// point share one weak-cell derivation pass; on voltage-derived grids the
// energy replay of the layout at the prep's voltage runs once here too.
func (e *Engine) prepFor(sc Scenario, spec Spec, profileKey string, profile *errmodel.Profile, weightCount int, format quant.Format) (*prep, error) {
	key := fmt.Sprintf("prep/%s/%s/n%d", profileKey, sc.Policy, weightCount)
	if sc.Policy == PolicySparkXD {
		key = fmt.Sprintf("prep/%s/%s/th%.3e/n%d", profileKey, sc.Policy, sc.BER, weightCount)
	}
	if sc.Bits != 0 {
		// A non-default bitwidth changes the image size and therefore the
		// layout and weak-cell preparation; prune levels do NOT (pruned
		// weights still occupy their cells), so prune is absent here.
		key = fmt.Sprintf("%s/bw%d", key, sc.Bits)
	}
	v, err := e.prepared.GetOrCompute(key, func() (any, error) {
		pl, err := e.layoutFor(sc, spec, profile, weightCount, format)
		if err != nil {
			return nil, err
		}
		p := &prep{placement: pl, inj: errmodel.NewInjector(sc.Kind, profile)}
		p.inj.Prepare(p.layout)
		if !spec.Uniform {
			energy, err := e.fw.EvaluateEnergy(p.layout, sc.Voltage)
			if err != nil {
				return nil, err
			}
			p.energyMJ, p.hitRate = energy.TotalMJ(), energy.Stats.HitRate()
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*prep), nil
}

// injectInto serializes the master weights into the scratch image in the
// scenario's stored-weight format and injects the scenario's bit errors.
func (e *Engine) injectInto(s *scratch, weights []float32, p *prep, format quant.Format, r *rng.Stream) (int64, error) {
	need := format.ImageSize(len(weights), p.layout.UnitBytes())
	if cap(s.img) < need {
		s.img = make([]byte, need)
	}
	s.img = s.img[:need]
	// Serialize leaves padding bytes untouched; zero them so a reused
	// buffer cannot leak the previous scenario's bits into this one
	// (Model3 failure probabilities are data-dependent).
	for i := len(weights) * format.BytesPerWeight(); i < need; i++ {
		s.img[i] = 0
	}
	if err := quant.Serialize(weights, format, s.img); err != nil {
		return 0, fmt.Errorf("engine: serialize: %w", err)
	}
	return p.inj.Inject(s.img, p.layout, r), nil
}

// decodeInto deserializes the scratch image into the scratch weight
// buffer; with injectInto it is the pooled equivalent of
// core.CorruptWeights.
func decodeInto(s *scratch, n int, format quant.Format) error {
	if cap(s.w) < n {
		s.w = make([]float32, n)
	}
	s.w = s.w[:n]
	if err := quant.Deserialize(s.img, format, s.w); err != nil {
		return fmt.Errorf("engine: deserialize: %w", err)
	}
	return nil
}
