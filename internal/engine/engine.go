// Package engine is the batched scenario-sweep evaluation engine: it
// takes a trained SNN and a declarative scenario grid (supply voltages ×
// bit-error rates × EDEN error-model kinds × mapping policies, plus the
// optional stored-weight bitwidth, prune-level, and spike-encoder axes),
// runs the key-sorted cross-product on sched.ParallelFor, and returns one
// deterministic accuracy/energy record per scenario.
//
// The sweep decomposes into independent scenario jobs, and each distinct
// piece of scenario work is done once, through one byte-budgeted,
// single-flight memo that outlives a Run:
//
//   - device error profiles are derived once per device point (voltage,
//     or uniform BER, and device seed) — a (2 voltages × 7 BERs × kinds
//     × policies) grid derives 2 profiles;
//   - DRAM placements and their energy replay are kept per device
//     point, policy, image size and, for sparkxd, threshold, never per
//     error-model kind, so every kind shares one layout and one replay;
//   - prepared injectors (weak-cell sets) are kept per (kind,
//     placement), so every baseline-policy scenario of one device point
//     and kind shares a single preparation pass;
//   - the work that depends on the model and the test set but not on
//     the device point: the pruned master weights; each (stored format,
//     prune level) group's clean set, which is the image its master
//     weights serialize to with no bit flipped and the weights the
//     network loads from that image; the encoded test sets; and the
//     accuracy of each (encoder, bitwidth, prune level) group of
//     scenarios whose injection flipped no bit, since such scenarios all
//     evaluate their group's clean load. Their keys start with SHA-256
//     digests of what the entry reads (the model's weights, thresholds,
//     label assignment and configuration; the test set's images and
//     labels), so a changed model or test set never meets a stale
//     entry. A model's first Run drops its entries when it returns (the
//     second-sight rule, DESIGN §7);
//   - each pool slot of a Run owns one scratch set: an image, which
//     equals its group's clean image between scenarios, and an
//     snn.Evaluator. A scenario injects into the image, recording the bits
//     it flips, the evaluator decodes and loads only the weights those
//     bits fall in, and the scenario re-flips them afterwards. A
//     scenario's weight path therefore costs O(flipped bits), not
//     O(weights), the hot path allocates nothing per scenario after
//     warm-up, and the scratch is released with the Run.
//
// Determinism contract (DESIGN.md §7): every scenario draws its injection
// randomness from the stream rng.New(Spec.Seed).Derive("job/"+key) —
// never from execution order or pool slot — and results are returned
// sorted by key, so a sweep is byte-identical for any worker count.
// Evaluation uses one shared EvalSeed across scenarios (paired evaluation
// on identical spike trains), which every scenario re-expands into its
// own private stream.
package engine

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// Workers bounds the scenario pool; <= 0 means GOMAXPROCS.
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
	return voltageSegment(sc.Voltage) + berSegment(sc.BER) + kindSegment(sc.Kind) + policySegment(sc.Policy) +
		bitsSegment(sc.Bits) + pruneSegment(sc.Prune) + encoderSegment(sc.Encoder.Name)
}

// The key segments, one per axis, in key order. The first four are
// always present and hold no "/" after their leading one; each of the
// last three is empty at the axis default and otherwise starts with its
// own prefix, the encoder's last. Two scenarios therefore share a key
// exactly when they share every segment.
func voltageSegment(v float64) string    { return fmt.Sprintf("v%.4f", v) }
func berSegment(ber float64) string      { return fmt.Sprintf("/ber%.3e", ber) }
func kindSegment(k errmodel.Kind) string { return "/" + k.String() }
func policySegment(policy string) string { return "/" + policy }
func bitsSegment(bits int) string        { return extendedSegment(bits != 0, "/bw%d", bits) }
func pruneSegment(level float64) string  { return extendedSegment(level != 0, "/pr%.4f", level) }
func encoderSegment(name string) string  { return extendedSegment(name != "", "/enc-%s", name) }

// extendedSegment formats an extended axis's segment, or returns "" for
// the axis default.
func extendedSegment(set bool, format string, v any) string {
	if !set {
		return ""
	}
	return fmt.Sprintf(format, v)
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
// error-model kind selection happens per scenario). The memo persists
// across Run calls, so repeated sweeps against the same device share
// profiles, placements and prepared injectors, and repeated sweeps of
// the same model and test set share the per-model work. An Engine is
// safe for concurrent use.
type Engine struct {
	fw *core.Framework
	// memo single-flights, within memoBudget bytes, all shared work:
	// device-point state (profile/, layout/ and prep/ keys), pruned
	// masters and clean sets (keys prefixed by the model digest),
	// zero-flip accuracies (model and test digests, EvalSeed, coder) and
	// encoded test sets (test digest, EvalSeed, coder, steps).
	memo *sched.Cache
	// profileHits and profileMisses count the profile family's lookups.
	profileHits, profileMisses atomic.Uint64
	// recent holds the model digests of the last recentModels Runs, most
	// recent last (the second-sight rule).
	recentMu sync.Mutex
	recent   []string
}

// memoBudget bounds the bytes of values the engine memo keeps (DESIGN
// §7). The benchmark's sweep workload needs about 36 MB: 13 MB of
// per-model entries (four clean sets, one pruned master and six encoded
// test sets of an N200 model) and 23 MB of device-point state.
const memoBudget = 64 << 20

// recentModels is how many Runs' model digests the engine remembers. A
// Run whose model is not among them drops that model's memo entries when
// it returns, so a model swept once keeps nothing.
const recentModels = 4

// New returns an engine over the framework's device models.
func New(fw *core.Framework) *Engine {
	return &Engine{fw: fw, memo: sched.NewBudgetCache(memoBudget, memoBytes)}
}

// ProfileCacheStats returns the cumulative hit/miss counts of the memo's
// profile entries. After one Run over a grid, misses equals the number
// of distinct device points and hits equals scenarios − distinct points.
func (e *Engine) ProfileCacheStats() (hits, misses uint64) {
	return e.profileHits.Load(), e.profileMisses.Load()
}

// MemoStats returns the cumulative hit, miss and eviction counts of the
// whole memo.
func (e *Engine) MemoStats() (hits, misses, evictions uint64) {
	hits, misses = e.memo.Stats()
	return hits, misses, e.memo.Evictions()
}

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

// maxScenarios bounds a grid's size. At about 300 B per report point, a
// grid at the bound makes a report of about 80 MB, inside the store's
// 256 MiB upload limit; the paper-scale full cross product is about
// 2·10⁴ scenarios.
const maxScenarios = 1 << 18

// ScenarioCount returns how many scenarios the grid names, without
// enumerating them: the product of the axis lengths, where an empty
// extended axis counts 1 and a uniform grid's voltage axis counts 1.
// The product saturates at math.MaxInt.
func (s Spec) ScenarioCount() int {
	voltages := len(s.Voltages)
	if s.Uniform {
		voltages = 1
	}
	n := 1
	for _, l := range []int{voltages, len(s.BERs), len(s.Kinds), len(s.Policies),
		max(len(s.Bitwidths), 1), max(len(s.PruneLevels), 1), max(len(s.Encoders), 1)} {
		switch {
		case l == 0:
			return 0
		case n > math.MaxInt/l:
			n = math.MaxInt
		default:
			n *= l
		}
	}
	return n
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
	if n := s.ScenarioCount(); n > maxScenarios {
		return fmt.Errorf("engine: sweep spec names %d scenarios, more than the %d a grid may have", n, maxScenarios)
	}
	if !s.Uniform {
		for _, v := range s.Voltages {
			// Negated in-range tests, here and below, so NaN fails them.
			if !(v > 0 && v <= math.MaxFloat64) {
				return fmt.Errorf("engine: voltage %v in sweep spec is not positive and finite", v)
			}
		}
	}
	for _, b := range s.BERs {
		if !(b >= 0 && b <= 0.5) {
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
		if !(pr >= 0 && pr < 1) {
			return fmt.Errorf("engine: prune level %v outside [0, 1)", pr)
		}
	}
	for _, enc := range s.Encoders {
		if (enc.Name == "") != (enc.Coder == nil) {
			return fmt.Errorf("engine: encoder axis %q must set Name and Coder together", enc.Name)
		}
	}
	// Two scenarios share a key exactly when they share every segment
	// (see Key), so the grid names a point twice exactly when one axis
	// has two values with the same segment: each axis is checked on its
	// own, never the cross product. Uniform grids key every voltage as 0.
	voltages := s.Voltages
	if s.Uniform {
		voltages = nil
	}
	encoders := make([]string, len(s.Encoders))
	for i, enc := range s.Encoders {
		encoders[i] = enc.Name
	}
	return cmp.Or(
		distinctSegments("voltage", voltages, voltageSegment),
		distinctSegments("BER", s.BERs, berSegment),
		distinctSegments("error model", s.Kinds, kindSegment),
		distinctSegments("policy", s.Policies, policySegment),
		distinctSegments("bitwidth", s.Bitwidths, bitsSegment),
		distinctSegments("prune level", s.PruneLevels, pruneSegment),
		distinctSegments("encoder", encoders, encoderSegment))
}

// distinctSegments reports the first value of an axis whose key segment
// an earlier value already has.
func distinctSegments[T any](axis string, values []T, segment func(T) string) error {
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		seg := segment(v)
		if seen[seg] {
			return fmt.Errorf("engine: %s %v repeats in sweep spec (axis values collide at key precision)", axis, v)
		}
		seen[seg] = true
	}
	return nil
}

// cleanSet is one (stored format, prune level, image size) group's
// error-free state: the zero-padded image its (pruned) master weights
// serialize to, and the weights the network loads from that image.
// Both are read-only once built.
type cleanSet struct {
	img  []byte
	load []float32
}

// scratch is one pool slot's reusable evaluation state: a weight image
// that equals clean.img between scenarios, the bits the running scenario
// flipped in it, and the batched evaluator.
type scratch struct {
	clean *cleanSet // the group img holds; nil before the first scenario
	img   []byte
	flips []int64
	ev    *snn.Evaluator
}

// placement is one memoized layout and the energy replay of one
// inference pass over it at the device point's voltage (zero on uniform
// grids). effTh (the threshold Algorithm 2 settled on) and safe (the
// subarrays at or below it) are only meaningful for the sparkxd policy,
// whose memo key includes the threshold; the baseline layout is shared
// across BER points and its per-scenario threshold fields are derived
// by the caller instead.
type placement struct {
	layout   *mapping.Layout
	effTh    float64
	safe     int
	energyMJ float64
	hitRate  float64
}

// runState is what every scenario of one Run shares: its inputs and the
// digests that prefix its memo keys.
type runState struct {
	spec    Spec
	net     *snn.Network
	weights []float32 // master weights, read-only during the Run
	// model digests what the per-model work reads from net, test the
	// test set's images and labels (modelDigest, testDigest).
	model, test string
	// encSets maps encoder-axis names to the run-wide encoded test sets.
	encSets map[string]*snn.EncodedSet
}

// prep is one memoized (placement, prepared injector) entry. The
// placement is shared across error-model kinds through its own layout
// entry.
type prep struct {
	*placement
	inj *errmodel.Injector
}

// Run evaluates every scenario of the grid against the network and test
// set, and returns the results sorted by scenario key. Run only reads
// net and test, which must not change until it returns. Cancellation is
// checked at scenario boundaries. A failing Run returns the error of the
// lowest-key failing scenario, named by its key; a cancelled Run's error
// wraps ctx.Err().
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

	// Scenarios run and report in key order.
	type keyed struct {
		key string
		sc  Scenario
	}
	var scenarios []keyed
	for _, sc := range spec.Scenarios() {
		scenarios = append(scenarios, keyed{sc.Key(), sc})
	}
	slices.SortFunc(scenarios, func(a, b keyed) int { return strings.Compare(a.key, b.key) })

	// Parallelism splits across two levels: scenarios fan out over the
	// pool's slots, and each evaluation fans its drive precompute
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

	rs := &runState{
		spec:    spec,
		net:     net,
		weights: net.W.Data,
		model:   modelDigest(net),
		test:    testDigest(test),
	}
	if !e.sawModel(rs.model) {
		// Second sight: keep a model's memo entries only once it comes
		// back, so a model swept once (most service jobs) holds nothing.
		defer e.memo.DropPrefix(rs.model + "/")
	}

	// Every scenario of one encoder-axis point evaluates on the same
	// spike trains (paired evaluation, one shared EvalSeed), so each
	// distinct encoder's test set is encoded once and shared read-only
	// by all workers.
	encSets, err := e.encodedTestSets(ctx, rs, test, workers)
	if err != nil {
		return nil, fmt.Errorf("engine: encode test set: %w", err)
	}
	rs.encSets = encSets

	// Each slot owns one scratch set for the Run, built on its first
	// scenario; the sets are garbage once Run returns.
	slots := make([]*scratch, min(workers, len(scenarios)))
	out := make([]Result, len(scenarios))
	err = sched.ParallelFor(workers, len(scenarios), func(w, i int) error {
		key := scenarios[i].key
		// Scenario-boundary cancellation: a cancelled sweep stops before
		// deriving profiles or corrupting weights.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: scenario %s: %w", key, err)
		}
		if slots[w] == nil {
			slots[w] = &scratch{ev: snn.NewEvaluatorWorkers(net, evalWorkers)}
		}
		res, err := e.runScenario(ctx, rs, scenarios[i].sc, slots[w], rng.New(spec.Seed).Derive("job/"+key))
		if err != nil {
			return fmt.Errorf("engine: scenario %s: %w", key, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runScenario evaluates one grid point of rs's Run on the slot's scratch
// set s. r is the scenario's private stream, derived from its key.
func (e *Engine) runScenario(ctx context.Context, rs *runState, sc Scenario, s *scratch, r *rng.Stream) (Result, error) {
	spec := rs.spec
	format, err := formatForBits(sc.Bits, e.fw.Format)
	if err != nil {
		return Result{}, err
	}
	profile, err := e.profileFor(sc, spec)
	if err != nil {
		return Result{}, err
	}
	p, err := e.prepFor(sc, spec, profile, len(rs.weights), format)
	if err != nil {
		return Result{}, err
	}
	effTh, safe := p.effTh, p.safe
	if sc.Policy == PolicyBaseline {
		// The baseline placement is shared across BER points (the layout
		// does not depend on the threshold), so the per-scenario threshold
		// fields must be derived here, not read from the memo.
		effTh, safe = sc.BER, profile.SafeCount(sc.BER)
	}

	cs, err := e.cleanFor(rs, format, sc.Prune, format.ImageSize(len(rs.weights), p.layout.UnitBytes()))
	if err != nil {
		return Result{}, err
	}
	es := rs.encSets[sc.Encoder.Name]
	if es == nil {
		return Result{}, fmt.Errorf("engine: no encoded test set for encoder axis %q", sc.Encoder.Name)
	}

	if s.clean != cs {
		s.img = append(s.img[:0], cs.img...)
		s.clean = cs
	}
	// The image equals the clean image here, so Model 3 reads every weak
	// cell's clean value, exactly as on a freshly serialized image.
	s.flips = p.inj.InjectRecord(s.img, p.layout, r.Derive("inject"), s.flips[:0])
	defer func() {
		// XOR undoes itself: re-flipping the recorded bits restores the
		// clean image for the next scenario on this scratch.
		for _, b := range s.flips {
			quant.FlipBit(s.img, b)
		}
	}()
	flips := int64(len(s.flips))
	evaluate := func() (float64, error) {
		// Point the reused evaluator at the scenario's encoder so the
		// encoded-set identity check passes; evaluation itself reads only
		// the pre-encoded trains, so results do not depend on which
		// scenario last used this scratch.
		s.ev.SetEncoder(sc.Encoder.Coder)
		return s.ev.EvaluatePatched(ctx, es, cs.load, s.img, format, s.flips)
	}
	var acc float64
	if flips == 0 {
		// An image with no flipped bit is the clean image, whatever the
		// scenario's device point, policy or error model: every zero-flip
		// scenario of one (encoder, stored format, prune level) evaluates
		// identical weights on identical spike trains, so the first one
		// to get here evaluates for all, in this Run or an earlier one.
		key := fmt.Sprintf("%s/%s/seed%d/%s/eval/enc-%s/%s/pr%.4f",
			rs.model, rs.test, spec.EvalSeed, es.EncoderName(), sc.Encoder.Name, format, sc.Prune)
		v, err := e.memoGet(ctx, key, func() (any, error) { return evaluate() })
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
// per encoder-axis point, through the memo: trains depend only on the
// test set, the coder, the step count and EvalSeed, not on the network's
// weights or thresholds, so repeated sweeps of one test set — the
// serve/fleet steady state — encode each coder once. Every encoder
// expands the same EvalSeed root, so accuracies stay paired across the
// encoder axis.
func (e *Engine) encodedTestSets(ctx context.Context, rs *runState, test *dataset.Dataset, workers int) (map[string]*snn.EncodedSet, error) {
	axes := rs.spec.Encoders
	if len(axes) == 0 {
		axes = []EncoderAxis{{}}
	}
	out := make(map[string]*snn.EncodedSet, len(axes))
	for _, ax := range axes {
		coder := ax.Coder
		if coder == nil {
			coder = rs.net.Cfg.Encoder
		}
		key := fmt.Sprintf("%s/seed%d/%s/steps%d/encoded", rs.test, rs.spec.EvalSeed, coder.Name(), rs.net.Cfg.Steps)
		v, err := e.memoGet(ctx, key, func() (any, error) {
			return rs.net.EncodeDatasetWith(ctx, test, coder, rng.New(rs.spec.EvalSeed), workers)
		})
		if err != nil {
			return nil, err
		}
		out[ax.Name] = v.(*snn.EncodedSet)
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

// cleanFor returns the clean set of one (stored format, prune level,
// image size) group, single-flighted through the memo under the model
// digest. The load comes from the network's own decode, so it is exactly
// what a full load of the clean image gives.
func (e *Engine) cleanFor(rs *runState, format quant.Format, level float64, size int) (*cleanSet, error) {
	key := fmt.Sprintf("%s/clean/%s/pr%.4f/b%d", rs.model, format, level, size)
	v, err := e.memo.GetOrCompute(key, func() (any, error) {
		w, err := e.prunedWeights(rs, level)
		if err != nil {
			return nil, err
		}
		img := make([]byte, size) // padding stays zero
		if err := quant.Serialize(w, format, img); err != nil {
			return nil, fmt.Errorf("engine: serialize: %w", err)
		}
		load, err := rs.net.DecodeWeights(img, format)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		return &cleanSet{img: img, load: load}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cleanSet), nil
}

// prunedWeights returns the master weights with the given prune level
// applied, single-flighted per level through the memo under the model
// digest (the returned slice is shared read-only by every clean set of
// that level). Level 0 returns the master weights themselves.
func (e *Engine) prunedWeights(rs *runState, level float64) ([]float32, error) {
	if level == 0 {
		return rs.weights, nil
	}
	v, err := e.memo.GetOrCompute(fmt.Sprintf("%s/pruned/pr%.4f", rs.model, level), func() (any, error) {
		w := append([]float32(nil), rs.weights...)
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

// memoGet is memo.GetOrCompute for work that reads ctx. Concurrent Runs
// share in-flight entries, so a caller can receive the cancellation of
// another Run's context; the memo keeps no error, so a caller whose own
// context is live asks again and computes under its own.
func (e *Engine) memoGet(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	for {
		v, err := e.memo.GetOrCompute(key, fn)
		if err == nil || ctx.Err() != nil ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return v, err
		}
	}
}

// sawModel reports whether one of the last recentModels Runs swept the
// model with this digest, and records this Run as the most recent.
func (e *Engine) sawModel(model string) bool {
	e.recentMu.Lock()
	defer e.recentMu.Unlock()
	i := slices.Index(e.recent, model)
	if i >= 0 {
		e.recent = slices.Delete(e.recent, i, i+1)
	} else if len(e.recent) == recentModels {
		e.recent = slices.Delete(e.recent, 0, 1)
	}
	e.recent = append(e.recent, model)
	return i >= 0
}

// memoBytes is what a memo value is charged against memoBudget: its own
// bytes, not those of the values it shares (a prep entry's layout and
// profile have entries of their own).
func memoBytes(v any) int64 {
	switch v := v.(type) {
	case *errmodel.Profile:
		return 8 * int64(len(v.SubarrayBER))
	case *placement:
		return v.layout.Bytes()
	case *prep:
		return v.inj.Bytes()
	case []float32: // a pruned master
		return 4 * int64(len(v))
	case *cleanSet:
		return int64(len(v.img)) + 4*int64(len(v.load))
	case float64: // a zero-flip accuracy
		return 8
	case *snn.EncodedSet:
		return v.Bytes()
	}
	panic(fmt.Sprintf("engine: memo value of type %T", v))
}

// modelDigest is the hex SHA-256 of everything a Run's per-model work
// reads from net: the weights, the adaptive thresholds, the label
// assignment, every Config field and the encoder's name. Floats are
// hashed by their bits (math.Float32bits/Float64bits), so NaN payloads
// and −0 are told apart.
func modelDigest(net *snn.Network) string {
	d := newDigester()
	cfg := &net.Cfg
	lif := &cfg.LIF
	for _, v := range []int{cfg.Inputs, cfg.Neurons, cfg.Steps, lif.N, lif.RefractorySteps} {
		d.u64(uint64(v))
	}
	for _, v := range []float64{lif.DT, lif.TauM, lif.TauTheta, cfg.TauPre} {
		d.u64(math.Float64bits(v))
	}
	d.f32s([]float32{lif.VRest, lif.VReset, lif.VTh, lif.ThetaPlus, lif.VFloor,
		cfg.WMax, cfg.EtaPost, cfg.XTar, cfg.Inhibition, cfg.NormTarget})
	d.bytes([]byte(cfg.Encoder.Name()))
	d.f32s(net.W.Data)
	d.f32s(net.Pool.Theta)
	d.u64(uint64(len(net.Assign)))
	for _, c := range net.Assign {
		d.u64(uint64(c))
	}
	return d.sum()
}

// testDigest is the hex SHA-256 of a test set's images and labels.
func testDigest(test *dataset.Dataset) string {
	d := newDigester()
	d.u64(uint64(len(test.Images)))
	for _, img := range test.Images {
		d.bytes(img)
	}
	d.bytes(test.Labels)
	return d.sum()
}

// digester feeds length-prefixed values to a SHA-256 through a small
// buffer.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New(), buf: make([]byte, 0, 4096)} }

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *digester) u64(v uint64) {
	if len(d.buf)+8 > cap(d.buf) {
		d.flush()
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

// f32s hashes the floats' bits as they sit in memory: the digest names
// memo entries of this process only, so the host's byte order is as
// good as any, and hashing in place saves a conversion pass over the
// weights on every Run.
func (d *digester) f32s(v []float32) {
	d.u64(uint64(len(v)))
	d.flush()
	d.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v)))
}

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.flush()
	d.h.Write(b)
}

func (d *digester) sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

// devicePoint names the scenario's device point: its voltage, or its
// uniform BER on uniform grids, and the framework's device seed.
// Profiles depend on nothing else (ProfileAt and UniformProfile ignore
// the error-model kind).
func (e *Engine) devicePoint(sc Scenario, spec Spec) string {
	if spec.Uniform {
		return fmt.Sprintf("uniform/ber%.3e/seed%d", sc.BER, e.fw.DeviceSeed)
	}
	return fmt.Sprintf("v%.4f/seed%d", sc.Voltage, e.fw.DeviceSeed)
}

// profileFor returns the scenario's device profile through the memo,
// deriving it once per device point while its entry stays.
func (e *Engine) profileFor(sc Scenario, spec Spec) (*errmodel.Profile, error) {
	counter := &e.profileHits
	v, err := e.memo.GetOrCompute("profile/"+e.devicePoint(sc, spec), func() (any, error) {
		counter = &e.profileMisses
		if spec.Uniform {
			return errmodel.UniformProfile(e.fw.Geom, sc.BER, e.fw.DeviceSeed)
		}
		return e.fw.ProfileAt(sc.Voltage)
	})
	counter.Add(1)
	if err != nil {
		return nil, err
	}
	return v.(*errmodel.Profile), nil
}

// layoutKey names the scenario's placement by the device point (whose
// voltage the energy replay runs at, and whose profile decides which
// subarrays are safe for sparkxd) and exactly what LayoutForWeightsIn
// and MapAdaptiveWithProfileIn read: the policy, the stored format and
// weight count, and for sparkxd the requested threshold. The
// error-model kind is absent, so all kinds of one device point share one
// layout, and so is the prune level: pruned weights still occupy their
// cells.
func (e *Engine) layoutKey(sc Scenario, spec Spec, weightCount int, format quant.Format) string {
	key := fmt.Sprintf("layout/%s/%s/%s/n%d", e.devicePoint(sc, spec), sc.Policy, format, weightCount)
	if sc.Policy == PolicySparkXD {
		key = fmt.Sprintf("%s/th%.3e", key, sc.BER)
	}
	return key
}

// prepFor returns the scenario's (placement, prepared injector) pair
// through the memo, keyed by the kind and the layout key; the placement
// and its energy replay have an entry of their own under the layout
// key. Prepared injectors are read-only during Inject, so concurrent
// scenarios of the same device point and kind share one weak-cell
// derivation pass.
func (e *Engine) prepFor(sc Scenario, spec Spec, profile *errmodel.Profile, weightCount int, format quant.Format) (*prep, error) {
	layoutKey := e.layoutKey(sc, spec, weightCount, format)
	v, err := e.memo.GetOrCompute(fmt.Sprintf("prep/%s/%s", sc.Kind, layoutKey), func() (any, error) {
		v, err := e.memo.GetOrCompute(layoutKey, func() (any, error) {
			pl := &placement{}
			var err error
			if sc.Policy == PolicyBaseline {
				pl.layout, err = e.fw.LayoutForWeightsIn(format, weightCount, nil)
			} else if pl.layout, pl.effTh, err = e.fw.MapAdaptiveWithProfileIn(format, profile, weightCount, sc.BER); err == nil {
				pl.safe = profile.SafeCount(pl.effTh)
			}
			if err != nil || spec.Uniform {
				return pl, err
			}
			energy, err := e.fw.EvaluateEnergy(pl.layout, sc.Voltage)
			pl.energyMJ, pl.hitRate = energy.TotalMJ(), energy.Stats.HitRate()
			return pl, err
		})
		if err != nil {
			return nil, err
		}
		p := &prep{placement: v.(*placement), inj: errmodel.NewInjector(sc.Kind, profile)}
		p.inj.Prepare(p.layout)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*prep), nil
}
