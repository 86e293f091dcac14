package sparkxd

import (
	"context"
	"fmt"
	"os"
	"sync"

	"sparkxd/internal/core"
	"sparkxd/internal/dram"
	"sparkxd/internal/engine"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/power"
	"sparkxd/internal/rng"
	"sparkxd/internal/voltscale"
)

// Supply voltages of the paper's characterization (volts). VNominal is
// accurate DRAM; V1025 is the most aggressive approximate point.
const (
	VNominal = voltscale.VNominal
	V1100    = voltscale.V1100
	V1025    = voltscale.V1025
)

// PaperVoltages returns the supply voltages the paper evaluates,
// nominal first.
func PaperVoltages() []float64 { return voltscale.PaperVoltages() }

// ReducedVoltages returns the approximate-DRAM voltages (nominal
// excluded), highest first.
func ReducedVoltages() []float64 { return voltscale.ReducedVoltages() }

// Event is one structured progress notification; Observer receives them.
// See WithObserver.
type (
	Event    = core.Event
	Observer = core.Observer
)

// RatePoint is one (BER, accuracy) observation of a tolerance curve.
type RatePoint = core.RatePoint

// DeviceProfile is the per-subarray bit-error-rate characterization of
// one simulated device at one supply voltage. It serializes losslessly
// through encoding/json and offers MeanBER, MaxBER, SafeCount, and
// SafeSubarrays for inspection.
type DeviceProfile = errmodel.Profile

// System is a configured SparkXD instance: the simulated DRAM device,
// its circuit/power models, and the pipeline parameters. Create with
// New; a System is immutable after construction and safe for concurrent
// use by independent Pipelines.
type System struct {
	cfg config
	fw  *core.Framework

	// Datasets are deterministic in the immutable config; generate them
	// once and share across pipelines and System-level evaluations.
	dataOnce sync.Once
	dsTrain  *datasetT
	dsTest   *datasetT
	dsErr    error

	// The scenario-sweep engine is created on first use and shared by
	// every pipeline of the system, so repeated sweeps reuse the derived
	// device profiles and prepared placements.
	engOnce sync.Once
	eng     *engine.Engine
}

// New builds a System from the paper's defaults plus the given options.
func New(opts ...Option) (*System, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.dataDir == "" {
		cfg.dataDir = os.Getenv("SPARKXD_DATA_DIR")
	}
	fw := core.NewFramework()
	fw.ErrKind = cfg.errKind
	fw.Spread = cfg.spread
	fw.DeviceSeed = cfg.deviceSeed
	fw.Format = cfg.format
	// The sweep worker budget also parallelizes within single accuracy
	// evaluations (pipeline stages, tolerance analysis) — accuracy is
	// bit-identical for any value, so this only changes speed.
	fw.EvalWorkers = cfg.sweepWorkers
	fw.Observer = cfg.observer
	if err := fw.Validate(); err != nil {
		return nil, fmt.Errorf("sparkxd: %w", err)
	}
	return &System{cfg: cfg, fw: fw}, nil
}

// newConfig applies opts to the paper's defaults and validates the
// result: the configuration New builds a System from, and the one a job
// spec's configuration must resolve to.
func newConfig(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, fmt.Errorf("sparkxd: %w", err)
		}
	}
	if err := cfg.validate(); err != nil {
		return cfg, fmt.Errorf("sparkxd: %w", err)
	}
	return cfg, nil
}

// notify delivers an SDK-level event to the configured observer.
func (s *System) notify(ev Event) {
	if s.cfg.observer != nil {
		s.cfg.observer(ev)
	}
}

// Pipeline returns a fresh pipeline over this system with no artifacts
// populated. Assign persisted artifacts to its fields to resume from a
// checkpoint instead of recomputing earlier stages.
func (s *System) Pipeline() *Pipeline { return &Pipeline{sys: s} }

// sweepEngine returns the system's shared scenario-sweep engine.
func (s *System) sweepEngine() *engine.Engine {
	s.engOnce.Do(func() { s.eng = engine.New(s.fw) })
	return s.eng
}

// SweepCacheStats returns the cumulative hit/miss counts of the sweep
// engine's device-profile cache. Profiles are derived once per distinct
// (voltage, error model) device point: after one Sweep over an N-scenario
// grid with D distinct device points, misses == D and hits == N − D.
func (s *System) SweepCacheStats() (hits, misses uint64) {
	return s.sweepEngine().ProfileCacheStats()
}

// SweepMemoStats returns the cumulative hit, miss and eviction counts of
// the sweep engine's memo of per-model and per-test-set work (pruned
// weights, clean images and loads, zero-flip accuracies, encoded test
// sets), which repeated sweeps of one model share. Evictions count the
// values its fixed byte budget did not keep.
func (s *System) SweepMemoStats() (hits, misses, evictions uint64) {
	return s.sweepEngine().MemoStats()
}

// DeviceProfile characterizes the simulated device at a supply voltage:
// per-subarray BERs drawn with the system's spread and device seed.
func (s *System) DeviceProfile(v float64) (*DeviceProfile, error) {
	p, err := s.fw.ProfileAt(v)
	if err != nil {
		return nil, wrapStage("profile", err)
	}
	return p, nil
}

// OperatingPoint is the circuit/power characterization of one supply
// voltage (the data behind the paper's Fig. 6 and Table I).
type OperatingPoint struct {
	Voltage float64 `json:"voltage"`
	// Row timings in nanoseconds (stretched as voltage drops).
	TRCDns float64 `json:"trcd_ns"`
	TRASns float64 `json:"tras_ns"`
	TRPns  float64 `json:"trp_ns"`
	// RawBER is the device bit error rate before subarray spread.
	RawBER float64 `json:"raw_ber"`
	// Per-access energies by row-buffer condition, in nanojoules.
	HitEnergyNJ      float64 `json:"hit_energy_nj"`
	MissEnergyNJ     float64 `json:"miss_energy_nj"`
	ConflictEnergyNJ float64 `json:"conflict_energy_nj"`
}

// Characterize returns the operating point of the device at a supply
// voltage.
func (s *System) Characterize(v float64) OperatingPoint {
	return OperatingPoint{
		Voltage:          v,
		TRCDns:           s.fw.Circuit.TRCD(v),
		TRASns:           s.fw.Circuit.TRAS(v),
		TRPns:            s.fw.Circuit.TRP(v),
		RawBER:           s.fw.Circuit.BER(v),
		HitEnergyNJ:      s.fw.Power.AccessEnergyNJ(dram.AccessHit, v),
		MissEnergyNJ:     s.fw.Power.AccessEnergyNJ(dram.AccessMiss, v),
		ConflictEnergyNJ: s.fw.Power.AccessEnergyNJ(dram.AccessConflict, v),
	}
}

// EvaluateModelAtBER measures a trained model's accuracy when its
// weights pass through approximate DRAM with a uniform bit error rate
// (baseline mapping, the system's fixed weak cells). Pass the same
// evalSeed across calls for paired evaluation on identical spike trains.
func (s *System) EvaluateModelAtBER(ctx context.Context, m *TrainedModel,
	ber float64, injectSeed, evalSeed uint64) (float64, error) {
	if m == nil || m.net == nil {
		return 0, missingArtifact("EvaluateModelAtBER", "a trained model", "run Train or load a checkpoint")
	}
	test, err := s.testSet()
	if err != nil {
		return 0, wrapStage("evaluate", err)
	}
	layout, err := s.fw.LayoutFor(m.net, nil)
	if err != nil {
		return 0, wrapStage("evaluate", err)
	}
	profile, err := errmodel.UniformProfile(s.fw.Geom, ber, s.fw.DeviceSeed)
	if err != nil {
		return 0, wrapStage("evaluate", err)
	}
	acc, err := s.fw.EvaluateUnderErrorsCtx(ctx, m.net, test, layout, profile, injectSeed, evalSeed)
	if err != nil {
		return 0, wrapStage("evaluate", err)
	}
	return acc, nil
}

// Policy selects a weight-to-DRAM mapping policy.
type Policy string

const (
	// PolicyBaseline places units sequentially (row-major fill).
	PolicyBaseline Policy = "baseline"
	// PolicySparkXD places units with Algorithm 2: safe subarrays only,
	// row-hit maximizing, bank interleaved.
	PolicySparkXD Policy = "sparkxd"
)

// TraceCommand is one DRAM command of a replayed access stream, as
// delivered to StreamRequest.OnCommand.
type TraceCommand struct {
	AtNs float64
	Kind string // ACT, PRE, RD, REF, ...
	Bank string
	Row  int
	Col  int
}

// StreamRequest parameterizes StreamEnergy: place a weight image of
// WeightCount weights with Policy, replay one inference weight-streaming
// pass at Voltage, and integrate DRAM energy. For PolicySparkXD, BERth
// is the tolerance threshold; it is relaxed (doubled) as needed until
// the safe subarrays can hold the image.
type StreamRequest struct {
	WeightCount int
	Policy      Policy
	Voltage     float64
	BERth       float64
	// OnCommand, when non-nil, receives every DRAM command of the replay
	// in issue order.
	OnCommand func(TraceCommand)
}

// StreamStats is the outcome of one StreamEnergy replay: the access
// census, command tally, timing, and DRAMPower-style energy breakdown.
type StreamStats struct {
	Voltage        float64 `json:"voltage"`
	Policy         Policy  `json:"policy"`
	EffectiveBERth float64 `json:"effective_ber_th,omitempty"`

	Accesses  int64 `json:"accesses"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Conflicts int64 `json:"conflicts"`

	NACT int64 `json:"n_act"`
	NPRE int64 `json:"n_pre"`
	NRD  int64 `json:"n_rd"`
	NREF int64 `json:"n_ref"`

	MakespanNs     float64 `json:"makespan_ns"`
	BusUtilization float64 `json:"bus_utilization"`
	HitRate        float64 `json:"hit_rate"`

	BanksUsed     int `json:"banks_used"`
	SubarraysUsed int `json:"subarrays_used"`

	Energy EnergyBreakdown `json:"energy"`
}

// EnergyBreakdown itemizes DRAM energy by command class, in nanojoules,
// with TotalNJ/TotalMJ helpers.
type EnergyBreakdown = power.Breakdown

// StreamEnergy runs a standalone approximate-DRAM simulation of one
// inference weight-streaming pass (the cmd/dramsim workload). It needs
// no trained model — only an image size and a policy.
func (s *System) StreamEnergy(ctx context.Context, req StreamRequest) (*StreamStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapStage("stream", err)
	}
	if req.WeightCount <= 0 {
		return nil, wrapStage("stream", fmt.Errorf("weight count must be positive, got %d", req.WeightCount))
	}
	var (
		layout *layoutT
		effTh  float64
		err    error
	)
	switch req.Policy {
	case PolicyBaseline, "":
		layout, err = s.fw.LayoutForWeights(req.WeightCount, nil)
	case PolicySparkXD:
		layout, _, effTh, err = s.fw.MapWeightsAdaptive(req.WeightCount, req.Voltage, req.BERth)
	default:
		err = fmt.Errorf("unknown policy %q", req.Policy)
	}
	if err != nil {
		return nil, wrapStage("stream", err)
	}
	ctl, err := memctrl.New(s.fw.Geom, s.fw.Circuit.Timing(req.Voltage))
	if err != nil {
		return nil, wrapStage("stream", err)
	}
	if req.OnCommand != nil {
		ctl.OnCommand = func(cmd dram.Command, atNs float64) {
			req.OnCommand(TraceCommand{
				AtNs: atNs,
				Kind: cmd.Kind.String(),
				Bank: fmt.Sprintf("%v", cmd.Bank),
				Row:  cmd.Row,
				Col:  cmd.Col,
			})
		}
	}
	stats := ctl.ReplayReads(layout.AccessStream())
	return &StreamStats{
		Voltage:        req.Voltage,
		Policy:         Policy(layout.Policy),
		EffectiveBERth: effTh,
		Accesses:       stats.Accesses(),
		Hits:           stats.Hits,
		Misses:         stats.Misses,
		Conflicts:      stats.Conflicts,
		NACT:           stats.Tally.NACT,
		NPRE:           stats.Tally.NPRE,
		NRD:            stats.Tally.NRD,
		NREF:           stats.Tally.NREF,
		MakespanNs:     stats.TotalNs,
		BusUtilization: stats.BusUtilization(),
		HitRate:        stats.HitRate(),
		BanksUsed:      layout.BanksUsed(),
		SubarraysUsed:  layout.SubarraysUsed(),
		Energy:         s.fw.Power.Energy(stats.Tally, req.Voltage),
	}, nil
}

// testSet regenerates the system's test dataset (deterministic in the
// configuration, so resumed pipelines see the same samples).
func (s *System) testSet() (*datasetT, error) {
	_, test, err := s.datasets()
	return test, err
}

// newRNG derives a fresh stream from the system seed (exposed for the
// pipeline stages).
func (s *System) newRNG() *rng.Stream { return rng.New(s.cfg.seed) }
