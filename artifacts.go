package sparkxd

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"sparkxd/internal/mapping"
	"sparkxd/internal/snn"
	"sparkxd/internal/store"
)

// TrainedModel is the persistable outcome of the training stages: a
// trained SNN (baseline or fault-aware improved), the configuration it
// was trained under, and the training observations later stages need.
// It round-trips losslessly through encoding/json, so a checkpoint can
// be saved after ImproveTolerance and reloaded to resume Map and
// EvaluateUnderErrors without retraining.
type TrainedModel struct {
	// Stage is "baseline" (error-free training only) or "improved"
	// (after Algorithm 1).
	Stage string
	// Dataset names the flavour the model was trained on.
	Dataset string
	// Neurons is the excitatory population size.
	Neurons int
	// Seed is the network seed the model was trained with.
	Seed uint64
	// TrainSamples/TestSamples are the sample budgets the model was
	// trained and measured under (the test budget anchors BaselineAcc).
	TrainSamples int
	TestSamples  int
	// BaseEpochs is the number of error-free training epochs of the
	// baseline (zero in a model persisted before it was recorded).
	BaseEpochs int
	// BaselineAcc is the error-free accuracy of the baseline model
	// (acc0 of Algorithm 1; zero until ImproveTolerance measures it).
	BaselineAcc float64
	// BERth is the provisional maximum tolerable BER observed during
	// Algorithm 1 (refined by AnalyzeTolerance; zero for baseline models).
	BERth float64
	// Curve is the per-rate accuracy observed during Algorithm 1.
	Curve []RatePoint

	net *snn.Network
}

type trainedModelJSON struct {
	Stage        string          `json:"stage"`
	Dataset      string          `json:"dataset"`
	Neurons      int             `json:"neurons"`
	Seed         uint64          `json:"seed"`
	TrainSamples int             `json:"train_samples,omitempty"`
	TestSamples  int             `json:"test_samples,omitempty"`
	BaseEpochs   int             `json:"base_epochs,omitempty"`
	BaselineAcc  float64         `json:"baseline_acc"`
	BERth        float64         `json:"ber_th"`
	Curve        []RatePoint     `json:"curve,omitempty"`
	Checkpoint   *snn.Checkpoint `json:"checkpoint"`
}

// MarshalJSON implements json.Marshaler.
func (m *TrainedModel) MarshalJSON() ([]byte, error) {
	if m.net == nil {
		return nil, errors.New("sparkxd: cannot serialize a TrainedModel without a network")
	}
	cp, err := m.net.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("sparkxd: checkpoint: %w", err)
	}
	return json.Marshal(trainedModelJSON{
		Stage:        m.Stage,
		Dataset:      m.Dataset,
		Neurons:      m.Neurons,
		Seed:         m.Seed,
		TrainSamples: m.TrainSamples,
		TestSamples:  m.TestSamples,
		BaseEpochs:   m.BaseEpochs,
		BaselineAcc:  m.BaselineAcc,
		BERth:        m.BERth,
		Curve:        m.Curve,
		Checkpoint:   cp,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *TrainedModel) UnmarshalJSON(b []byte) error {
	var raw trainedModelJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("sparkxd: trained model: %w", err)
	}
	net, err := snn.FromCheckpoint(raw.Checkpoint)
	if err != nil {
		return fmt.Errorf("sparkxd: trained model: %w", err)
	}
	*m = TrainedModel{
		Stage:        raw.Stage,
		Dataset:      raw.Dataset,
		Neurons:      raw.Neurons,
		Seed:         raw.Seed,
		TrainSamples: raw.TrainSamples,
		TestSamples:  raw.TestSamples,
		BaseEpochs:   raw.BaseEpochs,
		BaselineAcc:  raw.BaselineAcc,
		BERth:        raw.BERth,
		Curve:        raw.Curve,
		net:          net,
	}
	return nil
}

// WeightCount returns the number of synaptic weights stored in DRAM.
func (m *TrainedModel) WeightCount() int {
	if m.net == nil {
		return 0
	}
	return m.net.WeightCount()
}

// ToleranceReport is the outcome of AnalyzeTolerance (Sec. IV-C): the
// maximum tolerable BER and the full tolerance curve of the model it
// analyzed.
type ToleranceReport struct {
	// BaselineAcc is the error-free accuracy the bound is anchored to.
	BaselineAcc float64 `json:"baseline_acc"`
	// AccBound is the tolerated accuracy drop.
	AccBound float64 `json:"acc_bound"`
	// BERth is the maximum tolerable bit error rate.
	BERth float64 `json:"ber_th"`
	// Curve is the (BER, accuracy) tolerance curve (Fig. 8).
	Curve []RatePoint `json:"curve"`
}

// Placement is the outcome of Map (Algorithm 2): which policy placed the
// weight image at which voltage under which threshold, plus the device
// profile it was derived from. The DRAM layout itself is recomputed
// deterministically from these fields on demand, so a Placement persists
// compactly and a reloaded Placement drives EvaluateUnderErrors and
// EnergyReport bit-identically.
type Placement struct {
	// Voltage is the supply voltage the device was characterized at.
	Voltage float64 `json:"voltage"`
	// RequestedBERth is the tolerance threshold Map was asked for.
	RequestedBERth float64 `json:"requested_ber_th"`
	// EffectiveBERth is the threshold actually used (MapAdaptive may
	// relax it until the image fits).
	EffectiveBERth float64 `json:"effective_ber_th"`
	// Policy is the mapping policy ("sparkxd" or "baseline").
	Policy Policy `json:"policy"`
	// WeightCount sizes the placed weight image.
	WeightCount int `json:"weight_count"`
	// Profile is the device error profile the safe set came from.
	Profile *DeviceProfile `json:"profile"`

	layout *mapping.Layout // lazily rebuilt after deserialization
}

type placementJSON Placement // strips the methods, keeps the JSON tags

// MarshalJSON implements json.Marshaler.
func (p *Placement) MarshalJSON() ([]byte, error) {
	return json.Marshal((*placementJSON)(p))
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Placement) UnmarshalJSON(b []byte) error {
	var raw placementJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("sparkxd: placement: %w", err)
	}
	*p = Placement(raw)
	p.layout = nil
	return nil
}

// SafeSubarrayCount returns how many subarrays satisfy the effective
// threshold.
func (p *Placement) SafeSubarrayCount() int {
	if p.Profile == nil {
		return 0
	}
	return p.Profile.SafeCount(p.EffectiveBERth)
}

// Evaluation is the outcome of EvaluateUnderErrors: the improved model's
// accuracy when its weights stream through the placed approximate DRAM.
type Evaluation struct {
	Voltage float64 `json:"voltage"`
	// BERth is the effective tolerance threshold of the placement.
	BERth float64 `json:"ber_th"`
	// BaselineAcc is the error-free accuracy of the baseline model.
	BaselineAcc float64 `json:"baseline_acc"`
	// Accuracy is the accuracy under injected DRAM errors.
	Accuracy float64 `json:"accuracy"`
}

// EnergyPoint is one energy/performance measurement of a replayed
// inference pass.
type EnergyPoint struct {
	Voltage        float64 `json:"voltage"`
	Policy         Policy  `json:"policy"`
	TotalMJ        float64 `json:"total_mj"`
	HitRate        float64 `json:"hit_rate"`
	MakespanNs     float64 `json:"makespan_ns"`
	BusUtilization float64 `json:"bus_utilization"`
}

// EnergyReport compares DRAM energy of the baseline mapping at nominal
// voltage against the SparkXD placement at the reduced voltage (the
// Fig. 12 comparison).
type EnergyReport struct {
	Baseline EnergyPoint `json:"baseline"`
	SparkXD  EnergyPoint `json:"sparkxd"`
	// Savings is the fractional DRAM energy saving of SparkXD.
	Savings float64 `json:"savings"`
	// Speedup is baseline makespan / SparkXD makespan at matched
	// (nominal) timing — the pure mapping effect.
	Speedup float64 `json:"speedup"`
}

// Result bundles every artifact of a full pipeline run.
type Result struct {
	Baseline   *TrainedModel    `json:"baseline"`
	Improved   *TrainedModel    `json:"improved"`
	Tolerance  *ToleranceReport `json:"tolerance"`
	Placement  *Placement       `json:"placement"`
	Evaluation *Evaluation      `json:"evaluation"`
	Energy     *EnergyReport    `json:"energy"`
}

// Artifact kinds of the content-addressed store (the envelope's kind
// field and the prefix of every artifact key).
const (
	KindTrainedModel    = "trained-model"
	KindToleranceReport = "tolerance-report"
	KindPlacement       = "placement"
	KindEvaluation      = "evaluation"
	KindEnergyReport    = "energy-report"
	KindSweepReport     = "sweep-report"
	KindJobRecord       = "job-record"
	KindJobTrace        = "job-trace"
)

// The artifact store surface, re-exported from internal/store. An
// ArtifactKey is "<kind>/<sha256-of-canonical-json>"; every stored
// artifact lives in a typed ArtifactEnvelope {kind, schemaVersion,
// payload}. See DESIGN.md §8 for the key scheme.
type (
	ArtifactStore    = store.Store
	ArtifactKey      = store.Key
	ArtifactInfo     = store.Info
	ArtifactEnvelope = store.Envelope
)

// OpenStore opens an artifact store named by location: an http:// or
// https:// URL opens a remote store speaking the artifact wire protocol
// (see RemoteStore); anything else opens (creating if needed) a
// filesystem store rooted at that directory. Every -store/-artifacts/
// -resume flag accepting a directory therefore accepts a remote store
// URL too.
func OpenStore(location string) (ArtifactStore, error) {
	if IsStoreURL(location) {
		return RemoteStore(location)
	}
	st, err := store.NewFS(location)
	if err != nil {
		return nil, fmt.Errorf("sparkxd: %w", err)
	}
	return st, nil
}

// IsStoreURL reports whether a store location names a remote store
// (http:// or https://) rather than a local directory.
func IsStoreURL(location string) bool {
	return strings.HasPrefix(location, "http://") || strings.HasPrefix(location, "https://")
}

// RemoteStore opens an artifact store served over HTTP at baseURL —
// `sparkxd store serve` or any coordinator's /v1/artifacts endpoints.
// Reads re-verify content addresses end to end, writes are idempotent
// PUTs, and transient failures retry with jittered backoff.
func RemoteStore(baseURL string, opts ...store.HTTPOption) (ArtifactStore, error) {
	st, err := store.NewHTTP(baseURL, opts...)
	if err != nil {
		return nil, fmt.Errorf("sparkxd: %w", err)
	}
	return st, nil
}

// ReadThroughStore layers a local cache over a remote store: Gets served
// locally when possible, fetched remotely (and cached) otherwise, and
// Puts written through to the remote. Safe because artifacts are
// immutable content-addressed envelopes.
func ReadThroughStore(local, remote ArtifactStore) ArtifactStore {
	return store.NewReadThrough(local, remote)
}

// MemoryStore returns an in-memory artifact store (tests, ephemeral
// servers).
func MemoryStore() ArtifactStore { return store.NewMem() }

// ArtifactKind reports the store kind an artifact value is stored under.
func ArtifactKind(artifact any) (string, error) {
	switch artifact.(type) {
	case *TrainedModel:
		return KindTrainedModel, nil
	case *ToleranceReport:
		return KindToleranceReport, nil
	case *Placement:
		return KindPlacement, nil
	case *Evaluation:
		return KindEvaluation, nil
	case *EnergyReport:
		return KindEnergyReport, nil
	case *SweepReport:
		return KindSweepReport, nil
	case *JobRecord:
		return KindJobRecord, nil
	case *JobTrace:
		return KindJobTrace, nil
	default:
		return "", fmt.Errorf("sparkxd: %T is not a storable artifact", artifact)
	}
}

// PutArtifact stores a pipeline artifact under its content address and
// returns the key. Storing the same artifact value twice returns the
// same key.
func PutArtifact(st ArtifactStore, artifact any) (ArtifactKey, error) {
	kind, err := ArtifactKind(artifact)
	if err != nil {
		return "", err
	}
	key, err := st.Put(kind, artifact)
	if err != nil {
		return "", fmt.Errorf("sparkxd: %w", err)
	}
	return key, nil
}

// GetTrainedModel fetches a TrainedModel from the store by key.
func GetTrainedModel(st ArtifactStore, key ArtifactKey) (*TrainedModel, error) {
	return getArtifact[TrainedModel](st, key, KindTrainedModel)
}

// GetToleranceReport fetches a ToleranceReport from the store by key.
func GetToleranceReport(st ArtifactStore, key ArtifactKey) (*ToleranceReport, error) {
	return getArtifact[ToleranceReport](st, key, KindToleranceReport)
}

// GetPlacement fetches a Placement from the store by key.
func GetPlacement(st ArtifactStore, key ArtifactKey) (*Placement, error) {
	return getArtifact[Placement](st, key, KindPlacement)
}

// GetEvaluation fetches an Evaluation from the store by key.
func GetEvaluation(st ArtifactStore, key ArtifactKey) (*Evaluation, error) {
	return getArtifact[Evaluation](st, key, KindEvaluation)
}

// GetEnergyReport fetches an EnergyReport from the store by key.
func GetEnergyReport(st ArtifactStore, key ArtifactKey) (*EnergyReport, error) {
	return getArtifact[EnergyReport](st, key, KindEnergyReport)
}

// GetSweepReport fetches a SweepReport from the store by key.
func GetSweepReport(st ArtifactStore, key ArtifactKey) (*SweepReport, error) {
	return getArtifact[SweepReport](st, key, KindSweepReport)
}

// GetJobRecord fetches a JobRecord from the store by key.
func GetJobRecord(st ArtifactStore, key ArtifactKey) (*JobRecord, error) {
	return getArtifact[JobRecord](st, key, KindJobRecord)
}

// GetJobTrace fetches a JobTrace from the store by key.
func GetJobTrace(st ArtifactStore, key ArtifactKey) (*JobTrace, error) {
	return getArtifact[JobTrace](st, key, KindJobTrace)
}

// getArtifact fetches and decodes one artifact, translating store
// failures to the public sentinels: a missing key satisfies
// errors.Is(err, ErrMissingArtifact), an untrustworthy envelope
// errors.Is(err, ErrCorruptArtifact).
func getArtifact[T any](st ArtifactStore, key ArtifactKey, wantKind string) (*T, error) {
	env, err := st.Get(key)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			return nil, fmt.Errorf("%w: %w", ErrMissingArtifact, err)
		case errors.Is(err, store.ErrCorrupt):
			return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
		}
		return nil, fmt.Errorf("sparkxd: %w", err)
	}
	var v T
	if err := env.Decode(wantKind, &v); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	return &v, nil
}
