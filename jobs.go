package sparkxd

import (
	"fmt"

	"sparkxd/internal/store"
)

// Job kinds accepted by JobSpec.Kind.
const (
	// JobPipeline runs the staged pipeline up to (and including)
	// JobSpec.Stage.
	JobPipeline = "pipeline"
	// JobSweep trains the fault-aware improved model and evaluates it
	// over the JobSpec.Sweep scenario grid.
	JobSweep = "sweep"
)

// Pipeline stage names accepted by JobSpec.Stage, in execution order.
var PipelineStages = []string{"train", "improve", "analyze", "map", "evaluate", "energy"}

// ConfigSpec is the JSON-serializable system configuration of a job: the
// wire form of the functional options New takes. Zero-valued fields mean
// "the paper default" (they are filled in by normalization, so two specs
// that resolve to the same configuration hash to the same job ID).
type ConfigSpec struct {
	Neurons      int    `json:"neurons,omitempty"`
	Dataset      string `json:"dataset,omitempty"`
	TrainSamples int    `json:"train_samples,omitempty"`
	TestSamples  int    `json:"test_samples,omitempty"`
	// BaseEpochs is the error-free training epoch count (0 = default).
	BaseEpochs int     `json:"base_epochs,omitempty"`
	Voltage    float64 `json:"voltage,omitempty"`
	// BERSchedule replaces the progressive fault-aware training schedule.
	BERSchedule []float64 `json:"ber_schedule,omitempty"`
	// AccBound is the tolerated accuracy drop (0 = default 1%).
	AccBound   float64 `json:"acc_bound,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	TrainSeed  uint64  `json:"train_seed,omitempty"`
	DeviceSeed uint64  `json:"device_seed,omitempty"`
	// ErrorModel names the EDEN error model ("uniform", "bitline",
	// "wordline", "data-dependent").
	ErrorModel string `json:"error_model,omitempty"`
	// Quantization names the stored weight format ("fp32", "fp16",
	// "q8.8").
	Quantization string `json:"quantization,omitempty"`
}

// normalized fills every zero-valued field with the paper default and
// canonicalizes enum names, so the spec hash is independent of how the
// caller spelled an equivalent configuration.
func (c ConfigSpec) normalized() (ConfigSpec, error) {
	def := defaultConfig()
	if c.Neurons == 0 {
		c.Neurons = def.neurons
	}
	if c.Dataset == "" {
		c.Dataset = MNIST.String()
	}
	d, err := ParseDataset(c.Dataset)
	if err != nil {
		return c, err
	}
	c.Dataset = d.String()
	if c.TrainSamples == 0 {
		c.TrainSamples = def.trainN
	}
	if c.TestSamples == 0 {
		c.TestSamples = def.testN
	}
	if c.BaseEpochs == 0 {
		c.BaseEpochs = def.baseEpochs
	}
	if c.Voltage == 0 {
		c.Voltage = def.voltage
	}
	if len(c.BERSchedule) == 0 {
		c.BERSchedule = append([]float64(nil), def.rates...)
	} else {
		c.BERSchedule = unsignedZeros(c.BERSchedule)
	}
	if c.AccBound == 0 {
		c.AccBound = def.accBound
	}
	if c.Seed == 0 {
		c.Seed = def.seed
	}
	if c.TrainSeed == 0 {
		c.TrainSeed = def.trainSeed
	}
	if c.DeviceSeed == 0 {
		c.DeviceSeed = def.deviceSeed
	}
	if c.ErrorModel == "" {
		c.ErrorModel = ErrorModelUniform.String()
	}
	em, err := ParseErrorModel(c.ErrorModel)
	if err != nil {
		return c, err
	}
	c.ErrorModel = em.String()
	if c.Quantization == "" {
		c.Quantization = FP32.String()
	}
	q, err := ParseQuantization(c.Quantization)
	if err != nil {
		return c, err
	}
	c.Quantization = q.String()
	return c, nil
}

// Options translates the spec into the functional options New takes.
func (c ConfigSpec) Options() ([]Option, error) {
	n, err := c.normalized()
	if err != nil {
		return nil, err
	}
	d, _ := ParseDataset(n.Dataset)
	em, _ := ParseErrorModel(n.ErrorModel)
	q, _ := ParseQuantization(n.Quantization)
	return []Option{
		WithNeurons(n.Neurons),
		WithDataset(d),
		WithSampleBudget(n.TrainSamples, n.TestSamples),
		WithBaseEpochs(n.BaseEpochs),
		WithVoltage(n.Voltage),
		WithBERSchedule(n.BERSchedule...),
		WithAccuracyBound(n.AccBound),
		WithSeed(n.Seed),
		WithTrainSeed(n.TrainSeed),
		WithDeviceSeed(n.DeviceSeed),
		WithErrorModel(em),
		WithQuantization(q),
	}, nil
}

// Fingerprint is the content hash of the normalized configuration: jobs
// with equal fingerprints can share one warm System (datasets, device
// profiles, sweep caches).
func (c ConfigSpec) Fingerprint() (string, error) {
	n, err := c.normalized()
	if err != nil {
		return "", err
	}
	key, err := store.KeyFor("system-config", n)
	if err != nil {
		return "", err
	}
	return key.Hash()[:32], nil
}

// JobSpec declares one unit of service work: a pipeline-stage run or a
// scenario sweep over one system configuration. Its normalized canonical
// JSON is the job's identity — see ID.
type JobSpec struct {
	// Kind is JobPipeline or JobSweep.
	Kind string `json:"kind"`
	// Config is the system configuration the job runs under.
	Config ConfigSpec `json:"config"`
	// Stage, for pipeline jobs, is the last stage to execute ("train",
	// "improve", "analyze", "map", "evaluate", "energy"; empty = the full
	// pipeline, i.e. "energy"). Must be empty for sweep jobs.
	Stage string `json:"stage,omitempty"`
	// Sweep, for sweep jobs, is the scenario grid (nil axes fall back to
	// the configuration, exactly as Pipeline.Sweep resolves them).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Priority orders dispatch: higher runs first, within
	// [MinPriority, MaxPriority]; 0 is the default. The queue ages
	// waiting jobs upward so low priorities cannot starve. omitempty
	// keeps priority-0 specs byte-identical to pre-priority specs, so
	// their job IDs are unchanged.
	Priority int `json:"priority,omitempty"`
}

// Priority bounds accepted by JobSpec.Priority. The range is validated,
// not clamped: clamping would silently merge jobs whose specs differ
// only in an out-of-range priority into one content-addressed ID.
const (
	MinPriority = -100
	MaxPriority = 100
)

// Normalized validates the spec and fills every defaulted field,
// returning the canonical form the job ID is derived from. Failures
// satisfy errors.Is(err, ErrInvalidJobSpec).
func (s JobSpec) Normalized() (JobSpec, error) {
	cfg, err := s.Config.normalized()
	if err != nil {
		return s, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	s.Config = cfg
	if s.Priority < MinPriority || s.Priority > MaxPriority {
		return s, fmt.Errorf("%w: priority %d outside [%d, %d]", ErrInvalidJobSpec, s.Priority, MinPriority, MaxPriority)
	}
	switch s.Kind {
	case JobPipeline:
		if s.Sweep != nil {
			return s, fmt.Errorf("%w: pipeline job must not carry a sweep grid", ErrInvalidJobSpec)
		}
		if s.Stage == "" {
			s.Stage = "energy"
		}
		if StageRank(s.Stage) < 0 {
			return s, fmt.Errorf("%w: unknown stage %q (valid: %v)", ErrInvalidJobSpec, s.Stage, PipelineStages)
		}
	case JobSweep:
		if s.Stage != "" {
			return s, fmt.Errorf("%w: sweep job must not set a stage", ErrInvalidJobSpec)
		}
		sw, err := s.normalizedSweep()
		if err != nil {
			return s, err
		}
		s.Sweep = sw
	case "":
		return s, fmt.Errorf("%w: missing kind (valid: %s, %s)", ErrInvalidJobSpec, JobPipeline, JobSweep)
	default:
		return s, fmt.Errorf("%w: unknown kind %q (valid: %s, %s)", ErrInvalidJobSpec, s.Kind, JobPipeline, JobSweep)
	}
	return s, nil
}

// normalizedSweep resolves the sweep grid's defaulted axes against the
// (already normalized) configuration, mirroring how Pipeline.Sweep
// resolves a zero-valued axis at run time.
func (s JobSpec) normalizedSweep() (*SweepSpec, error) {
	var sw SweepSpec
	if s.Sweep != nil {
		sw = *s.Sweep
	}
	sw.Workers = 0 // execution detail, never part of the job identity
	if len(sw.Voltages) == 0 {
		sw.Voltages = []float64{s.Config.Voltage}
	} else {
		sw.Voltages = unsignedZeros(sw.Voltages)
	}
	if len(sw.BERs) == 0 {
		sw.BERs = append([]float64(nil), s.Config.BERSchedule...)
	} else {
		sw.BERs = unsignedZeros(sw.BERs)
	}
	if len(sw.ErrorModels) == 0 {
		em, err := ParseErrorModel(s.Config.ErrorModel)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
		}
		sw.ErrorModels = []ErrorModel{em}
	} else {
		sw.ErrorModels = append([]ErrorModel(nil), sw.ErrorModels...)
	}
	if len(sw.Policies) == 0 {
		sw.Policies = []Policy{PolicySparkXD}
	} else {
		canon := make([]Policy, len(sw.Policies))
		for i, pol := range sw.Policies {
			p, err := ParsePolicy(string(pol))
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
			}
			canon[i] = p
		}
		sw.Policies = canon
	}
	// The extended axes normalize the other way: an omitted axis stays
	// nil (omitempty), and a spelled-out single-element axis equal to the
	// configured default elides back to nil, so both spellings hash to
	// the job ID a pre-N-axis spec produced.
	q, err := ParseQuantization(s.Config.Quantization)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	def, err := q.format()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	if sw.Bitwidths, err = canonBitwidthAxis(sw.Bitwidths, def); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	if sw.PruneLevels, err = canonPruneAxis(sw.PruneLevels); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	if sw.Encoders, err = canonEncoderAxis(sw.Encoders); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidJobSpec, err)
	}
	return &sw, nil
}

// ID derives the job's deterministic identity: the hex-truncated SHA-256
// of the normalized spec's canonical JSON. Submitting an identical spec
// therefore always addresses the same job — idempotent submission and
// free dedup fall out of content addressing.
func (s JobSpec) ID() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	key, err := store.KeyFor("job", n)
	if err != nil {
		return "", err
	}
	return key.Hash()[:32], nil
}

// JobRecordVersion is the schema version of persisted JobRecord
// payloads; loaders reject records written by a future layout.
const JobRecordVersion = 1

// JobRecord is the durable trace of one job: the persisted
// `jobID → spec (+ artifact keys)` entry that lets a restarted server
// (or a whole fleet sharing one store) serve a repeat submission from
// the store instead of re-executing it, and lets a replacement
// coordinator requeue work that was accepted but never finished.
// Records are stored like any other artifact (KindJobRecord,
// content-addressed), and because execution is deterministic in the
// spec, a re-executed job re-derives the identical record — persisting
// it twice is a no-op.
type JobRecord struct {
	// Version is JobRecordVersion at write time.
	Version int `json:"version"`
	// JobID is the deterministic spec hash the record belongs to.
	JobID string `json:"job_id"`
	// State is the record's snapshot of the job lifecycle: JobQueued
	// when the spec was accepted (persisted at admission so a failover
	// coordinator can requeue unfinished work) and JobDone when the job
	// completed with artifacts.
	State JobState `json:"state"`
	// Spec is the normalized spec the job executed.
	Spec JobSpec `json:"spec"`
	// Artifacts maps result roles to their content-addressed keys.
	Artifacts map[string]ArtifactKey `json:"artifacts,omitempty"`
	// TraceID is the trace the job ran under, when tracing recorded one.
	// Trace context lives here — on the record, out-of-band — and never
	// inside Spec, so job identity is byte-identical with tracing on or
	// off.
	TraceID string `json:"trace_id,omitempty"`
	// TraceKey is the content address of the job's assembled KindJobTrace
	// artifact (done/failed records only). Unlike Artifacts, the trace
	// payload carries wall-clock timings, so the key differs between
	// re-executions of the same job.
	TraceKey ArtifactKey `json:"trace_key,omitempty"`
}

// StageRank returns a pipeline stage's position in PipelineStages, or
// -1 for an unknown stage.
func StageRank(stage string) int {
	for i, s := range PipelineStages {
		if s == stage {
			return i
		}
	}
	return -1
}

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on the scheduler pool.
	JobRunning JobState = "running"
	// JobDone: finished; Artifacts holds the result keys.
	JobDone JobState = "done"
	// JobFailed: finished with an error.
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// JobStatus is the service's view of one job, as served by
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Error is the failure message of a JobFailed job.
	Error string `json:"error,omitempty"`
	// Artifacts maps result roles ("baseline", "improved", "tolerance",
	// "placement", "evaluation", "energy", "sweep") to their
	// content-addressed store keys.
	Artifacts map[string]ArtifactKey `json:"artifacts,omitempty"`
	// TraceID is the W3C trace ID the job's lifecycle is being recorded
	// under. It is service-side state (out-of-band), never part of the
	// spec or the job's identity; `sparkxd trace <jobID>` renders the
	// assembled trace once the job is terminal.
	TraceID string `json:"trace_id,omitempty"`
}
