package sparkxd

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/quant"
	"sparkxd/internal/voltscale"
)

// Dataset selects the synthetic dataset flavour the pipeline trains and
// evaluates on.
type Dataset int

const (
	// MNIST generates well-separated stroke digits (the paper's primary
	// benchmark).
	MNIST Dataset = iota
	// Fashion generates overlapping textured garment-like patches (the
	// harder benchmark).
	Fashion
)

// String names the dataset.
func (d Dataset) String() string {
	if d == Fashion {
		return "fashion"
	}
	return "mnist"
}

func (d Dataset) flavor() (dataset.Flavor, error) {
	switch d {
	case MNIST:
		return dataset.MNISTLike, nil
	case Fashion:
		return dataset.FashionLike, nil
	default:
		return 0, fmt.Errorf("unknown dataset %d", int(d))
	}
}

// datasetName maps an internal flavour back to its public name.
func datasetName(fl dataset.Flavor) string {
	if fl == dataset.FashionLike {
		return Fashion.String()
	}
	return MNIST.String()
}

// DatasetNames enumerates the dataset names ParseDataset accepts.
func DatasetNames() []string { return []string{"mnist", "fashion"} }

// ParseDataset maps a CLI-style name ("mnist", "fashion") to a Dataset.
// Matching is case-insensitive ("MNIST" and "Fashion" parse too).
func ParseDataset(name string) (Dataset, error) {
	switch canonName(name) {
	case "mnist":
		return MNIST, nil
	case "fashion":
		return Fashion, nil
	default:
		return 0, fmt.Errorf("sparkxd: unknown dataset %q (valid: %s)", name, strings.Join(DatasetNames(), ", "))
	}
}

// canonName lowercases and trims a user-supplied enum name.
func canonName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// ErrorModel selects the EDEN-style approximate-DRAM error model.
type ErrorModel int

const (
	// ErrorModelUniform distributes bit errors uniformly over a bank
	// (EDEN model 0, the paper's default).
	ErrorModelUniform ErrorModel = iota
	// ErrorModelBitline clusters errors on weak bitlines (model 1).
	ErrorModelBitline
	// ErrorModelWordline clusters errors on weak wordlines (model 2).
	ErrorModelWordline
	// ErrorModelDataDependent makes failure probability depend on the
	// stored bit (model 3).
	ErrorModelDataDependent
)

// String names the error model ("uniform", "bitline", "wordline",
// "data-dependent").
func (m ErrorModel) String() string {
	switch m {
	case ErrorModelUniform:
		return "uniform"
	case ErrorModelBitline:
		return "bitline"
	case ErrorModelWordline:
		return "wordline"
	case ErrorModelDataDependent:
		return "data-dependent"
	default:
		return fmt.Sprintf("ErrorModel(%d)", int(m))
	}
}

// ErrorModelNames enumerates the error-model names ParseErrorModel
// accepts (the "data" shorthand for "data-dependent" excluded).
func ErrorModelNames() []string {
	return []string{"uniform", "bitline", "wordline", "data-dependent"}
}

// ParseErrorModel maps a CLI-style name ("uniform", "bitline",
// "wordline", "data-dependent") to an ErrorModel. Matching is
// case-insensitive.
func ParseErrorModel(name string) (ErrorModel, error) {
	switch canonName(name) {
	case "uniform":
		return ErrorModelUniform, nil
	case "bitline":
		return ErrorModelBitline, nil
	case "wordline":
		return ErrorModelWordline, nil
	case "data-dependent", "data":
		return ErrorModelDataDependent, nil
	default:
		return 0, fmt.Errorf("sparkxd: unknown error model %q (valid: %s)", name, strings.Join(ErrorModelNames(), ", "))
	}
}

// MarshalJSON encodes the error model by name, so job specs and other
// JSON surfaces read "uniform" instead of an opaque integer.
func (m ErrorModel) MarshalJSON() ([]byte, error) {
	if _, err := m.kind(); err != nil {
		return nil, fmt.Errorf("sparkxd: %w", err)
	}
	return json.Marshal(m.String())
}

// UnmarshalJSON decodes an error model from its name (case-insensitive).
func (m *ErrorModel) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("sparkxd: error model: %w", err)
	}
	parsed, err := ParseErrorModel(name)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

func (m ErrorModel) kind() (errmodel.Kind, error) {
	switch m {
	case ErrorModelUniform:
		return errmodel.Model0, nil
	case ErrorModelBitline:
		return errmodel.Model1, nil
	case ErrorModelWordline:
		return errmodel.Model2, nil
	case ErrorModelDataDependent:
		return errmodel.Model3, nil
	default:
		return 0, fmt.Errorf("unknown error model %d", int(m))
	}
}

// errorModelOf maps an error-model kind back to its ErrorModel: the
// inverse of kind.
func errorModelOf(k errmodel.Kind) ErrorModel {
	switch k {
	case errmodel.Model0:
		return ErrorModelUniform
	case errmodel.Model1:
		return ErrorModelBitline
	case errmodel.Model2:
		return ErrorModelWordline
	case errmodel.Model3:
		return ErrorModelDataDependent
	default:
		return -1 // no ErrorModel has this kind, and kind rejects -1
	}
}

// PolicyNames enumerates the mapping-policy names ParsePolicy accepts.
func PolicyNames() []string {
	return []string{string(PolicyBaseline), string(PolicySparkXD)}
}

// ParsePolicy maps a CLI-style name ("baseline", "sparkxd") to a mapping
// Policy. Matching is case-insensitive.
func ParsePolicy(name string) (Policy, error) {
	switch canonName(name) {
	case string(PolicyBaseline):
		return PolicyBaseline, nil
	case string(PolicySparkXD):
		return PolicySparkXD, nil
	default:
		return "", fmt.Errorf("sparkxd: unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
	}
}

// Quantization selects the stored weight representation.
type Quantization int

const (
	// FP32 is IEEE-754 binary32 (the paper's format).
	FP32 Quantization = iota
	// FP16 is IEEE-754 binary16.
	FP16
	// Q88 is signed 8.8 fixed point.
	Q88
)

// String names the quantization ("fp32", "fp16", "q8.8").
func (q Quantization) String() string {
	switch q {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case Q88:
		return "q8.8"
	default:
		return fmt.Sprintf("Quantization(%d)", int(q))
	}
}

// QuantizationNames enumerates the names ParseQuantization accepts.
func QuantizationNames() []string { return []string{"fp32", "fp16", "q8.8"} }

// ParseQuantization maps a CLI-style name ("fp32", "fp16", "q8.8") to a
// Quantization. Matching is case-insensitive.
func ParseQuantization(name string) (Quantization, error) {
	switch canonName(name) {
	case "fp32":
		return FP32, nil
	case "fp16":
		return FP16, nil
	case "q8.8", "q88":
		return Q88, nil
	default:
		return 0, fmt.Errorf("sparkxd: unknown quantization %q (valid: %s)", name, strings.Join(QuantizationNames(), ", "))
	}
}

func (q Quantization) format() (quant.Format, error) {
	switch q {
	case FP32:
		return quant.FP32, nil
	case FP16:
		return quant.FP16, nil
	case Q88:
		return quant.Q88, nil
	default:
		return 0, fmt.Errorf("unknown quantization %d", int(q))
	}
}

// config is the resolved configuration a System is built from.
type config struct {
	neurons    int
	flavor     dataset.Flavor
	trainN     int
	testN      int
	baseEpochs int

	voltage       float64
	rates         []float64
	epochsPerRate int
	accBound      float64

	seed      uint64 // network + dataset seed
	trainSeed uint64 // Algorithm 1 schedule seed

	errKind    errmodel.Kind
	spread     float64
	deviceSeed uint64
	format     quant.Format

	sweepWorkers int

	dataDir string

	observer Observer
}

// defaultConfig mirrors the paper's setup at laptop-fast budgets: the
// LPDDR3-1600 4Gb device, EDEN model 0, FP32 weights, the 1e-9..1e-3
// progressive BER schedule, and the most aggressive 1.025 V operating
// point.
func defaultConfig() config {
	return config{
		neurons:       400,
		flavor:        dataset.MNISTLike,
		trainN:        300,
		testN:         128,
		baseEpochs:    2,
		voltage:       voltscale.V1025,
		rates:         []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3},
		epochsPerRate: 1,
		accBound:      0.01,
		seed:          1,
		trainSeed:     7,
		errKind:       errmodel.Model0,
		spread:        errmodel.DefaultSpread,
		deviceSeed:    0xD0C5EED,
		format:        quant.FP32,
	}
}

func (c *config) validate() error {
	switch {
	case c.neurons <= 0:
		return errors.New("neuron count must be positive")
	case c.trainN <= 0 || c.testN <= 0:
		return errors.New("sample budgets must be positive")
	case c.baseEpochs < 0:
		return errors.New("base epochs must be non-negative")
	case c.voltage <= 0:
		return errors.New("supply voltage must be positive")
	case len(c.rates) == 0:
		return errors.New("BER schedule must not be empty")
	case c.epochsPerRate <= 0:
		return errors.New("epochs per rate must be positive")
	case c.accBound < 0:
		return errors.New("accuracy bound must be non-negative")
	case c.spread < 0:
		return errors.New("BER spread must be non-negative")
	}
	for i := 1; i < len(c.rates); i++ {
		if c.rates[i] <= c.rates[i-1] {
			return errors.New("BER schedule must be strictly increasing")
		}
	}
	return nil
}

// Option configures a System under construction.
type Option func(*config) error

// WithNeurons sets the excitatory neuron count (the paper evaluates
// 400–3600).
func WithNeurons(n int) Option {
	return func(c *config) error { c.neurons = n; return nil }
}

// WithDataset selects the dataset flavour.
func WithDataset(d Dataset) Option {
	return func(c *config) error {
		fl, err := d.flavor()
		if err != nil {
			return err
		}
		c.flavor = fl
		return nil
	}
}

// WithSampleBudget sets the training and test sample counts.
func WithSampleBudget(train, test int) Option {
	return func(c *config) error { c.trainN, c.testN = train, test; return nil }
}

// WithBaseEpochs sets the number of error-free training epochs before
// fault-aware training starts.
func WithBaseEpochs(n int) Option {
	return func(c *config) error { c.baseEpochs = n; return nil }
}

// WithVoltage sets the approximate-DRAM supply voltage the improved
// model is mapped and evaluated at.
func WithVoltage(v float64) Option {
	return func(c *config) error { c.voltage = v; return nil }
}

// WithBERSchedule replaces Algorithm 1's increasing bit-error-rate
// schedule (also the tolerance-analysis sweep).
func WithBERSchedule(rates ...float64) Option {
	return func(c *config) error {
		c.rates = append([]float64(nil), rates...)
		return nil
	}
}

// WithEpochsPerRate sets Nepoch of Algorithm 1.
func WithEpochsPerRate(n int) Option {
	return func(c *config) error { c.epochsPerRate = n; return nil }
}

// WithAccuracyBound sets the tolerated accuracy drop versus the
// error-free baseline (the paper uses 1% = 0.01).
func WithAccuracyBound(b float64) Option {
	return func(c *config) error { c.accBound = b; return nil }
}

// WithSeed sets the seed driving network initialization and baseline
// training.
func WithSeed(seed uint64) Option {
	return func(c *config) error { c.seed = seed; return nil }
}

// WithTrainSeed sets the seed driving error injection and spike encoding
// during fault-aware training and tolerance analysis.
func WithTrainSeed(seed uint64) Option {
	return func(c *config) error { c.trainSeed = seed; return nil }
}

// WithDeviceSeed pins the weak-cell locations of the simulated device.
func WithDeviceSeed(seed uint64) Option {
	return func(c *config) error { c.deviceSeed = seed; return nil }
}

// WithErrorModel selects the EDEN error model.
func WithErrorModel(m ErrorModel) Option {
	return func(c *config) error {
		k, err := m.kind()
		if err != nil {
			return err
		}
		c.errKind = k
		return nil
	}
}

// WithBERSpread sets the per-subarray lognormal BER sigma of
// voltage-derived profiles (0 = uniform device).
func WithBERSpread(sigma float64) Option {
	return func(c *config) error { c.spread = sigma; return nil }
}

// WithQuantization selects the stored weight representation.
func WithQuantization(q Quantization) Option {
	return func(c *config) error {
		f, err := q.format()
		if err != nil {
			return err
		}
		c.format = f
		return nil
	}
}

// WithSweepWorkers sets the default worker-pool size Pipeline.Sweep
// fans scenarios out over when the SweepSpec leaves Workers unset
// (<= 0 means GOMAXPROCS). Sweep results are byte-identical for any
// worker count; this only tunes wall-clock time.
func WithSweepWorkers(n int) Option {
	return func(c *config) error { c.sweepWorkers = n; return nil }
}

// WithDataDir points the system at a directory of real MNIST-format IDX
// files (train-images-idx3-ubyte and friends, plain or gzipped, probed
// under dir/<dataset>/ then dir). When the files are present they
// replace the synthetic generator, truncated to the configured sample
// budgets; when absent the deterministic synthetic flavour is used as
// always. Unset falls back to the SPARKXD_DATA_DIR environment
// variable. The directory is an execution detail: it never enters job
// identities, so the same sweep spec hashes the same with or without it.
func WithDataDir(dir string) Option {
	return func(c *config) error { c.dataDir = dir; return nil }
}

// WithObserver subscribes a hook to the pipeline's structured progress
// events. Observers are called synchronously; keep them fast.
func WithObserver(obs Observer) Option {
	return func(c *config) error { c.observer = obs; return nil }
}
