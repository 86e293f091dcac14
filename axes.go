package sparkxd

// The extended scenario axes (stored-weight bitwidth, prune level, spike
// encoder) share one resolution rule across every layer: an omitted axis
// means "the configured default", and a spelled-out axis that equals the
// default is canonicalized back to omitted, so the two spellings produce
// byte-identical job IDs, scenario keys, and sweep artifacts.

import (
	"fmt"
	"strings"

	"sparkxd/internal/coding"
)

// Encoder selects the spike encoder of a sweep's encoder axis.
type Encoder string

const (
	// EncoderRate is stochastic Poisson rate coding (the paper's default
	// and the encoder every network trains with).
	EncoderRate Encoder = "rate"
	// EncoderRateDet is deterministic evenly-spaced rate coding.
	EncoderRateDet Encoder = "rate-det"
	// EncoderTTFS is time-to-first-spike latency coding.
	EncoderTTFS Encoder = "ttfs"
	// EncoderRankOrder is rank-order coding.
	EncoderRankOrder Encoder = "rank-order"
	// EncoderPhase is phase (bit-plane) coding.
	EncoderPhase Encoder = "phase"
	// EncoderBurst is burst coding.
	EncoderBurst Encoder = "burst"
)

// EncoderNames enumerates the encoder names ParseEncoder accepts
// (aliases excluded).
func EncoderNames() []string {
	return []string{
		string(EncoderRate), string(EncoderRateDet), string(EncoderTTFS),
		string(EncoderRankOrder), string(EncoderPhase), string(EncoderBurst),
	}
}

// ParseEncoder maps a CLI-style name to an Encoder. Matching is
// case-insensitive, and the long-form names of internal/coding
// ("rate-poisson", "rate-deterministic", "time-to-first-spike") are
// accepted as aliases.
func ParseEncoder(name string) (Encoder, error) {
	switch canonName(name) {
	case string(EncoderRate), "poisson", "rate-poisson":
		return EncoderRate, nil
	case string(EncoderRateDet), "deterministic", "rate-deterministic":
		return EncoderRateDet, nil
	case string(EncoderTTFS), "time-to-first-spike":
		return EncoderTTFS, nil
	case string(EncoderRankOrder), "rankorder":
		return EncoderRankOrder, nil
	case string(EncoderPhase):
		return EncoderPhase, nil
	case string(EncoderBurst):
		return EncoderBurst, nil
	default:
		return "", fmt.Errorf("sparkxd: unknown encoder %q (valid: %s)", name, strings.Join(EncoderNames(), ", "))
	}
}

// coder constructs the encoder's internal/coding implementation with its
// default parameters.
func (e Encoder) coder() (coding.Encoder, error) {
	switch e {
	case EncoderRate:
		return coding.NewRate(), nil
	case EncoderRateDet:
		return coding.NewDeterministicRate(), nil
	case EncoderTTFS:
		return coding.TTFS{}, nil
	case EncoderRankOrder:
		return coding.NewRankOrder(), nil
	case EncoderPhase:
		return coding.Phase{}, nil
	case EncoderBurst:
		return coding.NewBurst(), nil
	default:
		return nil, fmt.Errorf("sparkxd: unknown encoder %q (valid: %s)", string(e), strings.Join(EncoderNames(), ", "))
	}
}

// BitwidthValues enumerates the stored-weight bitwidths ParseBitwidth
// accepts.
func BitwidthValues() []int { return []int{16, 32} }

// ParseBitwidth maps a sweep-axis bitwidth to its Quantization (16 =
// FP16, 32 = FP32). Fixed-point Q8.8 shares a bitwidth with FP16 and is
// reachable only through WithQuantization, never through the axis.
func ParseBitwidth(bits int) (Quantization, error) {
	switch bits {
	case 16:
		return FP16, nil
	case 32:
		return FP32, nil
	default:
		return 0, fmt.Errorf("sparkxd: unsupported bitwidth %d (valid: 16, 32)", bits)
	}
}

// ValidatePruneLevel reports whether level is a usable prune-axis value:
// a pruned weight fraction in [0, 1) (1 would zero every weight).
func ValidatePruneLevel(level float64) error {
	if !(level >= 0 && level < 1) { // negated so NaN fails it
		return fmt.Errorf("sparkxd: prune level %v outside [0, 1)", level)
	}
	return nil
}

// ErrorModelName is the stable scenario-vocabulary name of an EDEN error
// model as it appears in scenario keys and sweep artifacts
// ("model0-uniform", "model3-data-dependent", …) — the typed form of the
// report's error-model axis. It is distinct from ErrorModel's spec names
// ("uniform", …), which predate the artifacts and cannot change without
// breaking job identities.
type ErrorModelName string

// Model maps the scenario-vocabulary name back to its ErrorModel;
// spec-style names ("uniform") are accepted too, so old and new artifact
// spellings both resolve.
func (n ErrorModelName) Model() (ErrorModel, error) {
	switch canonName(string(n)) {
	case "model0-uniform":
		return ErrorModelUniform, nil
	case "model1-bitline":
		return ErrorModelBitline, nil
	case "model2-wordline":
		return ErrorModelWordline, nil
	case "model3-data-dependent":
		return ErrorModelDataDependent, nil
	}
	return ParseErrorModel(string(n))
}

// ScenarioName returns the error model's scenario-vocabulary name (the
// spelling used in scenario keys and sweep artifacts).
func (m ErrorModel) ScenarioName() (ErrorModelName, error) {
	k, err := m.kind()
	if err != nil {
		return "", fmt.Errorf("sparkxd: %w", err)
	}
	return ErrorModelName(k.String()), nil
}

// elideDefault returns nil for an axis that is empty or holds only its
// default value, and the axis otherwise.
func elideDefault[T comparable](axis []T, def T) []T {
	if len(axis) == 0 || len(axis) == 1 && axis[0] == def {
		return nil
	}
	return axis
}

// unsignedZeros returns a copy of xs with every −0 written as 0. The two
// are one physical point, but they format and encode differently, so a
// −0 left in an axis would give that point a second scenario key, random
// stream and job ID.
func unsignedZeros(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x != 0 {
			out[i] = x
		}
	}
	return out
}
