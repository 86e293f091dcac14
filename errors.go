package sparkxd

import (
	"context"
	"errors"
	"fmt"

	"sparkxd/internal/mapping"
)

// Sentinel errors of the public API. Wrapped causes stay inspectable:
// errors.Is(err, ErrCancelled) and errors.Is(err, context.Canceled) are
// both true for a cancelled stage, and ErrNoSafeSubarrays carries the
// internal mapping diagnosis beneath it.
var (
	// ErrCancelled marks a pipeline stage that stopped because its
	// context was cancelled or timed out.
	ErrCancelled = errors.New("sparkxd: cancelled")

	// ErrNoSafeSubarrays is returned by Map when the subarrays whose BER
	// stays below the tolerance threshold cannot hold the weight image at
	// the requested voltage. MapAdaptive relaxes the threshold instead.
	ErrNoSafeSubarrays = errors.New("sparkxd: safe subarrays cannot hold the model")

	// ErrMissingArtifact is returned by a pipeline stage whose input
	// artifact is absent — run the producing stage first, or assign a
	// persisted artifact to the pipeline before resuming.
	ErrMissingArtifact = errors.New("sparkxd: required pipeline artifact missing")

	// ErrInvalidSweep is returned by Pipeline.Sweep when the SweepSpec
	// does not describe a runnable grid (empty axis after defaulting,
	// out-of-range BER, unknown policy or error model, axis values that
	// collide at scenario-key precision, or more than 2^18 scenarios).
	ErrInvalidSweep = errors.New("sparkxd: invalid sweep spec")

	// ErrCorruptArtifact is returned by the artifact loaders and typed
	// store getters when the stored bytes cannot be trusted: truncated or
	// malformed JSON, an envelope whose kind disagrees with the requested
	// artifact type, or a payload that fails integrity checks. The
	// underlying cause (e.g. a *json.SyntaxError) stays inspectable with
	// errors.As.
	ErrCorruptArtifact = errors.New("sparkxd: corrupt artifact")

	// ErrInvalidJobSpec is returned when a JobSpec cannot be normalized
	// into a runnable job: an unknown kind, stage or name, a configuration
	// New refuses, or a sweep grid Pipeline.Sweep refuses.
	ErrInvalidJobSpec = errors.New("sparkxd: invalid job spec")
)

// wrapStage normalizes an error escaping a pipeline stage: cancellation
// and capacity failures are tagged with their public sentinels, and every
// error is prefixed with the stage that produced it.
func wrapStage(stage string, err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("sparkxd: %s: %w: %w", stage, ErrCancelled, err)
	case errors.Is(err, mapping.ErrInsufficientSafeCapacity):
		return fmt.Errorf("sparkxd: %s: %w: %w", stage, ErrNoSafeSubarrays, err)
	default:
		return fmt.Errorf("sparkxd: %s: %w", stage, err)
	}
}

// invalidSweep tags a sweep-spec validation failure with its sentinel.
func invalidSweep(err error) error {
	return fmt.Errorf("sparkxd: sweep: %w: %w", ErrInvalidSweep, err)
}

// missingArtifact builds an ErrMissingArtifact with stage guidance.
func missingArtifact(stage, want, hint string) error {
	return fmt.Errorf("%w: %s needs %s (%s)", ErrMissingArtifact, stage, want, hint)
}
