package snn

import (
	"errors"
	"fmt"

	"sparkxd/internal/coding"
	"sparkxd/internal/neuron"
	"sparkxd/internal/numeric"
)

// Checkpoint is the serializable state of a trained network: everything
// needed to rebuild it exactly — configuration, DRAM-resident weights,
// adaptive thresholds, and neuron-class assignments. All fields are plain
// values, so a checkpoint round-trips through encoding/json losslessly
// (float32 weights survive because JSON numbers carry enough decimal
// digits for an exact binary32 round-trip via float64).
type Checkpoint struct {
	Inputs  int `json:"inputs"`
	Neurons int `json:"neurons"`
	Steps   int `json:"steps"`

	LIF neuron.LIFConfig `json:"lif"`

	WMax       float32 `json:"w_max"`
	EtaPost    float32 `json:"eta_post"`
	XTar       float32 `json:"x_tar"`
	TauPre     float64 `json:"tau_pre"`
	Inhibition float32 `json:"inhibition"`
	NormTarget float32 `json:"norm_target"`

	// Encoder identifies the spike encoder ("rate" is the only encoder a
	// checkpoint can carry today; EncoderMaxProb is its parameter).
	Encoder        string  `json:"encoder"`
	EncoderMaxProb float64 `json:"encoder_max_prob"`

	Weights []float32 `json:"weights"`
	Theta   []float32 `json:"theta"`
	Assign  []int     `json:"assign"`
}

// Checkpoint captures the network's state. Only rate-coded networks (the
// paper's configuration) are checkpointable; other encoders have no
// serial form yet.
func (n *Network) Checkpoint() (*Checkpoint, error) {
	rate, ok := n.Cfg.Encoder.(coding.Rate)
	if !ok {
		return nil, fmt.Errorf("snn: encoder %q has no checkpoint form", n.Cfg.Encoder.Name())
	}
	c := &Checkpoint{
		Inputs:         n.Cfg.Inputs,
		Neurons:        n.Cfg.Neurons,
		Steps:          n.Cfg.Steps,
		LIF:            n.Cfg.LIF,
		WMax:           n.Cfg.WMax,
		EtaPost:        n.Cfg.EtaPost,
		XTar:           n.Cfg.XTar,
		TauPre:         n.Cfg.TauPre,
		Inhibition:     n.Cfg.Inhibition,
		NormTarget:     n.Cfg.NormTarget,
		Encoder:        "rate",
		EncoderMaxProb: rate.MaxProb,
		Weights:        append([]float32(nil), n.W.Data...),
		Theta:          append([]float32(nil), n.Pool.Theta...),
		Assign:         append([]int(nil), n.Assign...),
	}
	return c, nil
}

// FromCheckpoint rebuilds a network from its serialized state. The
// result is indistinguishable from the network that produced the
// checkpoint: weights, thresholds, and assignments are restored exactly.
func FromCheckpoint(c *Checkpoint) (*Network, error) {
	if c == nil {
		return nil, errors.New("snn: nil checkpoint")
	}
	if c.Encoder != "rate" {
		return nil, fmt.Errorf("snn: unknown checkpoint encoder %q", c.Encoder)
	}
	cfg := Config{
		Inputs:     c.Inputs,
		Neurons:    c.Neurons,
		Steps:      c.Steps,
		LIF:        c.LIF,
		WMax:       c.WMax,
		EtaPost:    c.EtaPost,
		XTar:       c.XTar,
		TauPre:     c.TauPre,
		Inhibition: c.Inhibition,
		NormTarget: c.NormTarget,
		Encoder:    coding.Rate{MaxProb: c.EncoderMaxProb},
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("snn: invalid checkpoint config: %w", err)
	}
	if want := cfg.Inputs * cfg.Neurons; len(c.Weights) != want {
		return nil, fmt.Errorf("snn: checkpoint has %d weights, want %d", len(c.Weights), want)
	}
	if len(c.Theta) != cfg.Neurons {
		return nil, fmt.Errorf("snn: checkpoint has %d thresholds, want %d", len(c.Theta), cfg.Neurons)
	}
	if len(c.Assign) != cfg.Neurons {
		return nil, fmt.Errorf("snn: checkpoint has %d assignments, want %d", len(c.Assign), cfg.Neurons)
	}
	pool, err := neuron.NewPool(cfg.LIF)
	if err != nil {
		return nil, fmt.Errorf("snn: checkpoint LIF config: %w", err)
	}
	copy(pool.Theta, c.Theta)
	w := numeric.NewMatrix(cfg.Inputs, cfg.Neurons)
	copy(w.Data, c.Weights)
	return newNetwork(cfg, w, pool, append([]int(nil), c.Assign...)), nil
}
