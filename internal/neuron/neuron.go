// Package neuron implements the Leaky Integrate-and-Fire (LIF) neuron
// pool with adaptive thresholds used by the SNN architecture of the paper
// (Fig. 4(b)): the membrane potential rises when presynaptic input
// arrives, decays exponentially otherwise, fires a postsynaptic spike on
// reaching the threshold, then resets and enters a refractory period.
//
// The adaptive threshold (theta) implements the homeostasis of
// Diehl&Cook-style unsupervised SNNs: every spike raises the neuron's own
// threshold by ThetaPlus, and theta decays slowly, forcing neurons to
// take turns and specialize instead of a few neurons dominating.
package neuron

import (
	"errors"
	"math"

	"sparkxd/internal/numeric"
)

// LIFConfig parameterizes a pool of LIF neurons. Times are in
// milliseconds; potentials are in arbitrary membrane units.
type LIFConfig struct {
	N               int     // number of neurons
	DT              float64 // simulation timestep (ms)
	TauM            float64 // membrane time constant (ms)
	VRest           float32 // resting potential
	VReset          float32 // post-spike reset potential
	VTh             float32 // base firing threshold
	ThetaPlus       float32 // adaptive threshold increment per spike
	TauTheta        float64 // adaptive threshold decay constant (ms)
	RefractorySteps int     // steps a neuron stays silent after a spike
	VFloor          float32 // lower clamp for inhibition-driven potentials
}

// DefaultLIF returns the configuration used by the experiments.
func DefaultLIF(n int) LIFConfig {
	return LIFConfig{
		N:               n,
		DT:              1.0,
		TauM:            20.0,
		VRest:           0.0,
		VReset:          0.0,
		VTh:             10.0,
		ThetaPlus:       0.25,
		TauTheta:        4000.0,
		RefractorySteps: 2,
		VFloor:          -10.0,
	}
}

// Validate reports whether the configuration is usable. The float
// checks are written so that NaN fails them.
func (c LIFConfig) Validate() error {
	switch {
	case c.N <= 0:
		return errors.New("neuron: N must be positive")
	case !(c.DT > 0) || !(c.TauM > 0) || !(c.TauTheta > 0):
		return errors.New("neuron: time constants must be positive")
	case !(c.VTh > c.VReset):
		return errors.New("neuron: threshold must exceed reset potential")
	case c.RefractorySteps < 0:
		return errors.New("neuron: negative refractory period")
	case !(c.ThetaPlus >= 0):
		return errors.New("neuron: negative theta increment")
	}
	return nil
}

// Pool is a vectorized population of LIF neurons. Create with NewPool.
type Pool struct {
	Cfg LIFConfig

	V      []float32 // membrane potentials
	Theta  []float32 // adaptive threshold offsets
	refrac []int32   // remaining refractory steps

	decayV     float32 // exp(-dt/tauM)
	decayTheta float32 // exp(-dt/tauTheta)
}

// NewPool allocates a pool at resting state.
func NewPool(cfg LIFConfig) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{
		Cfg:        cfg,
		V:          make([]float32, cfg.N),
		Theta:      make([]float32, cfg.N),
		refrac:     make([]int32, cfg.N),
		decayV:     float32(math.Exp(-cfg.DT / cfg.TauM)),
		decayTheta: float32(math.Exp(-cfg.DT / cfg.TauTheta)),
	}
	for i := range p.V {
		p.V[i] = cfg.VRest
	}
	return p, nil
}

// ResetState returns membranes and refractory counters to rest without
// touching the adaptive thresholds (theta persists across samples, which
// is what makes homeostasis work across a training run).
func (p *Pool) ResetState() {
	for i := range p.V {
		p.V[i] = p.Cfg.VRest
		p.refrac[i] = 0
	}
}

// Step advances the pool one timestep, then applies lateral inhibition
// of the given strength to the neurons that did not fire, as
// Inhibit(spikes, inhibition) does. input[j] is the synaptic drive
// accumulated for neuron j this step. spikesOut is an optional reusable
// buffer; the returned slice lists the indices of neurons that fired, in
// ascending order. Pass a buffer with capacity of at least N: the AVX2
// body writes into it directly and allocates a new one when it is
// smaller.
//
// The loop is written for throughput — state slices and config scalars
// are hoisted into locals so the compiler can keep them in registers and
// elide bounds checks — but every floating-point operation happens in
// the same order as the straightforward scalar form, so results are
// bit-identical to it (TestStepMatchesScalarReference and FuzzStep pin
// this). With AVX2 in use (numeric.AVX2), neurons [0, N&^7) run eight
// per block in assembly, each lane doing that same scalar work, and the
// Go loop handles the last N%8. The inhibition then runs as one more
// assembly pass over all N neurons; other builds call Inhibit.
func (p *Pool) Step(input []float32, inhibition float32, spikesOut []int32) []int32 {
	n := p.Cfg.N
	if len(input) != n {
		panic("neuron: input length mismatch")
	}
	spikes := spikesOut[:0]
	V := p.V
	theta := p.Theta
	refrac := p.refrac
	if len(V) != n || len(theta) != n || len(refrac) != n {
		panic("neuron: state length mismatch")
	}
	var (
		rest       = p.Cfg.VRest
		reset      = p.Cfg.VReset
		vth        = p.Cfg.VTh
		floor      = p.Cfg.VFloor
		thetaPlus  = p.Cfg.ThetaPlus
		refSteps   = int32(int16(p.Cfg.RefractorySteps)) // wraps above 32767, so every accepted config keeps its results
		decayV     = p.decayV
		decayTheta = p.decayTheta
	)
	kernel := numeric.AVX2() && n >= 8
	j := 0
	if kernel {
		if cap(spikes) < n {
			spikes = make([]int32, 0, n)
		}
		j = n &^ 7
		k := stepAVX2(V[:j], theta[:j], input[:j], refrac[:j], spikes[:n],
			rest, reset, vth, floor, thetaPlus, decayV, decayTheta, refSteps)
		spikes = spikes[:k]
	}
	for ; j < n; j++ {
		// Theta decays every step regardless of refractory state.
		th := theta[j] * decayTheta
		theta[j] = th

		if refrac[j] > 0 {
			refrac[j]--
			V[j] = reset
			continue
		}
		// Exponential leak toward rest, then integrate input.
		v := rest + (V[j]-rest)*decayV + input[j]
		if v < floor {
			v = floor
		}
		if v >= vth+th {
			spikes = append(spikes, int32(j))
			v = reset
			refrac[j] = refSteps
			theta[j] = th + thetaPlus
		}
		V[j] = v
	}
	switch {
	case !kernel:
		p.Inhibit(spikes, inhibition)
	case len(spikes) > 0 && inhibition != 0:
		inhibitAVX2(V, spikes, inhibition*float32(len(spikes)), floor, reset)
	}
	return spikes
}

// Inhibit applies lateral inhibition: every neuron except those listed in
// winners has `strength` subtracted from its membrane (clamped at VFloor).
// This is the paper's Fig. 4(a) inhibitory feedback loop, collapsed to
// its effective one-step form (exc -> inh -> exc with one-to-one
// excitation and all-to-others inhibition).
//
// winners must be in strictly ascending order, as Step returns its
// spikes: the pass walks them alongside the membranes, so it is
// O(N + len(winners)) instead of O(N * len(winners)) and needs no
// scratch; the applied arithmetic is unchanged, so membranes stay
// bit-identical to the scalar form.
//
// Step applies this inhibition to its own spikes, so the SNN never
// calls Inhibit; it is the Go body of Step's inhibition in builds
// without AVX2, and the form Step's assembly pass is tested against.
func (p *Pool) Inhibit(winners []int32, strength float32) {
	if len(winners) == 0 || strength == 0 {
		return
	}
	sub := strength * float32(len(winners))
	floor := p.Cfg.VFloor
	V := p.V
	next := 0 // winners[next] is the first winner not yet passed
	for j := range V {
		if next < len(winners) && int(winners[next]) == j {
			next++
			continue
		}
		v := V[j] - sub
		if v < floor {
			v = floor
		}
		V[j] = v
	}
}
