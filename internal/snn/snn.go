// Package snn implements the spiking neural network of the paper's
// evaluation (Sec. II-A, Fig. 4(a)): the state-of-the-art unsupervised
// architecture of Diehl & Cook, as used by FSpiNN (ref [7]):
//
//   - every input pixel connects to all excitatory neurons through
//     plastic synapses (the weights stored in DRAM);
//   - each excitatory spike drives lateral inhibition onto all other
//     neurons, creating winner-take-all competition;
//   - neurons are LIF with adaptive thresholds (homeostasis);
//   - learning is spike-timing-dependent plasticity (STDP) on the
//     input->excitatory synapses, with per-neuron weight normalization;
//   - after unsupervised training, each neuron is assigned the class it
//     responds to most, and inference predicts the class whose assigned
//     neurons spike most.
//
// This is the substrate that SparkXD's fault-aware training (package
// core) retrains under injected DRAM bit errors.
package snn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/neuron"
	"sparkxd/internal/numeric"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
)

// Config parameterizes a network.
type Config struct {
	Inputs  int // input neurons (pixels)
	Neurons int // excitatory neurons
	Steps   int // timesteps per sample presentation

	LIF neuron.LIFConfig

	// STDP parameters: on a postsynaptic spike of neuron j,
	//   w[i][j] += EtaPost * (xpre[i] - XTar) * (WMax - w[i][j])
	// where xpre is the presynaptic trace (1 at a spike, exponential decay
	// with TauPre). Inputs that were recently active are potentiated;
	// silent inputs are depressed toward zero — the Diehl&Cook rule.
	WMax    float32
	EtaPost float32
	XTar    float32
	TauPre  float64 // ms

	// Inhibition is the lateral inhibition strength per winner spike.
	Inhibition float32

	// NormTarget is the per-neuron incoming weight sum enforced after
	// every training sample (synaptic scaling).
	NormTarget float32

	// Encoder converts images to spike trains.
	Encoder coding.Encoder
}

// DefaultConfig returns the tuned configuration for a network of the
// given size. Steps=60 keeps the full experiment suite laptop-fast; the
// paper's own per-sample presentation window is larger but the dynamics
// are the same.
func DefaultConfig(neurons int) Config {
	lif := neuron.DefaultLIF(neurons)
	lif.VTh = 5.0
	lif.ThetaPlus = 0.5
	return Config{
		Inputs:     dataset.Pixels,
		Neurons:    neurons,
		Steps:      60,
		LIF:        lif,
		WMax:       1.0,
		EtaPost:    0.05,
		XTar:       0.15,
		TauPre:     20.0,
		Inhibition: 3.0,
		NormTarget: 30.0,
		Encoder:    coding.NewRate(),
	}
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	switch {
	case c.Inputs <= 0 || c.Neurons <= 0:
		return errors.New("snn: sizes must be positive")
	case c.Steps <= 0:
		return errors.New("snn: steps must be positive")
	case c.WMax <= 0:
		return errors.New("snn: WMax must be positive")
	case c.EtaPost < 0 || c.XTar < 0:
		return errors.New("snn: STDP parameters must be non-negative")
	case c.TauPre <= 0:
		return errors.New("snn: TauPre must be positive")
	case c.NormTarget <= 0:
		return errors.New("snn: NormTarget must be positive")
	case c.Encoder == nil:
		return errors.New("snn: encoder required")
	case c.LIF.N != c.Neurons:
		return fmt.Errorf("snn: LIF.N (%d) must equal Neurons (%d)", c.LIF.N, c.Neurons)
	}
	return c.LIF.Validate()
}

// Network is a trained or in-training SNN. Create with New.
type Network struct {
	Cfg  Config
	W    *numeric.Matrix // Inputs x Neurons, the DRAM-resident weights
	Pool *neuron.Pool

	// Assign maps each neuron to the class it responds to (-1 before
	// AssignLabelsCtx).
	Assign []int

	xpre     []float32 // presynaptic traces
	decayPre float32
	drive    []float32
	spikeBuf []int32
	counts   []int
	norm     *numeric.NormScratch // NormalizeClamp scratch
	driveBuf []float32            // EvaluateEncoded block scratch, reused across calls
}

// newNetwork assembles a network of a validated cfg around its weights,
// pool and assignments, with fresh per-network scratch. Every
// constructor (New, Clone, FromCheckpoint) goes through it.
func newNetwork(cfg Config, w *numeric.Matrix, pool *neuron.Pool, assign []int) *Network {
	return &Network{
		Cfg:      cfg,
		W:        w,
		Pool:     pool,
		Assign:   assign,
		xpre:     make([]float32, cfg.Inputs),
		decayPre: float32(math.Exp(-cfg.LIF.DT / cfg.TauPre)),
		drive:    make([]float32, cfg.Neurons),
		spikeBuf: make([]int32, 0, cfg.Neurons),
		counts:   make([]int, cfg.Neurons),
		norm:     numeric.NewNormScratch(cfg.Inputs, cfg.Neurons),
	}
}

// New builds a network with uniformly random initial weights, normalized
// per neuron.
func New(cfg Config, r *rng.Stream) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("snn: config: %w", err)
	}
	pool, err := neuron.NewPool(cfg.LIF)
	if err != nil {
		return nil, fmt.Errorf("snn: neuron pool: %w", err)
	}
	n := newNetwork(cfg, numeric.NewMatrix(cfg.Inputs, cfg.Neurons), pool, make([]int, cfg.Neurons))
	for i := range n.Assign {
		n.Assign[i] = -1
	}
	wr := r.Derive("weights")
	for i := range n.W.Data {
		n.W.Data[i] = 0.2 + 0.6*wr.Float32()
	}
	// Normalize only: no float32 lies below -Inf or above +Inf.
	inf := float32(math.Inf(1))
	n.W.NormalizeClamp(cfg.NormTarget, -inf, inf, n.norm)
	return n, nil
}

// present runs one sample through the network. If learn is true, STDP and
// normalization are applied. Spike counts per neuron accumulate into the
// returned slice (reused across calls; copy if you need to keep it).
func (n *Network) present(tr coding.Train, learn bool) []int {
	cfg := &n.Cfg
	for j := range n.counts {
		n.counts[j] = 0
	}
	if learn {
		for i := range n.xpre {
			n.xpre[i] = 0
		}
	}
	n.Pool.ResetState()

	for t := 0; t < len(tr); t++ {
		active := tr[t]
		if learn {
			// Decay and update presynaptic traces. Inference never reads
			// the traces (they only feed STDP), so the whole per-step
			// trace pass is skipped when not learning — the counts are
			// unaffected.
			numeric.Scale(n.xpre, n.decayPre)
			for _, i := range active {
				n.xpre[i] = 1
			}
		}

		// Synaptic drive from this step's input spikes.
		n.W.SumRows(active, n.drive)

		spikes := n.Pool.Step(n.drive, cfg.Inhibition, n.spikeBuf)
		for _, j := range spikes {
			n.counts[j]++
		}
		if learn {
			n.applySTDP(spikes)
		}
	}
	if learn {
		n.W.NormalizeClamp(cfg.NormTarget, 0, cfg.WMax, n.norm)
	}
	return n.counts
}

// applySTDP applies the Diehl&Cook post-spike rule to the columns of the
// spiking neurons.
func (n *Network) applySTDP(spikes []int32) {
	cfg := &n.Cfg
	cols := n.Cfg.Neurons
	for _, j := range spikes {
		col := int(j)
		for i := 0; i < cfg.Inputs; i++ {
			w := n.W.Data[i*cols+col]
			w += cfg.EtaPost * (n.xpre[i] - cfg.XTar) * (cfg.WMax - w)
			if w < 0 {
				w = 0
			} else if w > cfg.WMax {
				w = cfg.WMax
			}
			n.W.Data[i*cols+col] = w
		}
	}
}

// TrainEpochCtx presents every sample of the dataset once with learning
// enabled; the stream drives spike encoding. The context is checked
// between sample presentations, so a cancelled training run returns
// promptly with ctx.Err(). The network after a cancelled run is
// exactly the one an uncancelled run has at that sample boundary, which
// keeps partially trained networks deterministic.
//
// STDP and the adaptive thresholds chain every presentation to the one
// before it, so presentations stay strictly sequential. Spike encoding
// does not read the network: sample s's train is always
// Encoder.Encode(ds.Images[s], Steps, r.DeriveIndex("enc", s)), and
// those trains are encoded ahead of the presentation loop by a
// sched.ParallelFor of GOMAXPROCS-1 slots (at least one) in bounded,
// double-buffered blocks. The result is bit-identical to encoding each
// sample inline; a panicking encoder fails the epoch with an error.
func (n *Network) TrainEpochCtx(ctx context.Context, ds *dataset.Dataset, r *rng.Stream) error {
	return n.trainEpoch(ctx, ds, r, aheadWidth())
}

// trainEpoch is TrainEpochCtx with an explicit look-ahead width.
func (n *Network) trainEpoch(ctx context.Context, ds *dataset.Dataset, r *rng.Stream, width int) error {
	return n.forEachEncoded(ctx, ds, r, "enc", width, func(_ int, tr coding.Train) {
		n.present(tr, true)
	})
}

// AssignLabelsCtx assigns every neuron to the class it spikes most for,
// using the given (typically training) dataset — the unsupervised
// labeling step of Diehl&Cook. The context is checked between samples.
// On cancellation or a panicking encoder's error the existing
// assignments are left untouched (the tally is discarded).
//
// Inference presentations still move the adaptive thresholds, so the
// tally pass stays sequential; as in TrainEpochCtx, the spike trains
// (sample s encoded from r.DeriveIndex("assign", s)) are encoded ahead
// on GOMAXPROCS-1 ParallelFor slots, bit-identically to inline encoding.
func (n *Network) AssignLabelsCtx(ctx context.Context, ds *dataset.Dataset, r *rng.Stream) error {
	return n.assignLabels(ctx, ds, r, aheadWidth())
}

// assignLabels is AssignLabelsCtx with an explicit look-ahead width.
func (n *Network) assignLabels(ctx context.Context, ds *dataset.Dataset, r *rng.Stream, width int) error {
	resp := make([][dataset.NumClasses]float64, n.Cfg.Neurons)
	classN := ds.ClassCounts()
	err := n.forEachEncoded(ctx, ds, r, "assign", width, func(s int, tr coding.Train) {
		c := ds.Labels[s]
		for j, k := range n.present(tr, false) {
			resp[j][c] += float64(k)
		}
	})
	if err != nil {
		return err
	}
	for j := range resp {
		best, bestV := -1, 0.0
		for c := 0; c < dataset.NumClasses; c++ {
			v := resp[j][c]
			if classN[c] > 0 {
				v /= float64(classN[c])
			}
			if v > bestV {
				best, bestV = c, v
			}
		}
		n.Assign[j] = best // stays -1 only if the neuron never spiked
	}
	return nil
}

// Predict classifies one image using the assigned labels: the class whose
// assigned neurons produced the highest mean spike count wins.
func (n *Network) Predict(img []byte, r *rng.Stream) int {
	tr := n.Cfg.Encoder.Encode(img, n.Cfg.Steps, r)
	return n.classify(n.present(tr, false))
}

// classify scores one sample's per-neuron spike counts against the
// assigned labels — the decision half of Predict, shared with the
// batched evaluation path.
func (n *Network) classify(counts []int) int {
	var score [dataset.NumClasses]float64
	var members [dataset.NumClasses]int
	for j, c := range n.Assign {
		if c >= 0 {
			score[c] += float64(counts[j])
			members[c]++
		}
	}
	best, bestV := 0, -1.0
	for c := 0; c < dataset.NumClasses; c++ {
		if members[c] == 0 {
			continue
		}
		v := score[c] / float64(members[c])
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// EvaluateCtx returns classification accuracy on a dataset. The context
// is checked between samples; a cancelled evaluation returns 0 and
// ctx.Err().
func (n *Network) EvaluateCtx(ctx context.Context, ds *dataset.Dataset, r *rng.Stream) (float64, error) {
	if ds.Len() == 0 {
		return 0, nil
	}
	correct := 0
	for s := 0; s < ds.Len(); s++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if n.Predict(ds.Images[s], r.DeriveIndex("eval", s)) == int(ds.Labels[s]) {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// WeightCount returns the number of synaptic weights (the data that
// lives in DRAM).
func (n *Network) WeightCount() int { return n.Cfg.Inputs * n.Cfg.Neurons }

// WeightsFlat returns a copy of the weights in row-major (input-major)
// order — the serialization order used for DRAM storage.
func (n *Network) WeightsFlat() []float32 {
	out := make([]float32, len(n.W.Data))
	copy(out, n.W.Data)
	return out
}

// LoadClampFactor bounds the on-load sanitization range: weights read
// back from (possibly corrupted) DRAM are clamped into
// [-LoadClampFactor*WMax, +LoadClampFactor*WMax], and non-finite values
// become zero. The range is deliberately wider than the training range
// [0, WMax]: a flipped exponent MSB cannot blow up the whole network,
// but corrupted weights still act as spurious excitation or inhibition —
// which is exactly the accuracy-degradation mechanism the paper observes
// for MSB flips (Sec. VI-A, label 2).
const LoadClampFactor = 2

// SetWeightsFlat replaces the weights (e.g. after DRAM error injection),
// applying the on-load sanitization described at LoadClampFactor.
func (n *Network) SetWeightsFlat(w []float32) error {
	if len(w) != len(n.W.Data) {
		return fmt.Errorf("snn: weight count %d, want %d", len(w), len(n.W.Data))
	}
	copy(n.W.Data, w)
	n.sanitizeLoad(n.W.Data)
	return nil
}

// DecodeWeights returns the weights SetWeightsFlat would load from the
// stored weight image img in format f: the image decoded, then sanitized
// as described at LoadClampFactor. It only reads n.
func (n *Network) DecodeWeights(img []byte, f quant.Format) ([]float32, error) {
	w := make([]float32, len(n.W.Data))
	if err := quant.Deserialize(img, f, w); err != nil {
		return nil, fmt.Errorf("snn: decode weights: %w", err)
	}
	n.sanitizeLoad(w)
	return w, nil
}

// sanitizeLoad applies the on-load sanitization to w in place. Every
// element is repaired on its own, so sanitizing a sub-slice gives the
// same values as sanitizing the whole image.
func (n *Network) sanitizeLoad(w []float32) {
	quant.Sanitize(w, -LoadClampFactor*n.Cfg.WMax, LoadClampFactor*n.Cfg.WMax)
}

// Clone returns a deep copy of the network (weights, thresholds,
// assignments), sharing only the immutable config and encoder. Used to
// evaluate corrupted weight images without disturbing the original.
func (n *Network) Clone() *Network {
	pool, err := neuron.NewPool(n.Cfg.LIF)
	if err != nil {
		panic("snn: clone of invalid network: " + err.Error())
	}
	copy(pool.Theta, n.Pool.Theta)
	return newNetwork(n.Cfg, n.W.Clone(), pool, append([]int(nil), n.Assign...))
}

// PaperSizes returns the network sizes evaluated in the paper:
// N400, N900, N1600, N2500, N3600.
func PaperSizes() []int { return []int{400, 900, 1600, 2500, 3600} }
