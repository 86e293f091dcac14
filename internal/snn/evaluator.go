package snn

import (
	"context"
	"fmt"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
)

// Evaluator measures one network's accuracy under many corrupted weight
// images without per-image allocation — the batched evaluate entry point
// of the scenario-sweep engine. It owns a single reusable clone of the
// source network; each evaluation restores the clone to the source
// network's adaptive-threshold state before loading the weight image, so
// repeated evaluations are bit-identical to evaluating a fresh Clone each
// time (Pool.Step mutates Theta even during inference, which would
// otherwise make results depend on evaluation order).
//
// The evaluator also keeps a single-entry cache of the last encoded
// dataset: spike trains depend only on (dataset, encoder, steps, stream
// seed identity), all of which are shared across the weight images of a
// sweep, so encoding — a large fraction of scalar evaluation time — runs
// once per evaluator instead of once per weight image.
//
// For sparse corruption, EvaluatePatched skips the full load: the clone
// keeps the load of one clean image between calls, and each call decodes
// only the weights its flipped bits fall in, then puts them back. A full
// load through EvaluateWeightsEncoded replaces the clean load.
//
// An Evaluator is single-goroutine; create one per concurrent worker.
// The workers count (NewEvaluatorWorkers) parallelizes WITHIN one
// evaluation via the drive-precompute pipeline of EvaluateEncoded;
// results are bit-identical for any value.
type Evaluator struct {
	clone   *Network
	theta   []float32 // pristine adaptive thresholds of the source network
	srcEnc  coding.Encoder
	workers int
	enc     *EncodedSet
	// loaded is the first element of the clean load the clone's weights
	// equal (EvaluatePatched), or nil when they may not equal one.
	loaded *float32
}

// NewEvaluatorWorkers returns an evaluator over a private clone of n.
// Later mutations of n do not affect the evaluator. Each evaluation
// encodes and accumulates synaptic drive on up to workers goroutines
// (workers <= 0 means GOMAXPROCS). Accuracy is bit-identical for any
// worker count.
func NewEvaluatorWorkers(n *Network, workers int) *Evaluator {
	c := n.Clone()
	return &Evaluator{
		clone:   c,
		theta:   append([]float32(nil), c.Pool.Theta...),
		srcEnc:  c.Cfg.Encoder,
		workers: workers,
	}
}

// SetEncoder switches the evaluator's clone to enc (nil restores the
// source network's encoder), so pre-encoded sets built with a
// non-default encoder pass EvaluateEncoded's identity check. Evaluation
// reads only the pre-encoded trains — the encoder never feeds the
// neuron-dynamics pass — so accuracy over a given EncodedSet is
// unaffected by which encoder was last set.
func (e *Evaluator) SetEncoder(enc coding.Encoder) {
	if enc == nil {
		enc = e.srcEnc
	}
	e.clone.Cfg.Encoder = enc
}

// EvaluateWeights loads the weight image w into the evaluator's clone
// (with the SetWeightsFlat on-load sanitization) and returns the clone's
// accuracy on ds. The result is identical to
// n.Clone().SetWeightsFlat(w) + EvaluateCtx on a fresh clone.
func (e *Evaluator) EvaluateWeights(ctx context.Context, ds *dataset.Dataset, w []float32, r *rng.Stream) (float64, error) {
	return e.EvaluateBatch(ctx, ds, w, r)
}

// EvaluateBatch evaluates one weight image over every sample of ds as a
// single batched job: spike trains come from the evaluator's encoded-set
// cache (rebuilt only when the dataset or stream identity changes), and
// drive accumulation fans out across the evaluator's workers while the
// theta-chained neuron updates consume in sample order. Bit-identical to
// EvaluateWeights on a fresh single-threaded evaluator.
func (e *Evaluator) EvaluateBatch(ctx context.Context, ds *dataset.Dataset, w []float32, r *rng.Stream) (float64, error) {
	es, err := e.encodedFor(ctx, ds, r)
	if err != nil {
		return 0, err
	}
	return e.EvaluateWeightsEncoded(ctx, es, w)
}

// EvaluateWeightsEncoded is EvaluateBatch against an externally built
// encoded set — e.g. one shared by every worker of a sweep, so a grid of
// hundreds of scenarios encodes the test set exactly once instead of
// once per evaluator.
func (e *Evaluator) EvaluateWeightsEncoded(ctx context.Context, es *EncodedSet, w []float32) (float64, error) {
	copy(e.clone.Pool.Theta, e.theta)
	e.loaded = nil
	if err := e.clone.SetWeightsFlat(w); err != nil {
		return 0, err
	}
	return e.clone.EvaluateEncoded(ctx, es, e.workers)
}

// EvaluatePatched evaluates the stored weight image img, in format f,
// which differs from a clean image only in the bits listed in flips
// (a bit may be listed more than once, and bits in the image padding
// touch no weight). clean is the clean image's load, DecodeWeights of it
// on the source network, and must not change while this evaluator is in
// use. The result equals EvaluateWeightsEncoded on Deserialize(img):
// decoding and sanitization both work weight by weight, so decoding just
// the weights a flipped bit falls in, over the clean load, gives exactly
// the full load. The clone copies clean in only when it does not already
// hold it, and every return after the patch puts the touched weights back
// from clean. img is only read.
func (e *Evaluator) EvaluatePatched(ctx context.Context, es *EncodedSet, clean []float32, img []byte, f quant.Format, flips []int64) (float64, error) {
	if err := e.patch(clean, img, f, flips); err != nil {
		return 0, err
	}
	defer e.unpatch(clean, f, flips)
	copy(e.clone.Pool.Theta, e.theta)
	return e.clone.EvaluateEncoded(ctx, es, e.workers)
}

// patch makes the clone's weights the load of img: it copies clean in
// unless the clone holds it already, then decodes and sanitizes each
// weight a flipped bit falls in.
func (e *Evaluator) patch(clean []float32, img []byte, f quant.Format, flips []int64) error {
	w := e.clone.W.Data
	bpw := f.BytesPerWeight()
	if len(clean) != len(w) {
		return fmt.Errorf("snn: clean load of %d weights, want %d", len(clean), len(w))
	}
	if len(img) < len(w)*bpw {
		return fmt.Errorf("snn: weight image of %d bytes, want at least %d", len(img), len(w)*bpw)
	}
	if e.loaded != &clean[0] {
		copy(w, clean)
		e.loaded = &clean[0]
	}
	bitsPer := int64(8 * bpw)
	for _, b := range flips {
		i := int(b / bitsPer)
		if i >= len(w) {
			continue // padding
		}
		if err := quant.Deserialize(img[i*bpw:(i+1)*bpw], f, w[i:i+1]); err != nil {
			e.loaded = nil
			return fmt.Errorf("snn: decode weight %d: %w", i, err)
		}
		e.clone.sanitizeLoad(w[i : i+1])
	}
	return nil
}

// unpatch puts every weight a flipped bit falls in back from clean, so
// the clone holds clean again.
func (e *Evaluator) unpatch(clean []float32, f quant.Format, flips []int64) {
	w := e.clone.W.Data
	bitsPer := int64(8 * f.BytesPerWeight())
	for _, b := range flips {
		if i := int(b / bitsPer); i < len(w) {
			w[i] = clean[i]
		}
	}
}

// encodedFor returns the cached encoded set if it matches (ds, r),
// otherwise encodes ds and replaces the cache. DeriveIndex is a pure
// function of the stream's seed words, so a matching seed identity
// guarantees the cached trains equal the ones r would derive.
func (e *Evaluator) encodedFor(ctx context.Context, ds *dataset.Dataset, r *rng.Stream) (*EncodedSet, error) {
	if e.enc != nil && e.enc.Matches(&e.clone.Cfg, ds, r) {
		return e.enc, nil
	}
	es, err := e.clone.EncodeDataset(ctx, ds, r, e.workers)
	if err != nil {
		return nil, err
	}
	e.enc = es
	return es, nil
}
