package snn

import (
	"context"
	"fmt"
	"runtime"
	"unsafe"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
)

// EncodedSet is a dataset pre-encoded into spike trains with the exact
// per-sample streams EvaluateCtx would derive (r.DeriveIndex("eval", s)).
// Encoding depends only on the dataset, the encoder, the step count, and
// the stream — not on weights or thresholds — so one EncodedSet is
// reusable across every weight image evaluated under the same evaluation
// seed, which is exactly the paired-evaluation structure of a sweep
// (every scenario shares one EvalSeed). The caller that encodes a set
// owns it and decides what it may be reused for. The set keeps its own
// copy of the labels, so it stays right if the dataset it was encoded
// from changes later.
type EncodedSet struct {
	steps  int
	enc    string
	trains []coding.Train
	labels []uint8
}

// Len returns the number of encoded samples.
func (es *EncodedSet) Len() int { return len(es.trains) }

// Bytes returns the memory the set's trains and labels hold: every
// step's slice header and spike indices, and one byte per label.
func (es *EncodedSet) Bytes() int64 {
	n := int64(len(es.labels))
	for _, tr := range es.trains {
		n += int64(len(tr)) * int64(unsafe.Sizeof([]int32(nil)))
		for _, step := range tr {
			n += 4 * int64(len(step))
		}
	}
	return n
}

// EncoderName returns the Name() of the encoder the set was built with.
func (es *EncodedSet) EncoderName() string { return es.enc }

// EncodeDataset pre-encodes every sample of ds into spike trains using
// the same per-sample derived streams as EvaluateCtx. DeriveIndex never
// advances the parent stream, so samples encode independently and the
// result is bit-identical for any worker count (workers <= 0 means
// GOMAXPROCS). A panicking encoder fails the call with an error.
func (n *Network) EncodeDataset(ctx context.Context, ds *dataset.Dataset, r *rng.Stream, workers int) (*EncodedSet, error) {
	return n.EncodeDatasetWith(ctx, ds, nil, r, workers)
}

// EncodeDatasetWith is EncodeDataset with an explicit encoder (nil means
// the network's own). The per-sample streams are identical regardless of
// the encoder, so sets encoded from the same seed stay paired across an
// encoder sweep.
func (n *Network) EncodeDatasetWith(ctx context.Context, ds *dataset.Dataset, enc coding.Encoder, r *rng.Stream, workers int) (*EncodedSet, error) {
	if enc == nil {
		enc = n.Cfg.Encoder
	}
	es := &EncodedSet{
		steps:  n.Cfg.Steps,
		enc:    enc.Name(),
		trains: make([]coding.Train, ds.Len()),
		labels: append([]uint8(nil), ds.Labels...),
	}
	err := sched.ParallelFor(workers, ds.Len(), func(_, s int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		es.trains[s] = enc.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("eval", s))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return es, nil
}

// EvaluateEncoded returns classification accuracy over a pre-encoded
// dataset. It is bit-identical to EvaluateCtx with the stream the set was
// encoded from, for any worker count: the theta-coupled neuron dynamics
// chain samples sequentially (Pool.Step mutates the adaptive thresholds
// even during inference), so parallelism is applied only to the
// per-sample synaptic-drive accumulation — a pure function of the
// weights and the spike train — while the stateful Step pass, lateral
// inhibition included, consumes the precomputed drives strictly in
// sample order. Every
// floating-point operation happens with the same operands in the same
// order as the scalar path.
func (n *Network) EvaluateEncoded(ctx context.Context, es *EncodedSet, workers int) (float64, error) {
	total := es.Len()
	if total == 0 {
		return 0, nil
	}
	if es.steps != n.Cfg.Steps || es.enc != n.Cfg.Encoder.Name() {
		return 0, fmt.Errorf("snn: encoded set built for steps=%d encoder=%q, network has steps=%d encoder=%q",
			es.steps, es.enc, n.Cfg.Steps, n.Cfg.Encoder.Name())
	}
	workers = clampWorkers(workers, total)
	correct := 0
	if workers == 1 {
		for s := 0; s < total; s++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if n.classify(n.present(es.trains[s], false)) == int(es.labels[s]) {
				correct++
			}
		}
		return float64(correct) / float64(total), nil
	}

	steps, neurons := n.Cfg.Steps, n.Cfg.Neurons
	per := steps * neurons
	block := workers * driveBlockPerWorker
	if block > total {
		block = total
	}
	if cap(n.driveBuf) < block*per {
		n.driveBuf = make([]float32, block*per)
	}
	drives := n.driveBuf[:block*per]
	for lo := 0; lo < total; lo += block {
		hi := min(lo+block, total)
		// Phase A: accumulate each sample's per-step drive vectors in
		// parallel. Drive depends only on W and the train; writes are to
		// disjoint regions of the block buffer.
		err := sched.ParallelFor(workers, hi-lo, func(_, s int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			n.accumulateDrives(es.trains[lo+s], drives[s*per:(s+1)*per])
			return nil
		})
		if err != nil {
			return 0, err
		}
		// Phase B: theta-chained consume, strictly in sample order.
		for s := lo; s < hi; s++ {
			if n.classify(n.presentDrives(drives[(s-lo)*per:(s-lo+1)*per])) == int(es.labels[s]) {
				correct++
			}
		}
	}
	return float64(correct) / float64(total), nil
}

// driveBlockPerWorker bounds the drive-precompute window: a block holds
// workers*driveBlockPerWorker samples' drive matrices (steps x neurons
// float32 each), trading a few MB of scratch for enough parallel slack
// that Phase A keeps all cores busy while Phase B drains sequentially.
const driveBlockPerWorker = 4

// accumulateDrives writes the per-step synaptic drive of one sample into
// dst (steps consecutive neuron-length vectors), with the identical
// SumRows call the scalar present path makes per step.
func (n *Network) accumulateDrives(tr coding.Train, dst []float32) {
	neurons := n.Cfg.Neurons
	for t := 0; t < len(tr); t++ {
		n.W.SumRows(tr[t], dst[t*neurons:(t+1)*neurons])
	}
}

// presentDrives replays one inference presentation whose synaptic drive
// has already been accumulated — the stateful half of present(tr, false),
// bit-identical to it because Pool.Step receives the same input values in
// the same step order.
func (n *Network) presentDrives(drives []float32) []int {
	cfg := &n.Cfg
	for j := range n.counts {
		n.counts[j] = 0
	}
	n.Pool.ResetState()
	neurons := cfg.Neurons
	for t := 0; t*neurons < len(drives); t++ {
		for _, j := range n.Pool.Step(drives[t*neurons:(t+1)*neurons], cfg.Inhibition, n.spikeBuf) {
			n.counts[j]++
		}
	}
	return n.counts
}

func clampWorkers(workers, total int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
