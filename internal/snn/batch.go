package snn

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

// EncodedSet is a dataset pre-encoded into spike trains with the exact
// per-sample streams EvaluateCtx would derive (r.DeriveIndex("eval", s)).
// Encoding depends only on the dataset, the encoder, the step count, and
// the stream's seed identity — not on weights or thresholds — so one
// EncodedSet is reusable across every weight image evaluated under the
// same evaluation seed, which is exactly the paired-evaluation structure
// of a sweep (every scenario shares one EvalSeed).
type EncodedSet struct {
	ds     *dataset.Dataset
	seed   [2]uint64
	steps  int
	enc    string
	trains []coding.Train
}

// Len returns the number of encoded samples.
func (es *EncodedSet) Len() int { return len(es.trains) }

// Matches reports whether es holds exactly the trains that evaluating ds
// under stream r with the given config would encode: same dataset, same
// seed identity (Derive is a pure function of the seed words, so equal
// identity means equal derived streams), same step count and encoder.
func (es *EncodedSet) Matches(cfg *Config, ds *dataset.Dataset, r *rng.Stream) bool {
	return es.MatchesFor(ds, r, cfg.Steps, cfg.Encoder.Name())
}

// MatchesFor is Matches against an explicit (steps, encoder name) pair
// instead of a network config — the sweep engine's encoder axis caches
// sets encoded with encoders other than the network's own.
func (es *EncodedSet) MatchesFor(ds *dataset.Dataset, r *rng.Stream, steps int, encName string) bool {
	return es.ds == ds &&
		es.seed == r.SeedIdentity() &&
		es.steps == steps &&
		es.enc == encName
}

// EncoderName returns the Name() of the encoder the set was built with.
func (es *EncodedSet) EncoderName() string { return es.enc }

// EncodeDataset pre-encodes every sample of ds into spike trains using
// the same per-sample derived streams as EvaluateCtx. DeriveIndex never
// advances the parent stream, so samples encode independently and the
// result is bit-identical for any worker count (workers <= 0 means
// GOMAXPROCS).
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
		ds:     ds,
		seed:   r.SeedIdentity(),
		steps:  n.Cfg.Steps,
		enc:    enc.Name(),
		trains: make([]coding.Train, ds.Len()),
	}
	total := ds.Len()
	if total == 0 {
		return es, nil
	}
	workers = clampWorkers(workers, total)
	if workers == 1 {
		for s := 0; s < total; s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			es.trains[s] = enc.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("eval", s))
		}
		return es, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := chunkRange(total, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := lo; s < hi; s++ {
				if ctx.Err() != nil {
					return
				}
				es.trains[s] = enc.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("eval", s))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
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
// weights and the spike train — while the stateful Step/Inhibit pass
// consumes the precomputed drives strictly in sample order. Every
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
			if n.classify(n.present(es.trains[s], false)) == int(es.ds.Labels[s]) {
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
	var wg sync.WaitGroup
	for lo := 0; lo < total; lo += block {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		hi := lo + block
		if hi > total {
			hi = total
		}
		// Phase A: accumulate each sample's per-step drive vectors in
		// parallel. Drive depends only on W and the train; writes are to
		// disjoint regions of the block buffer.
		for w := 0; w < workers; w++ {
			clo, chi := chunkRange(hi-lo, workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := clo; s < chi; s++ {
					if ctx.Err() != nil {
						return
					}
					n.accumulateDrives(es.trains[lo+s], drives[s*per:(s+1)*per])
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Phase B: theta-chained consume, strictly in sample order.
		for s := lo; s < hi; s++ {
			if n.classify(n.presentDrives(drives[(s-lo)*per:(s-lo+1)*per])) == int(es.ds.Labels[s]) {
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
		spikes := n.Pool.Step(drives[t*neurons:(t+1)*neurons], n.spikeBuf)
		if len(spikes) > 0 {
			n.Pool.Inhibit(spikes, cfg.Inhibition)
			for _, j := range spikes {
				n.counts[j]++
			}
		}
	}
	return n.counts
}

// EvaluateBatch is EvaluateCtx restructured as one batched job: encode
// all samples (parallel), then evaluate them with the drive-precompute
// pipeline. Bit-identical to EvaluateCtx(ctx, ds, r) for any workers.
func (n *Network) EvaluateBatch(ctx context.Context, ds *dataset.Dataset, r *rng.Stream, workers int) (float64, error) {
	es, err := n.EncodeDataset(ctx, ds, r, workers)
	if err != nil {
		return 0, err
	}
	return n.EvaluateEncoded(ctx, es, workers)
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

// chunkRange splits [0, total) into parts contiguous chunks and returns
// the w-th; the first total%parts chunks are one element longer.
func chunkRange(total, parts, w int) (lo, hi int) {
	base := total / parts
	rem := total % parts
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}
