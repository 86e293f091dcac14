package snn

import (
	"context"
	"runtime"
	"sync"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

// encodeAheadPerWorker sizes the look-ahead blocks of forEachEncoded: a
// block holds width*encodeAheadPerWorker samples' spike trains, and at
// most two blocks are alive at once (the one being consumed and the one
// being encoded).
const encodeAheadPerWorker = 8

// aheadWidth is the number of encoding goroutines the training loops run
// beside their sequential consumer: one per processor the consumer does
// not occupy, at least one.
func aheadWidth() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// forEachEncoded calls fn(s, tr) for every sample s of ds in order, where
// tr = Encoder.Encode(ds.Images[s], Steps, r.DeriveIndex(label, s)) — the
// train the sequential loops encode inline. Encoding depends only on the
// image and the per-sample derived stream, never on the weights or
// thresholds fn evolves, so it runs ahead on width goroutines in
// double-buffered blocks: while fn consumes block k, block k+1 encodes.
//
// The context is checked before every sample, exactly where the
// sequential loops check it; on cancellation forEachEncoded returns
// ctx.Err() having called fn for the same prefix of samples. Encoders
// also stop early on cancellation, which can leave a train unencoded —
// but only after ctx is already cancelled, and a block is handed over
// only once all its encoders are done, so the consumer's check fails
// before it reaches that train. Every goroutine is joined before
// forEachEncoded returns.
func (n *Network) forEachEncoded(ctx context.Context, ds *dataset.Dataset, r *rng.Stream,
	label string, width int, fn func(s int, tr coding.Train)) error {
	total := ds.Len()
	block := width * encodeAheadPerWorker
	enc, steps := n.Cfg.Encoder, n.Cfg.Steps
	var (
		bufs  [2][]coding.Train
		ready [2]sync.WaitGroup
	)
	defer ready[1].Wait()
	defer ready[0].Wait()
	// start encodes block k into bufs[k%2] on width goroutines.
	start := func(k int) {
		lo := k * block
		hi := min(lo+block, total)
		if bufs[k%2] == nil {
			bufs[k%2] = make([]coding.Train, block)
		}
		buf, wg := bufs[k%2], &ready[k%2]
		for w := 0; w < width; w++ {
			clo, chi := chunkRange(hi-lo, width, w)
			if clo == chi {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := clo; s < chi; s++ {
					if ctx.Err() != nil {
						return
					}
					buf[s] = enc.Encode(ds.Images[lo+s], steps, r.DeriveIndex(label, lo+s))
				}
			}()
		}
	}
	blocks := (total + block - 1) / block
	if blocks > 0 {
		start(0)
	}
	for k := 0; k < blocks; k++ {
		ready[k%2].Wait()
		if k+1 < blocks {
			start(k + 1)
		}
		lo := k * block
		buf := bufs[k%2]
		for s := lo; s < min(lo+block, total); s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(s, buf[s-lo])
			buf[s-lo] = nil
		}
	}
	return nil
}
