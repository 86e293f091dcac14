package snn

import (
	"context"
	"runtime"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
)

// encodeAheadPerWorker sizes the look-ahead blocks of forEachEncoded: a
// block holds width*encodeAheadPerWorker samples' spike trains, and at
// most two blocks are alive at once (the one being consumed and the one
// being encoded).
const encodeAheadPerWorker = 8

// aheadWidth is the number of ParallelFor slots that encode ahead of the
// training loops' sequential consumer: one per processor the consumer
// does not occupy, at least one.
func aheadWidth() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// forEachEncoded calls fn(s, tr) for every sample s of ds in order, where
// tr = Encoder.Encode(ds.Images[s], Steps, r.DeriveIndex(label, s)) — the
// train the sequential loops encode inline. Encoding depends only on the
// image and the per-sample derived stream, never on the weights or
// thresholds fn evolves, so it runs ahead in double-buffered blocks: while
// fn consumes block k, one goroutine encodes block k+1 with a
// sched.ParallelFor of width slots.
//
// The context is checked before every sample, exactly where the
// sequential loops check it; on cancellation forEachEncoded returns
// ctx.Err() having called fn for the same prefix of samples. Encoders
// also stop early on cancellation, which can leave a train unencoded —
// but only after ctx is already cancelled, and a block is handed over
// only once its ParallelFor has returned, so the consumer's check fails
// before it reaches that train. A block whose encoding failed (a
// panicking encoder) is never handed over: its error is returned before
// any of its samples reach fn. Every goroutine is joined before
// forEachEncoded returns.
func (n *Network) forEachEncoded(ctx context.Context, ds *dataset.Dataset, r *rng.Stream,
	label string, width int, fn func(s int, tr coding.Train)) error {
	total := ds.Len()
	block := width * encodeAheadPerWorker
	enc, steps := n.Cfg.Encoder, n.Cfg.Steps
	var bufs [2][]coding.Train
	// start encodes block k into bufs[k%2] beside the caller; the
	// returned channel yields the block's error once it is encoded.
	start := func(k int) <-chan error {
		lo := k * block
		if bufs[k%2] == nil {
			bufs[k%2] = make([]coding.Train, block)
		}
		buf, done := bufs[k%2], make(chan error, 1)
		go func() {
			done <- sched.ParallelFor(width, min(block, total-lo), func(_, s int) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				buf[s] = enc.Encode(ds.Images[lo+s], steps, r.DeriveIndex(label, lo+s))
				return nil
			})
		}()
		return done
	}
	var next <-chan error // the block being encoded, if any
	defer func() {
		if next != nil {
			<-next
		}
	}()
	blocks := (total + block - 1) / block
	if blocks > 0 {
		next = start(0)
	}
	for k := 0; k < blocks; k++ {
		err := <-next
		next = nil
		if err != nil {
			return err
		}
		if k+1 < blocks {
			next = start(k + 1)
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
