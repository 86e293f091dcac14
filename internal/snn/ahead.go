package snn

import (
	"context"
	"runtime"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
	"sparkxd/internal/sched"
)

// encodeAheadPerWorker sizes the blocks of forEachEncoded: a block holds
// width*encodeAheadPerWorker samples' spike trains and is encoded by one
// sched.ParallelFor of width slots.
const encodeAheadPerWorker = 8

// encodeAheadTrains is the look-ahead forEachEncoded aims for: about
// 1 MB of trains at 784 inputs and 60 steps, enough for the encoder to
// keep working through a pass boundary's hook and through the label
// assignment pass, whose presentations are much cheaper than its
// encodes.
const encodeAheadTrains = 128

// aheadWidth is the number of ParallelFor slots that encode ahead of the
// training loops' sequential consumer: one per processor the consumer
// does not occupy, at least one.
func aheadWidth() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// aheadBlocks is the number of blocks of size block that forEachEncoded
// keeps alive at once: the block being consumed and those encoded or
// being encoded ahead of it. It is at least two, and the trains alive
// (aheadBlocks*block) at least encodeAheadTrains.
func aheadBlocks(block int) int {
	return max(2, (encodeAheadTrains+block-1)/block)
}

// encodePass is one sequential pass over a dataset: sample s's train is
// Encoder.Encode(ds.Images[s], Steps, r.DeriveIndex(label, s)).
type encodePass struct {
	r     *rng.Stream
	label string
}

// quadsOf returns the number of encodeQuad calls that cover n samples.
func quadsOf(n int) int { return (n + coding.QuadWidth - 1) / coding.QuadWidth }

// encodeQuad encodes quad i of trains, whose entry k is sample lo+k:
// the up to coding.QuadWidth trains from k = i*coding.QuadWidth on, in
// one coding.Quad.Encode call through q.
func (p encodePass) encodeQuad(q *coding.Quad, enc coding.Encoder, steps int, ds *dataset.Dataset,
	lo int, trains []coding.Train, i int) {
	k := i * coding.QuadWidth
	dst := trains[k:min(k+coding.QuadWidth, len(trains))]
	var rs [coding.QuadWidth]*rng.Stream
	for j := range dst {
		rs[j] = p.r.DeriveIndex(p.label, lo+k+j)
	}
	q.Encode(enc, ds.Images[lo+k:lo+k+len(dst)], steps, rs[:len(dst)], dst)
}

// encodedBlock is one block of trains handed from the encoder to the
// consumer, or the error that stopped its encoding.
type encodedBlock struct {
	trains []coding.Train
	err    error
}

// forEachEncoded runs the passes over ds in order: before pass p it calls
// boundary(p), unless boundary is nil, then fn(p, s, tr) for every
// sample s in order, where tr is the train the pass's stream gives s
// (see encodePass) — the train the sequential loops encode inline.
// boundary and fn run on the caller's goroutine.
//
// Encoding depends only on the image and the per-sample derived stream,
// never on the weights or thresholds fn and boundary evolve, so one
// producer goroutine encodes every pass's trains ahead of the consumer,
// straight through the pass boundaries. It splits each pass into blocks
// of width*encodeAheadPerWorker samples, encodes each block with a
// sched.ParallelFor of width slots, four samples per iteration
// (encodeQuad), and keeps at most aheadBlocks blocks
// alive: it starts a block only once the consumer has finished the block
// that many before it. So the encoder never runs more than
// aheadBlocks(block)*block trains ahead of the chain.
//
// The context is checked before every sample, exactly where the
// sequential loops check it; on cancellation forEachEncoded returns
// ctx.Err() having called fn for the same prefix of samples. Encoders
// also stop early on cancellation, which can leave a train unencoded —
// but only after ctx is already cancelled, and a block is handed over
// only once its ParallelFor has returned, so the consumer's check fails
// before it reaches that train. A block whose encoding failed (a
// panicking encoder) is never handed over: its error is returned before
// any of its samples reach fn, after every earlier sample did. A
// non-nil error from boundary stops the passes and is returned as it
// is. Every goroutine is joined before forEachEncoded returns.
func (n *Network) forEachEncoded(ctx context.Context, ds *dataset.Dataset, passes []encodePass,
	width int, boundary func(p int) error, fn func(p, s int, tr coding.Train)) error {
	total := ds.Len()
	block := width * encodeAheadPerWorker
	blocks := (total + block - 1) / block // per pass
	alive := aheadBlocks(block)
	ectx, cancel := context.WithCancel(ctx)
	// Neither channel ever blocks its sender: at most alive buffers
	// exist, and each is in one place at a time — being encoded, in
	// ready, being consumed or in free.
	ready := make(chan encodedBlock, alive)
	free := make(chan []coding.Train, alive)
	go n.encodeAhead(ectx, ds, passes, width, alive, ready, free)
	defer func() {
		cancel()
		for range ready { // the producer closes ready when it returns
		}
	}()
	for p := range passes {
		if boundary != nil {
			if err := boundary(p); err != nil {
				return err
			}
		}
		for k := 0; k < blocks; k++ {
			b, ok := <-ready
			if !ok { // the producer saw ectx cancelled before this block
				return ctx.Err()
			}
			if b.err != nil {
				return b.err
			}
			lo := k * block
			for i, tr := range b.trains {
				if err := ctx.Err(); err != nil {
					return err
				}
				fn(p, lo+i, tr)
				b.trains[i] = nil
			}
			free <- b.trains
		}
	}
	return nil
}

// encodeAhead is forEachEncoded's producer. It encodes the passes' blocks
// in order into at most alive buffers, taking a buffer back from free
// before each block past the first alive ones, and sends each block (or
// its error, after which it stops) on ready. It closes ready when it
// returns: after the last block, after a failed one, or when ctx is
// cancelled while it waits for a buffer.
func (n *Network) encodeAhead(ctx context.Context, ds *dataset.Dataset, passes []encodePass,
	width, alive int, ready chan<- encodedBlock, free <-chan []coding.Train) {
	defer close(ready)
	total := ds.Len()
	block := width * encodeAheadPerWorker
	enc, steps := n.Cfg.Encoder, n.Cfg.Steps
	quads := make([]coding.Quad, width) // one per ParallelFor slot
	started := 0
	for _, pass := range passes {
		for lo := 0; lo < total; lo += block {
			var buf []coding.Train
			if started < alive {
				buf = make([]coding.Train, block)
			} else {
				select {
				case buf = <-free:
				case <-ctx.Done():
					return
				}
			}
			started++
			buf = buf[:min(block, total-lo)]
			err := sched.ParallelFor(width, quadsOf(len(buf)), func(w, q int) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				pass.encodeQuad(&quads[w], enc, steps, ds, lo, buf, q)
				return nil
			})
			ready <- encodedBlock{trains: buf, err: err}
			if err != nil {
				return
			}
		}
	}
}
