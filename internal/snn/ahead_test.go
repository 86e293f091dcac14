package snn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

// aheadNet is a small, short-presentation network, so the tests below
// can afford many epochs under the race detector.
func aheadNet(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig(12)
	cfg.Steps = 20
	n, err := New(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// seqTrainEpoch is the sequential reference of TrainEpochCtx: every
// sample's train is encoded inline, right before its presentation.
func seqTrainEpoch(n *Network, ds *dataset.Dataset, r *rng.Stream, samples int) {
	for s := 0; s < samples; s++ {
		n.present(n.Cfg.Encoder.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("enc", s)), true)
	}
}

// seqAssignLabels is the sequential reference of AssignLabelsCtx.
func seqAssignLabels(n *Network, ds *dataset.Dataset, r *rng.Stream) {
	resp := make([][dataset.NumClasses]float64, n.Cfg.Neurons)
	for s := 0; s < ds.Len(); s++ {
		counts := n.present(n.Cfg.Encoder.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("assign", s)), false)
		for j, k := range counts {
			resp[j][ds.Labels[s]] += float64(k)
		}
	}
	classN := ds.ClassCounts()
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
		n.Assign[j] = best
	}
}

// sameNetwork fails the test unless a and b hold bit-identical weights,
// thresholds and assignments.
func sameNetwork(t *testing.T, what string, a, b *Network) {
	t.Helper()
	if !equalState(a, b) {
		t.Fatalf("%s: network differs from the sequential reference", what)
	}
}

// TestEncodeAheadMatchesSequential: training and label assignment with
// trains encoded ahead leave weights, thresholds and assignments bit for
// bit where the inline-encoding loops leave them, for every look-ahead
// width and for dataset sizes on both sides of the block boundaries.
func TestEncodeAheadMatchesSequential(t *testing.T) {
	data, _ := smallData(t, 2*8*encodeAheadPerWorker+3, 1)
	for _, width := range []int{1, 2, 3, 8} {
		block := width * encodeAheadPerWorker
		for _, size := range []int{0, 1, block - 1, block, block + 1, 2*block + 3} {
			ds := data.Subset(size)
			got, want := aheadNet(t), aheadNet(t)
			if err := got.trainEpoch(context.Background(), ds, rng.New(5), width); err != nil {
				t.Fatal(err)
			}
			seqTrainEpoch(want, ds, rng.New(5), size)
			sameNetwork(t, "train", got, want)
			if err := got.assignLabels(context.Background(), ds, rng.New(6), width); err != nil {
				t.Fatal(err)
			}
			seqAssignLabels(want, ds, rng.New(6))
			sameNetwork(t, "assign", got, want)
		}
	}
}

// TestEncodeAheadCancelAtSampleBoundary: a context cancelled after k
// presentations stops the loop before sample k, returns
// context.Canceled, and leaves the network exactly as the sequential
// loop leaves it after k samples — whether k falls inside a block, on a
// block boundary, or before the first sample.
func TestEncodeAheadCancelAtSampleBoundary(t *testing.T) {
	const width = 3
	block := width * encodeAheadPerWorker
	ds, _ := smallData(t, 2*block+3, 1)
	for _, k := range []int{0, 1, block - 1, block, block + 1, ds.Len() - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		if k == 0 {
			cancel()
		}
		got, want := aheadNet(t), aheadNet(t)
		presented := 0
		err := got.forEachEncoded(ctx, ds, rng.New(5), "enc", width, func(s int, tr coding.Train) {
			got.present(tr, true)
			presented++
			if presented == k {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if presented != k {
			t.Fatalf("k=%d: %d samples presented", k, presented)
		}
		seqTrainEpoch(want, ds, rng.New(5), k)
		sameNetwork(t, "cancelled epoch", got, want)
	}
}

// countingEncoder wraps an encoder and tracks calls in flight, so a test
// can see whether encoding work outlives the call that started it.
type countingEncoder struct {
	coding.Encoder
	inFlight, calls atomic.Int64
	onCall          func(call int64)
}

func (e *countingEncoder) Encode(img []byte, steps int, r *rng.Stream) coding.Train {
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	if e.onCall != nil {
		e.onCall(e.calls.Add(1))
	}
	return e.Encoder.Encode(img, steps, r)
}

// TestTrainEpochCancelJoinsEncoders: cancelling TrainEpochCtx mid-epoch
// (from an encoder, so at whatever sample the presentation loop has
// reached) returns context.Canceled, leaves the network at some sample
// boundary of the sequential loop, and leaves no encoding running or
// starting after the call returns.
func TestTrainEpochCancelJoinsEncoders(t *testing.T) {
	ds, _ := smallData(t, 60, 1)
	for _, cancelAt := range []int64{1, 9, 30} {
		ctx, cancel := context.WithCancel(context.Background())
		enc := &countingEncoder{Encoder: coding.NewRate()}
		enc.onCall = func(call int64) {
			if call == cancelAt {
				cancel()
			}
		}
		got := aheadNet(t)
		got.Cfg.Encoder = enc
		before := runtime.NumGoroutine()
		err := got.trainEpoch(ctx, ds, rng.New(5), 3)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at encode %d: err = %v, want context.Canceled", cancelAt, err)
		}
		if n := enc.inFlight.Load(); n != 0 {
			t.Fatalf("cancel at encode %d: %d encodes still running after return", cancelAt, n)
		}
		calls := enc.calls.Load()
		time.Sleep(20 * time.Millisecond)
		if enc.calls.Load() != calls {
			t.Fatalf("cancel at encode %d: encoding continued after return", cancelAt)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("cancel at encode %d: %d goroutines after return, %d before", cancelAt, n, before)
		}

		// The network must equal the sequential loop's after some prefix.
		ref := aheadNet(t)
		matched := false
		for k := 0; k <= ds.Len() && !matched; k++ {
			if k > 0 {
				s := k - 1
				ref.present(ref.Cfg.Encoder.Encode(ds.Images[s], ref.Cfg.Steps, rng.New(5).DeriveIndex("enc", s)), true)
			}
			matched = equalState(got, ref)
		}
		if !matched {
			t.Fatalf("cancel at encode %d: network matches no sample boundary of the sequential loop", cancelAt)
		}
	}
}

// panicEncoder is its inner encoder, except that it panics on one image.
type panicEncoder struct {
	coding.Encoder
	bad []byte
}

func (e panicEncoder) Encode(img []byte, steps int, r *rng.Stream) coding.Train {
	if &img[0] == &e.bad[0] {
		panic("encoder fault")
	}
	return e.Encoder.Encode(img, steps, r)
}

// TestEncoderPanicBecomesError: an encoder that panics on one sample
// makes EncodeDatasetWith, trainEpoch and assignLabels return an error
// naming the panic instead of crashing the process. The training
// consumer sees every sample before the failing block, in order and
// encoded, and nothing after; label assignment leaves Assign untouched;
// and no encoding runs or starts after the call returns.
func TestEncoderPanicBecomesError(t *testing.T) {
	ds, _ := smallData(t, 60, 1)
	const bad = 29
	wantFault := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "encoder fault") {
			t.Fatalf("%s: err = %v, want the encoder's panic", what, err)
		}
	}
	faulty := func() *countingEncoder {
		return &countingEncoder{Encoder: panicEncoder{Encoder: coding.NewRate(), bad: ds.Images[bad]}}
	}
	for _, width := range []int{1, 3} {
		block := width * encodeAheadPerWorker
		enc := faulty()
		n := aheadNet(t)
		n.Cfg.Encoder = enc
		before := runtime.NumGoroutine()
		seen := 0
		err := n.forEachEncoded(context.Background(), ds, rng.New(5), "enc", width, func(s int, tr coding.Train) {
			if s != seen || tr == nil {
				t.Errorf("width %d: fn got sample %d (train nil: %v), want sample %d encoded", width, s, tr == nil, seen)
			}
			seen++
		})
		wantFault(fmt.Sprintf("width %d: forEachEncoded", width), err)
		if want := bad / block * block; seen != want {
			t.Fatalf("width %d: fn saw %d samples, want the %d before the failing block", width, seen, want)
		}
		wantFault(fmt.Sprintf("width %d: trainEpoch", width), n.trainEpoch(context.Background(), ds, rng.New(5), width))
		assign := append([]int(nil), n.Assign...)
		wantFault(fmt.Sprintf("width %d: assignLabels", width), n.assignLabels(context.Background(), ds, rng.New(6), width))
		if !slices.Equal(n.Assign, assign) {
			t.Fatalf("width %d: a failed label assignment changed Assign", width)
		}
		encodersJoined(t, fmt.Sprintf("width %d", width), enc, before)
	}
	for _, workers := range []int{1, 2} {
		enc := faulty()
		before := runtime.NumGoroutine()
		es, err := aheadNet(t).EncodeDatasetWith(context.Background(), ds, enc, rng.New(5), workers)
		wantFault(fmt.Sprintf("workers %d: EncodeDatasetWith", workers), err)
		if es != nil {
			t.Fatalf("workers %d: EncodeDatasetWith returned a set beside its error", workers)
		}
		encodersJoined(t, fmt.Sprintf("workers %d", workers), enc, before)
	}
}

// encodersJoined fails the test if enc has an encoding in flight, starts
// another within 20ms, or if more goroutines than before are still
// running after a second.
func encodersJoined(t *testing.T, what string, enc *countingEncoder, before int) {
	t.Helper()
	if n := enc.inFlight.Load(); n != 0 {
		t.Fatalf("%s: %d encodes still running after return", what, n)
	}
	calls := enc.calls.Load()
	time.Sleep(20 * time.Millisecond)
	if enc.calls.Load() != calls {
		t.Fatalf("%s: encoding continued after return", what)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%s: %d goroutines after return, %d before", what, n, before)
	}
}

// equalState reports whether a and b hold bit-identical weights,
// thresholds and assignments.
func equalState(a, b *Network) bool {
	for i := range a.W.Data {
		if math.Float32bits(a.W.Data[i]) != math.Float32bits(b.W.Data[i]) {
			return false
		}
	}
	for j := range a.Pool.Theta {
		if math.Float32bits(a.Pool.Theta[j]) != math.Float32bits(b.Pool.Theta[j]) ||
			a.Assign[j] != b.Assign[j] {
			return false
		}
	}
	return true
}
