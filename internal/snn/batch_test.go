package snn

import (
	"context"
	"testing"

	"sparkxd/internal/rng"
)

// trainedNet returns a briefly trained, label-assigned network so Theta
// is non-zero and accuracy is meaningful.
func trainedNet(t *testing.T, neurons int) *Network {
	t.Helper()
	net := smallNet(t, neurons)
	train, _ := smallData(t, 6, 1)
	if err := net.TrainEpochCtx(context.Background(), train, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	if err := net.AssignLabelsCtx(context.Background(), train, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	return net
}

// corruptedWeights returns the network's weights with a sparse sign/scale
// corruption, standing in for a DRAM bit-error pass.
func corruptedWeights(net *Network, seed uint64) []float32 {
	w := net.WeightsFlat()
	r := rng.New(seed)
	for i := range w {
		if r.Bernoulli(0.01) {
			w[i] = -w[i] * 3
		}
	}
	return w
}

// TestEvaluateBatchMatchesScalar pins the tentpole contract: the batched
// path (encode every sample, then the drive-precompute evaluation)
// returns bit-identical accuracy to the scalar per-sample EvaluateCtx
// path, for every worker count.
func TestEvaluateBatchMatchesScalar(t *testing.T) {
	net := trainedNet(t, 15)
	_, test := smallData(t, 6, 24)
	ctx := context.Background()

	want, err := net.Clone().EvaluateCtx(ctx, test, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		es, err := net.EncodeDataset(ctx, test, rng.New(7), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := net.Clone().EvaluateEncoded(ctx, es, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: batched = %v, EvaluateCtx = %v", workers, got, want)
		}
	}
}

// TestEncodeDatasetWorkerInvariance requires the pre-encoded spike
// trains to be identical for any encode worker count (per-sample streams
// are derived, not consumed, from the parent).
func TestEncodeDatasetWorkerInvariance(t *testing.T) {
	net := smallNet(t, 12)
	_, test := smallData(t, 1, 17)
	ctx := context.Background()

	base, err := net.EncodeDataset(ctx, test, rng.New(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 8} {
		es, err := net.EncodeDataset(ctx, test, rng.New(7), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(es.trains) != len(base.trains) {
			t.Fatalf("workers=%d: %d trains, want %d", workers, len(es.trains), len(base.trains))
		}
		for s := range es.trains {
			a, b := es.trains[s], base.trains[s]
			if len(a) != len(b) {
				t.Fatalf("workers=%d sample %d: %d steps, want %d", workers, s, len(a), len(b))
			}
			for st := range a {
				if len(a[st]) != len(b[st]) {
					t.Fatalf("workers=%d sample %d step %d: %d spikes, want %d", workers, s, st, len(a[st]), len(b[st]))
				}
				for k := range a[st] {
					if a[st][k] != b[st][k] {
						t.Fatalf("workers=%d sample %d step %d spike %d: %d, want %d", workers, s, st, k, a[st][k], b[st][k])
					}
				}
			}
		}
	}
}

// TestEvaluateEncodedBatchSizeInvariance sweeps dataset sizes around the
// drive-block boundary (batch 1, below, exactly, and above one block) so
// the block pipeline's edge cases are all exercised against the scalar
// path.
func TestEvaluateEncodedBatchSizeInvariance(t *testing.T) {
	net := trainedNet(t, 10)
	ctx := context.Background()
	workers := 2
	block := workers * driveBlockPerWorker
	for _, n := range []int{1, block - 1, block, block + 1, 2*block + 3} {
		_, test := smallData(t, 1, n)
		want, err := net.Clone().EvaluateCtx(ctx, test, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		es, err := net.EncodeDataset(ctx, test, rng.New(11), workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.Clone().EvaluateEncoded(ctx, es, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch=%d: EvaluateEncoded = %v, EvaluateCtx = %v", n, got, want)
		}
	}
}

// TestEvaluatorBatchMatchesFreshClone pins the evaluator's batched entry
// point (one caller-owned encoded set + worker fan-out) against the seed
// path: a fresh Clone + SetWeightsFlat + EvaluateCtx per weight image.
func TestEvaluatorBatchMatchesFreshClone(t *testing.T) {
	net := trainedNet(t, 14)
	_, test := smallData(t, 6, 12)
	ctx := context.Background()

	imgs := [][]float32{corruptedWeights(net, 100), corruptedWeights(net, 101), corruptedWeights(net, 102)}
	want := make([]float64, len(imgs))
	for k, w := range imgs {
		clone := net.Clone()
		if err := clone.SetWeightsFlat(w); err != nil {
			t.Fatal(err)
		}
		var err error
		want[k], err = clone.EvaluateCtx(ctx, test, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 8} {
		es, err := net.EncodeDataset(ctx, test, rng.New(7), workers)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluatorWorkers(net, workers)
		// Two passes over the images: the second pass reuses the set and
		// the restored Theta, and must not drift.
		for pass := 0; pass < 2; pass++ {
			for k, w := range imgs {
				got, err := ev.EvaluateWeightsEncoded(ctx, es, w)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[k] {
					t.Fatalf("workers=%d pass=%d image %d: EvaluateWeightsEncoded = %v, fresh clone = %v",
						workers, pass, k, got, want[k])
				}
			}
		}
	}
}

// TestEvaluateEncodedSharedSet mirrors the engine's usage: one encoded
// set shared by several evaluators (distinct clones), all bit-identical
// to the scalar path.
func TestEvaluateEncodedSharedSet(t *testing.T) {
	net := trainedNet(t, 12)
	_, test := smallData(t, 6, 10)
	ctx := context.Background()
	w := corruptedWeights(net, 200)

	clone := net.Clone()
	if err := clone.SetWeightsFlat(w); err != nil {
		t.Fatal(err)
	}
	want, err := clone.EvaluateCtx(ctx, test, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}

	es, err := net.EncodeDataset(ctx, test, rng.New(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := NewEvaluatorWorkers(net, i+1)
		got, err := ev.EvaluateWeightsEncoded(ctx, es, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("evaluator %d: %v, want %v", i, got, want)
		}
	}
}

// TestEvaluateEncodedRejectsMismatchedConfig guards the footgun of
// reusing an encoded set across incompatible network configs.
func TestEvaluateEncodedRejectsMismatchedConfig(t *testing.T) {
	net := smallNet(t, 10)
	_, test := smallData(t, 1, 4)
	ctx := context.Background()
	es, err := net.EncodeDataset(ctx, test, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(10)
	cfg.Steps = net.Cfg.Steps + 1
	other, err := New(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.EvaluateEncoded(ctx, es, 1); err == nil {
		t.Fatal("EvaluateEncoded accepted a set encoded with different steps")
	}
}
