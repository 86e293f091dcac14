package snn

import (
	"context"
	"testing"

	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

// TestEvaluatorMatchesFreshClone pins the Evaluator's contract: repeated
// evaluations through one Evaluator are bit-identical to evaluating a
// fresh Clone per weight image. This guards the adaptive-threshold
// restore — Pool.Step mutates Theta during inference, so a naive reused
// clone would drift with evaluation order.
func TestEvaluatorMatchesFreshClone(t *testing.T) {
	net, err := New(DefaultConfig(15), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = 4, 10
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Train a little so Theta is non-zero and the restore actually
	// matters.
	if err := net.TrainEpochCtx(context.Background(), train, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	if err := net.AssignLabelsCtx(context.Background(), train, rng.New(5)); err != nil {
		t.Fatal(err)
	}

	// Two corrupted weight images.
	imgs := make([][]float32, 2)
	for k := range imgs {
		w := net.WeightsFlat()
		r := rng.New(uint64(100 + k))
		for i := range w {
			if r.Bernoulli(0.01) {
				w[i] = -w[i] * 3
			}
		}
		imgs[k] = w
	}

	want := make([]float64, len(imgs))
	for k, w := range imgs {
		clone := net.Clone()
		if err := clone.SetWeightsFlat(w); err != nil {
			t.Fatal(err)
		}
		want[k], err = clone.EvaluateCtx(context.Background(), test, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
	}

	es, err := net.EncodeDataset(context.Background(), test, rng.New(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluatorWorkers(net, 1)
	// Evaluate in order, reversed, and repeated: every answer must match
	// the fresh-clone reference regardless of history.
	order := []int{0, 1, 1, 0, 0}
	for _, k := range order {
		got, err := ev.EvaluateWeightsEncoded(context.Background(), es, imgs[k])
		if err != nil {
			t.Fatal(err)
		}
		if got != want[k] {
			t.Fatalf("Evaluator image %d = %v, fresh clone = %v", k, got, want[k])
		}
	}
}
