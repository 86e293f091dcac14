package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
)

// improveFixture is a small trained baseline with its datasets.
func improveFixture(t *testing.T, trainN, testN int) (*snn.Network, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test := tinyData(t, trainN, testN)
	net := tinyNet(t, 24)
	if err := net.TrainEpochCtx(context.Background(), train, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if err := net.AssignLabelsCtx(context.Background(), train, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	return net, train, test
}

// checkpointJSON is the serialized state of a network: weights,
// thresholds, assignments and configuration.
func checkpointJSON(t *testing.T, n *snn.Network) string {
	t.Helper()
	cp, err := n.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// improveReference is Algorithm 1 written as one sequential loop with
// the scalar evaluation path: acc0 on a clone of the input, training
// continued on that clone, each rate evaluated on a corrupted clone
// before the next rate trains.
func improveReference(t *testing.T, f *Framework, baseline *snn.Network, train, test *dataset.Dataset, cfg TrainConfig) *TrainResult {
	t.Helper()
	layout, _ := f.LayoutFor(baseline, nil)
	root := rng.New(cfg.Seed)
	evalSeed := root.Derive("eval").Uint64()
	modelTemp := baseline.Clone()
	acc0, err := modelTemp.EvaluateCtx(context.Background(), test, rng.New(evalSeed))
	if err != nil {
		t.Fatal(err)
	}
	res := &TrainResult{BaselineAcc: acc0}
	best := modelTemp.Clone()
	for i, rate := range cfg.Rates {
		profile, _ := errmodel.UniformProfile(f.Geom, rate, f.DeviceSeed)
		for e := 0; e < cfg.EpochsPerRate; e++ {
			k := i*cfg.EpochsPerRate + e
			w, _ := f.CorruptWeights(modelTemp.WeightsFlat(), layout, profile, root.DeriveIndex("inject", k))
			_ = modelTemp.SetWeightsFlat(w)
			if err := modelTemp.TrainEpochCtx(context.Background(), train, root.DeriveIndex("train", k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := modelTemp.AssignLabelsCtx(context.Background(), train, root.DeriveIndex("assign", i)); err != nil {
			t.Fatal(err)
		}
		w, _ := f.CorruptWeights(modelTemp.WeightsFlat(), layout, profile,
			rng.New(root.DeriveIndex("evalinject", i).Uint64()))
		probe := modelTemp.Clone()
		_ = probe.SetWeightsFlat(w)
		acc, err := probe.EvaluateCtx(context.Background(), test, rng.New(evalSeed))
		if err != nil {
			t.Fatal(err)
		}
		res.PerRate = append(res.PerRate, RatePoint{BER: rate, Acc: acc})
		if acc >= acc0-cfg.AccBound {
			best = modelTemp.Clone()
			res.BERth = rate
		}
	}
	res.Model = best
	return res
}

// TestImproveErrorToleranceLeavesInputUnchanged: the input network's
// checkpoint is byte-identical before and after the call. The acc0
// inference pass moves adaptive thresholds, so it must run on a clone.
func TestImproveErrorToleranceLeavesInputUnchanged(t *testing.T) {
	f := framework(t)
	net, train, test := improveFixture(t, 24, 16)
	before := checkpointJSON(t, net)
	cfg := DefaultTrainConfig()
	cfg.Rates = []float64{1e-5, 1e-3}
	if _, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg); err != nil {
		t.Fatal(err)
	}
	if checkpointJSON(t, net) != before {
		t.Fatal("ImproveErrorTolerance modified its input network")
	}
}

// TestImproveErrorToleranceMatchesSequentialReference: the pipelined
// Algorithm 1 returns bit for bit the sequential reference's result —
// when the best model is a middle rate's (bound 0.01: the first and last
// rates miss it), when no rate passes and when all do, and for 1 and 8
// evaluation workers alike.
func TestImproveErrorToleranceMatchesSequentialReference(t *testing.T) {
	net, train, test := improveFixture(t, 24, 16)
	for _, bound := range []float64{0.01, -1, 1} {
		cfg := DefaultTrainConfig()
		cfg.Rates = []float64{1e-7, 1e-5, 1e-3, 5e-2}
		cfg.AccBound = bound
		want := improveReference(t, framework(t), net, train, test, cfg)
		for _, workers := range []int{1, 8} {
			f := framework(t)
			f.EvalWorkers = workers
			got, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.BaselineAcc != want.BaselineAcc || got.BERth != want.BERth ||
				!reflect.DeepEqual(got.PerRate, want.PerRate) {
				t.Fatalf("bound %v, workers %d: acc0 %v BERth %v curve %v; reference %v %v %v", bound, workers,
					got.BaselineAcc, got.BERth, got.PerRate, want.BaselineAcc, want.BERth, want.PerRate)
			}
			if checkpointJSON(t, got.Model) != checkpointJSON(t, want.Model) {
				t.Fatalf("bound %v, workers %d: improved model differs from the reference", bound, workers)
			}
		}
	}
}

// TestImproveErrorToleranceEventOrder: the observer sees start, one
// progress event per epoch in schedule order, then done — the same
// sequence for any evaluation worker count.
func TestImproveErrorToleranceEventOrder(t *testing.T) {
	net, train, test := improveFixture(t, 16, 12)
	cfg := DefaultTrainConfig()
	cfg.Rates = []float64{1e-6, 1e-4, 1e-3}
	cfg.EpochsPerRate = 2
	for _, workers := range []int{1, 8} {
		f := framework(t)
		f.EvalWorkers = workers
		var events []Event
		f.Observer = func(ev Event) { events = append(events, ev) }
		res, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := len(cfg.Rates) * cfg.EpochsPerRate
		want := []Event{{Stage: "improve", Phase: "start", Epochs: total, Acc: res.BaselineAcc}}
		for k := 0; k < total; k++ {
			want = append(want, Event{Stage: "improve", Phase: "progress",
				Epoch: k + 1, Epochs: total, BER: cfg.Rates[k/cfg.EpochsPerRate]})
		}
		want = append(want, Event{Stage: "improve", Phase: "done", BER: res.BERth, Acc: res.BaselineAcc})
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("workers %d: events\n%+v\nwant\n%+v", workers, events, want)
		}
	}
}

// evaluating reports whether a goroutine that ImproveErrorTolerance
// started to evaluate a rate is still inside that evaluation: held in
// the test's evalStarted hook, or in evaluateCorrupted. A goroutine past
// both, with only its own exit left after closing its done channel, is
// joined and does not count.
func evaluating() bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				if strings.Contains(g, "created by sparkxd/internal/core.(*Framework).ImproveErrorTolerance") &&
					(strings.Contains(g, "sparkxd/internal/core.(*Framework).evaluateCorrupted(") ||
						strings.Contains(g, "sparkxd/internal/core.TestImproveErrorToleranceCancelJoinsEvaluation.func")) {
					return true
				}
			}
			return false
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestImproveErrorToleranceCancelJoinsEvaluation: cancelling while rate
// i trains, with rate i-1's evaluation outstanding, returns
// context.Canceled only after that evaluation has stopped. The
// evalStarted hook holds rate i-1's evaluation until the observer has
// cancelled, so every cancel point finds it in flight.
func TestImproveErrorToleranceCancelJoinsEvaluation(t *testing.T) {
	net, train, test := improveFixture(t, 8, 16)
	cfg := DefaultTrainConfig()
	cfg.Rates = []float64{1e-7, 1e-6, 1e-5, 1e-4}
	for epoch := 2; epoch <= len(cfg.Rates); epoch++ {
		f := framework(t)
		f.EvalWorkers = 1
		ctx, cancel := context.WithCancel(context.Background())
		held, release := make(chan struct{}), make(chan struct{})
		f.evalStarted = func(i int) {
			if i == epoch-2 { // the rate trained before this epoch's
				close(held)
				<-release
			}
		}
		f.Observer = func(ev Event) {
			if ev.Phase == "progress" && ev.Epoch == epoch {
				select {
				case <-held:
				case <-time.After(time.Minute):
					t.Errorf("cancel at epoch %d: no evaluation in flight", epoch)
				}
				cancel()
				close(release)
			}
		}
		_, err := f.ImproveErrorTolerance(ctx, net, train, test, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at epoch %d: err = %v, want context.Canceled", epoch, err)
		}
		if evaluating() {
			t.Fatalf("cancel at epoch %d: an evaluation is still running after return", epoch)
		}
	}
}
