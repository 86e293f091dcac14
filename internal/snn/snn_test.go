package snn

import (
	"context"
	"math"
	"testing"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

func smallNet(t *testing.T, neurons int) *Network {
	t.Helper()
	cfg := DefaultConfig(neurons)
	n, err := New(cfg, rng.New(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func smallData(t *testing.T, train, test int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = train, test
	tr, te, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, te
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(50)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(50)
	bad.Encoder = nil
	if bad.Validate() == nil {
		t.Error("nil encoder must be invalid")
	}
	bad = DefaultConfig(50)
	bad.LIF.N = 10
	if bad.Validate() == nil {
		t.Error("LIF.N mismatch must be invalid")
	}
	bad = DefaultConfig(50)
	bad.NormTarget = 0
	if bad.Validate() == nil {
		t.Error("zero NormTarget must be invalid")
	}
}

func TestNewInitialization(t *testing.T) {
	n := smallNet(t, 30)
	if n.WeightCount() != dataset.Pixels*30 {
		t.Fatal("weight count wrong")
	}
	// Weights normalized per neuron.
	sums := n.W.ColumnSums()
	for j, s := range sums {
		if math.Abs(float64(s)-float64(n.Cfg.NormTarget)) > 0.1 {
			t.Fatalf("neuron %d incoming sum %v, want %v", j, s, n.Cfg.NormTarget)
		}
	}
	for _, a := range n.Assign {
		if a != -1 {
			t.Fatal("fresh network must be unassigned")
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := smallNet(t, 20)
	b := smallNet(t, 20)
	for i := range a.W.Data {
		if a.W.Data[i] != b.W.Data[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
}

func TestPresentProducesSpikes(t *testing.T) {
	n := smallNet(t, 30)
	train, _ := smallData(t, 10, 5)
	tr := n.Cfg.Encoder.Encode(train.Images[0], n.Cfg.Steps, rng.New(3))
	counts := n.present(tr, false)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("a bright image must drive some spikes in a fresh network")
	}
}

func TestTrainingMovesWeights(t *testing.T) {
	n := smallNet(t, 30)
	train, _ := smallData(t, 20, 5)
	before := n.WeightsFlat()
	if err := n.TrainEpochCtx(context.Background(), train, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	after := n.WeightsFlat()
	diff := 0.0
	for i := range before {
		diff += math.Abs(float64(after[i] - before[i]))
	}
	if diff == 0 {
		t.Fatal("training must change weights")
	}
}

func TestTrainingPreservesNormalization(t *testing.T) {
	n := smallNet(t, 25)
	train, _ := smallData(t, 30, 5)
	if err := n.TrainEpochCtx(context.Background(), train, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	for j, s := range n.W.ColumnSums() {
		if s > n.Cfg.NormTarget*1.05 {
			t.Fatalf("neuron %d sum %v exceeds norm target after training", j, s)
		}
	}
	for _, w := range n.W.Data {
		if w < 0 || w > n.Cfg.WMax {
			t.Fatalf("weight %v outside [0, WMax]", w)
		}
	}
}

// The headline substrate test: unsupervised STDP training must reach
// far-above-chance accuracy on the synthetic MNIST flavour.
func TestUnsupervisedLearningBeatsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	train, test := smallData(t, 300, 100)
	n := smallNet(t, 100)
	for epoch := 0; epoch < 2; epoch++ {
		if err := n.TrainEpochCtx(context.Background(), train, rng.New(uint64(10+epoch))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AssignLabelsCtx(context.Background(), train, rng.New(20)); err != nil {
		t.Fatal(err)
	}
	acc, err := n.EvaluateCtx(context.Background(), test, rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("accuracy after training: %.1f%%", acc*100)
	if acc < 0.40 {
		t.Errorf("accuracy %.1f%% below 40%% (chance is 10%%)", acc*100)
	}
}

// Larger networks should not be worse than much smaller ones (Fig. 1(a)
// direction: more neurons -> more accuracy).
func TestLargerNetworkAtLeastAsGood(t *testing.T) {
	if testing.Short() {
		t.Skip("training comparison skipped in -short mode")
	}
	train, test := smallData(t, 200, 80)
	small := smallNet(t, 20)
	large := smallNet(t, 120)
	if err := small.TrainEpochCtx(context.Background(), train, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	if err := large.TrainEpochCtx(context.Background(), train, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	if err := small.AssignLabelsCtx(context.Background(), train, rng.New(12)); err != nil {
		t.Fatal(err)
	}
	if err := large.AssignLabelsCtx(context.Background(), train, rng.New(12)); err != nil {
		t.Fatal(err)
	}
	accS, err := small.EvaluateCtx(context.Background(), test, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	accL, err := large.EvaluateCtx(context.Background(), test, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("N20: %.1f%%  N120: %.1f%%", accS*100, accL*100)
	if accL < accS-0.10 {
		t.Errorf("large net (%.1f%%) much worse than small (%.1f%%)", accL*100, accS*100)
	}
}

func TestAssignLabelsCoversClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	train, _ := smallData(t, 200, 10)
	n := smallNet(t, 100)
	if err := n.TrainEpochCtx(context.Background(), train, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := n.AssignLabelsCtx(context.Background(), train, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range n.Assign {
		if c >= 0 {
			seen[c] = true
		}
	}
	if len(seen) < 5 {
		t.Errorf("assignments cover only %d classes", len(seen))
	}
}

func TestWeightsRoundtrip(t *testing.T) {
	n := smallNet(t, 10)
	w := n.WeightsFlat()
	w[0] = 0.123
	if err := n.SetWeightsFlat(w); err != nil {
		t.Fatal(err)
	}
	if n.W.Data[0] != 0.123 {
		t.Fatal("SetWeightsFlat must apply values")
	}
	if err := n.SetWeightsFlat(w[:5]); err == nil {
		t.Fatal("wrong length must error")
	}
}

func TestSetWeightsSanitizes(t *testing.T) {
	n := smallNet(t, 10)
	w := n.WeightsFlat()
	w[0] = float32(math.NaN())
	w[1] = float32(math.Inf(1))
	w[2] = -5
	w[3] = 99
	if err := n.SetWeightsFlat(w); err != nil {
		t.Fatal(err)
	}
	if n.W.Data[0] != 0 || n.W.Data[1] != 0 {
		t.Error("non-finite weights must become 0")
	}
	if n.W.Data[2] != -LoadClampFactor*n.Cfg.WMax {
		t.Error("very negative weights must clamp to the load floor")
	}
	if n.W.Data[3] != LoadClampFactor*n.Cfg.WMax {
		t.Error("oversized weights must clamp to the load ceiling")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := smallNet(t, 10)
	n.Assign[0] = 3
	n.Pool.Theta[0] = 0.5
	c := n.Clone()
	if c.Assign[0] != 3 || c.Pool.Theta[0] != 0.5 {
		t.Fatal("clone must copy assignments and thresholds")
	}
	c.W.Data[0] = 99
	c.Assign[0] = 7
	if n.W.Data[0] == 99 || n.Assign[0] == 7 {
		t.Fatal("clone must not share storage")
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	n := smallNet(t, 10)
	empty := &dataset.Dataset{}
	if acc, err := n.EvaluateCtx(context.Background(), empty, rng.New(1)); acc != 0 || err != nil {
		t.Fatalf("empty dataset accuracy = %v, %v; want 0, nil", acc, err)
	}
}

func TestPredictDeterministic(t *testing.T) {
	n := smallNet(t, 20)
	train, _ := smallData(t, 10, 5)
	a := n.Predict(train.Images[0], rng.New(9))
	b := n.Predict(train.Images[0], rng.New(9))
	if a != b {
		t.Fatal("prediction must be deterministic in the stream")
	}
}

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	want := []int{400, 900, 1600, 2500, 3600}
	if len(sizes) != len(want) {
		t.Fatal("paper sizes wrong")
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatal("paper sizes wrong")
		}
	}
}

func TestAlternativeEncodersRun(t *testing.T) {
	train, _ := smallData(t, 5, 2)
	for _, enc := range []coding.Encoder{
		coding.NewDeterministicRate(),
		coding.TTFS{Threshold: 20},
		coding.NewRankOrder(),
		coding.Phase{},
		coding.NewBurst(),
	} {
		cfg := DefaultConfig(15)
		cfg.Encoder = enc
		n, err := New(cfg, rng.New(2))
		if err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
		if err := n.TrainEpochCtx(context.Background(), train, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.EvaluateCtx(context.Background(), train, rng.New(4)); err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
	}
}
