package core

import (
	"context"
	"math"
	"testing"

	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

func framework(t *testing.T) *Framework {
	t.Helper()
	f := NewFramework()
	if err := f.Validate(); err != nil {
		t.Fatalf("framework invalid: %v", err)
	}
	return f
}

func tinyNet(t *testing.T, neurons int) *snn.Network {
	t.Helper()
	n, err := snn.New(snn.DefaultConfig(neurons), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func tinyData(t *testing.T, trainN, testN int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = trainN, testN
	tr, te, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, te
}

func TestLayoutForBaselineAndSparkXD(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 50)
	base, err := f.LayoutFor(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Policy != "baseline" {
		t.Error("nil safe flags must give the baseline layout")
	}
	wantBytes := net.WeightCount() * 4
	if base.Units()*base.UnitBytes() < wantBytes {
		t.Errorf("layout too small: %d units * %d B < %d B",
			base.Units(), base.UnitBytes(), wantBytes)
	}
	profile, err := f.ProfileAt(voltscale.V1100)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := f.LayoutFor(net, profile.SafeSubarrays(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if spark.Policy != "sparkxd" {
		t.Error("safe flags must give the sparkxd layout")
	}
}

func TestCorruptWeightsZeroBERIsIdentity(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 30)
	layout, _ := f.LayoutFor(net, nil)
	profile, err := errmodel.UniformProfile(f.Geom, 0, f.DeviceSeed)
	if err != nil {
		t.Fatal(err)
	}
	w := net.WeightsFlat()
	out, flips := f.CorruptWeights(w, layout, profile, rng.New(2))
	if flips != 0 {
		t.Fatalf("zero BER flipped %d bits", flips)
	}
	for i := range w {
		if out[i] != w[i] {
			t.Fatal("zero-BER corruption must be the identity")
		}
	}
}

func TestCorruptWeightsFlipsAtHighBER(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 30)
	layout, _ := f.LayoutFor(net, nil)
	profile, _ := errmodel.UniformProfile(f.Geom, 1e-3, f.DeviceSeed)
	w := net.WeightsFlat()
	out, flips := f.CorruptWeights(w, layout, profile, rng.New(2))
	if flips == 0 {
		t.Fatal("BER 1e-3 must flip some bits in a 94 KB image")
	}
	diff := 0
	for i := range w {
		if out[i] != w[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("flipped bits must change some weights")
	}
	// Input must be untouched.
	w2 := net.WeightsFlat()
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("CorruptWeights must not modify the network")
		}
	}
}

func TestEvaluateUnderErrorsPairedDeterminism(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 30)
	_, test := tinyData(t, 10, 30)
	layout, _ := f.LayoutFor(net, nil)
	profile, _ := errmodel.UniformProfile(f.Geom, 1e-5, f.DeviceSeed)
	a, err := f.EvaluateUnderErrorsCtx(context.Background(), net, test, layout, profile, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.EvaluateUnderErrorsCtx(context.Background(), net, test, layout, profile, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("evaluation must be deterministic in its seeds")
	}
}

func TestImproveErrorToleranceRejectsBadSchedules(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 20)
	train, test := tinyData(t, 10, 10)
	cfg := DefaultTrainConfig()
	cfg.Rates = nil
	if _, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg); err == nil {
		t.Error("empty schedule must error")
	}
	cfg = DefaultTrainConfig()
	cfg.Rates = []float64{1e-5, 1e-5}
	if _, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg); err == nil {
		t.Error("non-increasing schedule must error")
	}
	cfg = DefaultTrainConfig()
	cfg.EpochsPerRate = 0
	if _, err := f.ImproveErrorTolerance(context.Background(), net, train, test, cfg); err == nil {
		t.Error("zero epochs must error")
	}
}

func TestImproveErrorToleranceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline skipped in -short mode")
	}
	f := framework(t)
	train, test := tinyData(t, 120, 60)
	baseline := tinyNet(t, 60)
	if err := baseline.TrainEpochCtx(context.Background(), train, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if err := baseline.AssignLabelsCtx(context.Background(), train, rng.New(4)); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultTrainConfig()
	cfg.Rates = []float64{1e-6, 1e-4, 1e-3}
	res, err := f.ImproveErrorTolerance(context.Background(), baseline, train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("no model returned")
	}
	if len(res.PerRate) != len(cfg.Rates) {
		t.Fatalf("PerRate has %d entries, want %d", len(res.PerRate), len(cfg.Rates))
	}
	if res.BaselineAcc <= 0.2 {
		t.Fatalf("baseline accuracy %.2f unexpectedly low", res.BaselineAcc)
	}
	// The improved model must itself stay near the baseline accuracy when
	// evaluated under the BERth errors it was accepted at.
	if res.BERth > 0 {
		layout, _ := f.LayoutFor(res.Model, nil)
		profile, _ := errmodel.UniformProfile(f.Geom, res.BERth, f.DeviceSeed)
		acc, err := f.EvaluateUnderErrorsCtx(context.Background(), res.Model, test, layout, profile, 11, 12)
		if err != nil {
			t.Fatal(err)
		}
		if acc < res.BaselineAcc-0.15 {
			t.Errorf("improved model at BERth: %.2f, baseline %.2f", acc, res.BaselineAcc)
		}
	}
}

func TestAnalyzeErrorTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	f := framework(t)
	train, test := tinyData(t, 100, 50)
	net := tinyNet(t, 60)
	if err := net.TrainEpochCtx(context.Background(), train, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if err := net.AssignLabelsCtx(context.Background(), train, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	acc0, err := net.EvaluateCtx(context.Background(), test, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}

	rates := []float64{1e-8, 1e-6, 1e-4, 1e-3}
	berTh, curve, err := f.AnalyzeErrorTolerance(context.Background(), net, test, rates, acc0, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(rates) {
		t.Fatalf("curve has %d points", len(curve))
	}
	// BERth must be one of the rates (or zero).
	if berTh != 0 {
		found := false
		for _, r := range rates {
			if r == berTh {
				found = true
			}
		}
		if !found {
			t.Fatalf("BERth %v not in the analyzed set", berTh)
		}
	}
	if _, _, err := f.AnalyzeErrorTolerance(context.Background(), net, test, nil, acc0, 0.05, 7); err == nil {
		t.Error("empty rate list must error")
	}
}

func TestMapModelRespectsSafety(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 60)
	layout, profile, err := f.MapModel(net, voltscale.V1100, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	safe := profile.SafeSubarrays(1e-4)
	for u := 0; u < layout.Units(); u++ {
		lin := layout.CoordOf(u).SubarrayOf().Linear(f.Geom)
		if !safe[lin] {
			t.Fatalf("unit %d placed in unsafe subarray", u)
		}
	}
}

func TestEvaluateEnergyVoltageOrdering(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 100)
	layout, _ := f.LayoutFor(net, nil)
	eHi, err := f.EvaluateEnergy(layout, voltscale.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	eLo, err := f.EvaluateEnergy(layout, voltscale.V1025)
	if err != nil {
		t.Fatal(err)
	}
	if eLo.TotalMJ() >= eHi.TotalMJ() {
		t.Fatalf("reduced voltage must save energy: %.4g >= %.4g",
			eLo.TotalMJ(), eHi.TotalMJ())
	}
	saving := 1 - eLo.TotalMJ()/eHi.TotalMJ()
	// End-to-end savings should be in the vicinity of the paper's ~40%
	// (Fig. 12(a)); same mapping here, so expect close to Table I's 42%.
	if saving < 0.30 || saving > 0.50 {
		t.Errorf("savings at 1.025V = %.1f%%, want ~40%%", saving*100)
	}
}

func TestEvaluateEnergyHitRateHigherForSparkXD(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 200)
	base, _ := f.LayoutFor(net, nil)
	profile, _ := f.ProfileAt(voltscale.V1100)
	spark, err := f.LayoutFor(net, profile.SafeSubarrays(profile.MeanBER()*2))
	if err != nil {
		t.Skip("not enough safe capacity at this profile; acceptable")
	}
	eb, _ := f.EvaluateEnergy(base, voltscale.VNominal)
	es, _ := f.EvaluateEnergy(spark, voltscale.VNominal)
	if es.Stats.HitRate() < eb.Stats.HitRate()-1e-9 {
		t.Errorf("sparkxd hit rate %.3f below baseline %.3f",
			es.Stats.HitRate(), eb.Stats.HitRate())
	}
	if es.Stats.TotalNs > eb.Stats.TotalNs*1.001 {
		t.Errorf("sparkxd slower: %v vs %v ns", es.Stats.TotalNs, eb.Stats.TotalNs)
	}
}

func TestEnergyResultHelpers(t *testing.T) {
	f := framework(t)
	net := tinyNet(t, 30)
	layout, _ := f.LayoutFor(net, nil)
	e, err := f.EvaluateEnergy(layout, voltscale.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.TotalMJ()-e.Breakdown.TotalMJ()) > 1e-18 {
		t.Error("TotalMJ helper wrong")
	}
	if len(e.String()) == 0 {
		t.Error("String empty")
	}
}

func TestDefaultTrainConfigSchedule(t *testing.T) {
	cfg := DefaultTrainConfig()
	for i := 1; i < len(cfg.Rates); i++ {
		if math.Abs(cfg.Rates[i]/cfg.Rates[i-1]-10) > 1e-9 {
			t.Fatal("default schedule must be 10x steps (the paper's example)")
		}
	}
	if cfg.AccBound != 0.01 {
		t.Fatal("default accuracy bound must be 1%")
	}
}
