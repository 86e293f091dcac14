// Tests of the public SDK surface: artifact JSON round-trips, context
// cancellation, sentinel errors, and end-to-end equivalence with the
// legacy core.Framework.Run composition the SDK absorbed.
package sparkxd_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// tinySystem returns a seconds-fast System plus the option set that
// built it.
func tinySystem(t testing.TB, extra ...sparkxd.Option) *sparkxd.System {
	t.Helper()
	opts := append([]sparkxd.Option{
		sparkxd.WithNeurons(50),
		sparkxd.WithSampleBudget(80, 40),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithBERSchedule(1e-5, 1e-3),
	}, extra...)
	sys, err := sparkxd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []sparkxd.Option
	}{
		{"zero neurons", []sparkxd.Option{sparkxd.WithNeurons(0)}},
		{"empty schedule", []sparkxd.Option{sparkxd.WithBERSchedule()}},
		{"non-increasing schedule", []sparkxd.Option{sparkxd.WithBERSchedule(1e-4, 1e-4)}},
		{"negative bound", []sparkxd.Option{sparkxd.WithAccuracyBound(-1)}},
		{"bad dataset", []sparkxd.Option{sparkxd.WithDataset(sparkxd.Dataset(99))}},
		{"bad voltage", []sparkxd.Option{sparkxd.WithVoltage(0)}},
		{"bad budget", []sparkxd.Option{sparkxd.WithSampleBudget(0, 10)}},
	}
	for _, tc := range cases {
		if _, err := sparkxd.New(tc.opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
		}
	}
}

// The staged pipeline must reproduce the legacy monolithic
// core.Framework.Run composition bit for bit. The legacy sequence is
// reimplemented here verbatim from the kernel primitives (it was deleted
// from internal/core when the SDK absorbed it); if the SDK ever drifts
// in seed derivation or stage order, this test catches it.
func TestPipelineMatchesLegacyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline skipped in -short mode")
	}
	const (
		neurons    = 50
		trainN     = 80
		testN      = 40
		baseEpochs = 1
		seed       = uint64(1)
		trainSeed  = uint64(7)
		voltage    = voltscale.V1025
	)
	rates := []float64{1e-5, 1e-3}

	// --- legacy composition (the deleted core.Framework.Run) ---
	f := core.NewFramework()
	dcfg := dataset.DefaultConfig(dataset.MNISTLike)
	dcfg.Train, dcfg.Test = trainN, testN
	train, test, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := snn.New(snn.DefaultConfig(neurons), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(seed).Derive("run")
	for e := 0; e < baseEpochs; e++ {
		baseline.TrainEpoch(train, root.DeriveIndex("base-epoch", e))
	}
	baseline.AssignLabels(train, root.Derive("base-assign"))
	ctx := context.Background()
	tcfg := core.TrainConfig{Rates: rates, EpochsPerRate: 1, AccBound: 0.01, Seed: trainSeed}
	tr, err := f.ImproveErrorTolerance(ctx, baseline, train, test, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	berTh, curve, err := f.AnalyzeErrorTolerance(ctx, tr.Model, test, rates,
		tr.BaselineAcc, tcfg.AccBound, trainSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	layout, profile, err := f.MapModel(tr.Model, voltage, berTh)
	if err != nil {
		t.Fatal(err)
	}
	baseLayout, err := f.LayoutFor(baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	improvedAcc := f.EvaluateUnderErrors(tr.Model, test, layout, profile, trainSeed+2, trainSeed+3)
	eBase, err := f.EvaluateEnergy(baseLayout, voltscale.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	eSpark, err := f.EvaluateEnergy(layout, voltage)
	if err != nil {
		t.Fatal(err)
	}
	eSparkNominal, err := f.EvaluateEnergy(layout, voltscale.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	legacySpeedup := eBase.Stats.TotalNs / eSparkNominal.Stats.TotalNs

	// --- SDK pipeline ---
	sys := tinySystem(t)
	res, err := sys.Pipeline().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if res.Improved.BaselineAcc != tr.BaselineAcc {
		t.Errorf("baseline acc: SDK %v, legacy %v", res.Improved.BaselineAcc, tr.BaselineAcc)
	}
	if res.Improved.BERth != tr.BERth {
		t.Errorf("provisional BERth: SDK %v, legacy %v", res.Improved.BERth, tr.BERth)
	}
	if res.Tolerance.BERth != berTh {
		t.Errorf("BERth: SDK %v, legacy %v", res.Tolerance.BERth, berTh)
	}
	if !reflect.DeepEqual(res.Tolerance.Curve, curve) {
		t.Errorf("tolerance curve diverged: SDK %v, legacy %v", res.Tolerance.Curve, curve)
	}
	if res.Evaluation.Accuracy != improvedAcc {
		t.Errorf("improved acc: SDK %v, legacy %v", res.Evaluation.Accuracy, improvedAcc)
	}
	if res.Energy.Baseline.TotalMJ != eBase.TotalMJ() {
		t.Errorf("baseline energy: SDK %v, legacy %v", res.Energy.Baseline.TotalMJ, eBase.TotalMJ())
	}
	if res.Energy.SparkXD.TotalMJ != eSpark.TotalMJ() {
		t.Errorf("sparkxd energy: SDK %v, legacy %v", res.Energy.SparkXD.TotalMJ, eSpark.TotalMJ())
	}
	if res.Energy.Speedup != legacySpeedup {
		t.Errorf("speedup: SDK %v, legacy %v", res.Energy.Speedup, legacySpeedup)
	}
	// Sanity on the physics, as the deleted core end-to-end test asserted.
	if res.Improved.BaselineAcc < 0.2 {
		t.Errorf("baseline accuracy %.2f too low", res.Improved.BaselineAcc)
	}
	if res.Energy.Savings < 0.30 {
		t.Errorf("energy savings %.1f%%, want >= 30%%", res.Energy.Savings*100)
	}
	if res.Energy.Speedup < 0.95 {
		t.Errorf("speedup %.3f, want >= ~1.0", res.Energy.Speedup)
	}
}

// A TrainedModel must round-trip through JSON losslessly: re-marshaling
// the decoded artifact yields identical bytes, and the reloaded model
// behaves identically under paired evaluation.
func TestTrainedModelJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	sys := tinySystem(t)
	ctx := context.Background()
	p := sys.Pipeline()
	if _, err := p.Train(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := p.ImproveTolerance(ctx)
	if err != nil {
		t.Fatal(err)
	}

	b1, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back sparkxd.TrainedModel
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("model JSON is not stable across a round-trip")
	}
	if back.Stage != "improved" || back.Neurons != m.Neurons || back.BaselineAcc != m.BaselineAcc {
		t.Fatalf("metadata lost: %+v", back)
	}
	accA, err := sys.EvaluateModelAtBER(ctx, m, 1e-4, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	accB, err := sys.EvaluateModelAtBER(ctx, &back, 1e-4, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	if accA != accB {
		t.Fatalf("reloaded model diverged: %v vs %v", accA, accB)
	}
}

// A DeviceProfile must round-trip through JSON exactly.
func TestDeviceProfileJSONRoundTrip(t *testing.T) {
	sys := tinySystem(t)
	profile, err := sys.DeviceProfile(sparkxd.V1100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(profile)
	if err != nil {
		t.Fatal(err)
	}
	var back sparkxd.DeviceProfile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(profile, &back) {
		t.Fatal("device profile did not round-trip exactly")
	}
}

// Persisting the improved model and tolerance report, then resuming a
// fresh pipeline from them, must reproduce Map + EvaluateUnderErrors +
// EnergyReport bit-identically — without retraining.
func TestPipelineResumeFromArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	sys := tinySystem(t)
	ctx := context.Background()
	res, err := sys.Pipeline().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	st, err := sparkxd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	modelKey, err := sparkxd.PutArtifact(st, res.Improved)
	if err != nil {
		t.Fatal(err)
	}
	tolKey, err := sparkxd.PutArtifact(st, res.Tolerance)
	if err != nil {
		t.Fatal(err)
	}

	m, err := sparkxd.GetTrainedModel(st, modelKey)
	if err != nil {
		t.Fatal(err)
	}
	tol, err := sparkxd.GetToleranceReport(st, tolKey)
	if err != nil {
		t.Fatal(err)
	}

	resumed := sys.Pipeline()
	resumed.Improved = m
	resumed.Tolerance = tol
	if _, err := resumed.Map(ctx); err != nil {
		t.Fatal(err)
	}
	ev, err := resumed.EvaluateUnderErrors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	en, err := resumed.EnergyReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy != res.Evaluation.Accuracy {
		t.Errorf("resumed accuracy %v != original %v", ev.Accuracy, res.Evaluation.Accuracy)
	}
	if !reflect.DeepEqual(en, res.Energy) {
		t.Errorf("resumed energy report diverged: %+v vs %+v", en, res.Energy)
	}

	// The placement artifact itself round-trips too, and its rebuilt
	// layout drives an identical energy report.
	plKey, err := sparkxd.PutArtifact(st, res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sparkxd.GetPlacement(st, plKey)
	if err != nil {
		t.Fatal(err)
	}
	again := sys.Pipeline()
	again.Improved = m
	again.Tolerance = tol
	again.Placement = pl
	en2, err := again.EnergyReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(en2, res.Energy) {
		t.Errorf("placement-resumed energy report diverged: %+v vs %+v", en2, res.Energy)
	}
}

// Cancellation mid-Train must surface promptly as context.Canceled and
// ErrCancelled.
func TestCancellationMidTrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled bool
	sys := tinySystem(t, sparkxd.WithObserver(func(ev sparkxd.Event) {
		// Cancel as soon as the stage starts: the per-sample ctx checks
		// inside the epoch loop must abort the stage mid-epoch.
		if ev.Stage == "train" && ev.Phase == "start" && !cancelled {
			cancelled = true
			cancel()
		}
	}))
	start := time.Now()
	_, err := sys.Pipeline().Train(ctx)
	if err == nil {
		t.Fatal("cancelled Train returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) is false: %v", err)
	}
	if !errors.Is(err, sparkxd.ErrCancelled) {
		t.Errorf("errors.Is(err, sparkxd.ErrCancelled) is false: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// Cancellation mid-AnalyzeTolerance must likewise return promptly with
// context.Canceled.
func TestCancellationMidAnalyzeTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	actx, cancel := context.WithCancel(ctx)
	var cancelled bool
	sys := tinySystem(t, sparkxd.WithObserver(func(ev sparkxd.Event) {
		if ev.Stage == "analyze" && !cancelled {
			cancelled = true
			cancel()
		}
	}))
	p := sys.Pipeline()
	if _, err := p.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImproveTolerance(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := p.AnalyzeTolerance(actx)
	if err == nil {
		t.Fatal("cancelled AnalyzeTolerance returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) is false: %v", err)
	}
	if !errors.Is(err, sparkxd.ErrCancelled) {
		t.Errorf("errors.Is(err, sparkxd.ErrCancelled) is false: %v", err)
	}
	if p.Tolerance != nil {
		t.Error("cancelled stage must not store a tolerance artifact")
	}
}

// Stage preconditions and capacity failures surface as the public
// sentinels through errors.Is. (Damaged stored artifacts are covered by
// TestArtifactStoreCorruptFile.)
func TestSentinelErrors(t *testing.T) {
	sys := tinySystem(t)
	ctx := context.Background()

	// Missing artifacts.
	p := sys.Pipeline()
	if _, err := p.ImproveTolerance(ctx); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Errorf("ImproveTolerance without baseline: %v", err)
	}
	if _, err := p.Map(ctx); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Errorf("Map without model: %v", err)
	}
	if _, err := p.EvaluateUnderErrors(ctx); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Errorf("EvaluateUnderErrors without placement: %v", err)
	}
	if _, err := p.EnergyReport(ctx); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Errorf("EnergyReport without placement: %v", err)
	}

	// No safe subarrays: a threshold no subarray can satisfy at an
	// aggressive voltage must surface ErrNoSafeSubarrays from Map.
	if testing.Short() {
		t.Skip("training part skipped in -short mode")
	}
	p2 := sys.Pipeline()
	if _, err := p2.Train(ctx); err != nil {
		t.Fatal(err)
	}
	p2.Improved = p2.Baseline
	p2.Tolerance = &sparkxd.ToleranceReport{BERth: 1e-15}
	_, err := p2.Map(ctx)
	if !errors.Is(err, sparkxd.ErrNoSafeSubarrays) {
		t.Errorf("Map with impossible threshold: want ErrNoSafeSubarrays, got %v", err)
	}
	// MapAdaptive must relax instead of failing.
	pl, err := p2.MapAdaptive(ctx)
	if err != nil {
		t.Fatalf("MapAdaptive must relax and succeed: %v", err)
	}
	if pl.EffectiveBERth <= pl.RequestedBERth {
		t.Error("MapAdaptive must report the relaxed threshold")
	}
}

// Observer events must arrive in stage order with coherent phases.
func TestObserverEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	var events []sparkxd.Event
	sys := tinySystem(t, sparkxd.WithObserver(func(ev sparkxd.Event) {
		events = append(events, ev)
	}))
	if _, err := sys.Pipeline().Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Stage] = true
	}
	for _, stage := range []string{"train", "improve", "analyze", "map", "evaluate", "energy"} {
		if !seen[stage] {
			t.Errorf("no event from stage %q", stage)
		}
	}
}
