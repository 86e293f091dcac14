package sparkxd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparkxd"
)

// sweepGrid is a 24-scenario grid (2 voltages x 3 BERs x 2 error models
// x 2 policies) with 4 distinct device points.
func sweepGrid(workers int) sparkxd.SweepSpec {
	return sparkxd.SweepSpec{
		Voltages:    []float64{sparkxd.V1100, sparkxd.V1025},
		BERs:        []float64{1e-6, 1e-5, 1e-4},
		ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelDataDependent},
		Policies:    []sparkxd.Policy{sparkxd.PolicyBaseline, sparkxd.PolicySparkXD},
		Workers:     workers,
	}
}

// trainedPipeline returns a pipeline with a trained baseline model on
// the given system.
func trainedPipeline(t testing.TB, sys *sparkxd.System) *sparkxd.Pipeline {
	t.Helper()
	p := sys.Pipeline()
	if _, err := p.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSweepDeterministicAcrossWorkers is the acceptance check of the
// sweep engine at SDK level: a >= 24-scenario grid produces byte-
// identical JSON at workers=1 and workers=8.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	p1 := trainedPipeline(t, tinySystem(t))
	r1, err := p1.Sweep(ctx, sweepGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	p8 := trainedPipeline(t, tinySystem(t))
	r8, err := p8.Sweep(ctx, sweepGrid(8))
	if err != nil {
		t.Fatal(err)
	}

	j1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j8, err := json.MarshalIndent(r8, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j8) {
		t.Fatalf("workers=1 and workers=8 sweep reports diverge:\n%s\n---\n%s", j1, j8)
	}
	if len(r1.Points) != 24 {
		t.Fatalf("got %d points, want 24", len(r1.Points))
	}
	for i := 1; i < len(r1.Points); i++ {
		if r1.Points[i-1].Key >= r1.Points[i].Key {
			t.Fatalf("points not sorted by key: %q >= %q", r1.Points[i-1].Key, r1.Points[i].Key)
		}
	}
}

// TestSweepProfileCacheStats verifies each (voltage, error model) device
// point derives its profile exactly once.
func TestSweepProfileCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	sys := tinySystem(t)
	p := trainedPipeline(t, sys)
	rep, err := p.Sweep(context.Background(), sweepGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := sys.SweepCacheStats()
	const distinct = 4 // 2 voltages x 2 error models
	if misses != distinct {
		t.Errorf("profile derivations = %d, want %d", misses, distinct)
	}
	if want := uint64(len(rep.Points)) - distinct; hits != want {
		t.Errorf("profile cache hits = %d, want %d (scenarios - device points)", hits, want)
	}
}

// TestSweepCancelled: a pre-cancelled sweep fails with ErrCancelled at a
// scenario boundary.
func TestSweepCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	p := trainedPipeline(t, tinySystem(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Sweep(ctx, sweepGrid(2))
	if !errors.Is(err, sparkxd.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled beneath ErrCancelled", err)
	}
}

// TestEvaluateUnderErrorsCancelledAtPointBoundary: a cancelled context
// stops EvaluateUnderErrors before the corruption pass, with the public
// sentinel.
func TestEvaluateUnderErrorsCancelledAtPointBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	ctx := context.Background()
	p := trainedPipeline(t, tinySystem(t))
	if _, err := p.AnalyzeTolerance(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapAdaptive(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.EvaluateUnderErrors(cctx); !errors.Is(err, sparkxd.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// The same pre-cancelled context must stop AnalyzeTolerance at a BER
	// point boundary too.
	if _, err := p.AnalyzeTolerance(cctx); !errors.Is(err, sparkxd.ErrCancelled) {
		t.Fatalf("AnalyzeTolerance err = %v, want ErrCancelled", err)
	}
}

// TestSweepInvalidSpec: malformed grids fail with ErrInvalidSweep before
// any evaluation.
func TestSweepInvalidSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	p := trainedPipeline(t, tinySystem(t))
	cases := []struct {
		name string
		spec sparkxd.SweepSpec
	}{
		{"BER out of range", sparkxd.SweepSpec{BERs: []float64{0.9}}},
		{"negative voltage", sparkxd.SweepSpec{Voltages: []float64{-1}}},
		{"unknown policy", sparkxd.SweepSpec{Policies: []sparkxd.Policy{"mystery"}}},
	}
	for _, tc := range cases {
		if _, err := p.Sweep(context.Background(), tc.spec); !errors.Is(err, sparkxd.ErrInvalidSweep) {
			t.Errorf("%s: err = %v, want ErrInvalidSweep", tc.name, err)
		}
	}
}

// TestValidateSweep: the model-free pre-flight validator accepts the
// default grid and rejects malformed ones with the sentinel.
func TestValidateSweep(t *testing.T) {
	sys := tinySystem(t)
	if err := sys.ValidateSweep(sparkxd.SweepSpec{}); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec sparkxd.SweepSpec
	}{
		{"BER out of range", sparkxd.SweepSpec{BERs: []float64{0.9}}},
		// NaN fails every comparison, so each axis needs a range test
		// that NaN cannot pass.
		{"NaN prune level", sparkxd.SweepSpec{PruneLevels: []float64{math.NaN()}}},
		{"NaN BER", sparkxd.SweepSpec{BERs: []float64{math.NaN()}}},
		{"NaN voltage", sparkxd.SweepSpec{Voltages: []float64{math.NaN()}}},
		{"infinite voltage", sparkxd.SweepSpec{Voltages: []float64{math.Inf(1)}}},
		// −0 is 0, so a grid holding both names one point twice.
		{"BER -0 beside 0", sparkxd.SweepSpec{BERs: []float64{0, math.Copysign(0, -1)}}},
		{"BER -0 beside 0 with prune levels", sparkxd.SweepSpec{
			BERs: []float64{math.Copysign(0, -1), 1e-5, 0}, PruneLevels: []float64{0, 0.5}}},
	}
	for _, tc := range cases {
		if err := sys.ValidateSweep(tc.spec); !errors.Is(err, sparkxd.ErrInvalidSweep) {
			t.Errorf("%s: err = %v, want ErrInvalidSweep", tc.name, err)
		}
	}
}

// TestSweepNeedsModel: sweeping an empty pipeline reports the missing
// artifact.
func TestSweepNeedsModel(t *testing.T) {
	p := tinySystem(t).Pipeline()
	if _, err := p.Sweep(context.Background(), sparkxd.SweepSpec{}); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Fatalf("err = %v, want ErrMissingArtifact", err)
	}
}

// TestSweepReportRoundTrip: the artifact survives PutArtifact /
// GetSweepReport through a filesystem store losslessly.
func TestSweepReportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	p := trainedPipeline(t, tinySystem(t))
	rep, err := p.Sweep(context.Background(), sparkxd.SweepSpec{
		BERs:    []float64{1e-5, 1e-4},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults resolved: configured voltage, error model, sparkxd policy.
	if len(rep.Voltages) != 1 || len(rep.Policies) != 1 || rep.Policies[0] != sparkxd.PolicySparkXD {
		t.Fatalf("defaults not applied: %+v", rep)
	}
	st, err := sparkxd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := sparkxd.PutArtifact(st, rep)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sparkxd.GetSweepReport(st, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, loaded) {
		t.Fatalf("round trip mismatch:\nsaved:  %+v\nloaded: %+v", rep, loaded)
	}
}

// TestSweepReportGolden byte-compares a full sweep artifact against the
// committed pre-refactor golden: the N-axis refactor must not move a
// single byte of existing reports (field order, axis echoes, point
// values, or formatting).
func TestSweepReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "sweep_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	p := trainedPipeline(t, tinySystem(t))
	rep, err := p.Sweep(context.Background(), sparkxd.SweepSpec{
		BERs:    []float64{1e-5, 1e-4},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep artifact diverged from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// multiAxisGrid extends the legacy grid with every new axis; trimmed to
// 1 voltage x 1 BER so the cross product stays at 32 scenarios.
func multiAxisGrid(workers int) sparkxd.SweepSpec {
	spec := sweepGrid(workers)
	spec.Voltages = spec.Voltages[:1]
	spec.BERs = spec.BERs[:1]
	spec.Bitwidths = []int{32, 16}
	spec.PruneLevels = []float64{0, 0.5}
	spec.Encoders = []sparkxd.Encoder{sparkxd.EncoderRate, sparkxd.EncoderTTFS}
	return spec
}

// TestSweepMultiAxisDeterministicAcrossWorkers: the workers-1-vs-8
// byte-identity contract holds on the bitwidth, pruning, and encoder
// axes, and the report echoes the resolved axes.
func TestSweepMultiAxisDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	p := trainedPipeline(t, tinySystem(t))
	one, err := p.Sweep(context.Background(), multiAxisGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := p.Sweep(context.Background(), multiAxisGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.MarshalIndent(one, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(many, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=8 diverge on extended axes:\n%s\n---\n%s", a, b)
	}
	if len(one.Points) != 32 {
		t.Fatalf("got %d points, want 32 (4 legacy x 2 x 2 x 2)", len(one.Points))
	}
	if !reflect.DeepEqual(one.Bitwidths, []int{32, 16}) {
		t.Errorf("bitwidth echo = %v", one.Bitwidths)
	}
	if !reflect.DeepEqual(one.PruneLevels, []float64{0, 0.5}) {
		t.Errorf("prune echo = %v", one.PruneLevels)
	}
	if !reflect.DeepEqual(one.Encoders, []sparkxd.Encoder{sparkxd.EncoderRate, sparkxd.EncoderTTFS}) {
		t.Errorf("encoder echo = %v", one.Encoders)
	}
	// Per-value elision: the default bitwidth (fp32 config) and rate
	// encoder report as zero values; non-defaults echo through points.
	var sawBW16, sawTTFS, sawPruned bool
	for _, pt := range one.Points {
		switch pt.Bitwidth {
		case 0:
		case 16:
			sawBW16 = true
		default:
			t.Fatalf("point %v echoes bitwidth %d", pt, pt.Bitwidth)
		}
		if pt.Encoder == sparkxd.EncoderTTFS {
			sawTTFS = true
		}
		if pt.PruneLevel == 0.5 {
			sawPruned = true
		}
	}
	if !sawBW16 || !sawTTFS || !sawPruned {
		t.Fatalf("points missing extended-axis echoes: bw16=%v ttfs=%v pruned=%v", sawBW16, sawTTFS, sawPruned)
	}
}

// TestSweepDefaultAxisElision: spelling out the single default value of
// each new axis resolves to the identical report shape as omitting it
// (the axis echo collapses to nil).
func TestSweepDefaultAxisElision(t *testing.T) {
	sys := tinySystem(t)
	spelled := sparkxd.SweepSpec{
		Bitwidths:   []int{32},
		PruneLevels: []float64{0},
		Encoders:    []sparkxd.Encoder{sparkxd.EncoderRate},
	}
	if err := sys.ValidateSweep(spelled); err != nil {
		t.Fatalf("spelled-out defaults rejected: %v", err)
	}
	bad := sparkxd.SweepSpec{Bitwidths: []int{8}}
	if err := sys.ValidateSweep(bad); !errors.Is(err, sparkxd.ErrInvalidSweep) {
		t.Fatalf("bitwidth 8: err = %v, want ErrInvalidSweep", err)
	}
	bad = sparkxd.SweepSpec{PruneLevels: []float64{1}}
	if err := sys.ValidateSweep(bad); !errors.Is(err, sparkxd.ErrInvalidSweep) {
		t.Fatalf("prune 1.0: err = %v, want ErrInvalidSweep", err)
	}
	bad = sparkxd.SweepSpec{Encoders: []sparkxd.Encoder{"morse"}}
	if err := sys.ValidateSweep(bad); !errors.Is(err, sparkxd.ErrInvalidSweep) {
		t.Fatalf("unknown encoder: err = %v, want ErrInvalidSweep", err)
	}
}

// TestSweepNegativeZeroIsZero: a −0 BER or prune level is the point 0 —
// same scenario keys, random streams and report bytes.
func TestSweepNegativeZeroIsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	p := trainedPipeline(t, tinySystem(t))
	negZero := math.Copysign(0, -1)
	report := func(bers, prune []float64) []byte {
		rep, err := p.Sweep(context.Background(), sparkxd.SweepSpec{
			BERs: bers, PruneLevels: prune, Policies: []sparkxd.Policy{sparkxd.PolicyBaseline}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := report([]float64{0, 1e-3}, []float64{0, 0.5})
	if got := report([]float64{negZero, 1e-3}, []float64{negZero, 0.5}); !bytes.Equal(got, want) {
		t.Errorf("-0 sweep report:\n%s\nwant the 0 report:\n%s", got, want)
	}
}
