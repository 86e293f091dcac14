package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// testFixture returns a small untrained network and test set — engine
// behaviour (determinism, caching, cancellation) does not depend on
// model quality.
func testFixture(t testing.TB) (*snn.Network, *dataset.Dataset) {
	t.Helper()
	net, err := snn.New(snn.DefaultConfig(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = 4, 12
	_, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, test
}

// gridSpec is a 2 voltages x 3 BERs x 2 kinds x 2 policies = 24-scenario
// grid with 4 distinct device points.
func gridSpec(workers int) Spec {
	return Spec{
		Voltages: []float64{voltscale.V1100, voltscale.V1025},
		BERs:     []float64{1e-6, 1e-5, 1e-4},
		Kinds:    []errmodel.Kind{errmodel.Model0, errmodel.Model3},
		Policies: []string{PolicyBaseline, PolicySparkXD},
		Seed:     11,
		EvalSeed: 17,
		Workers:  workers,
	}
}

// TestSweepDeterministicAcrossWorkers is the core determinism contract
// (and, under -race, the shared-stream detector: if any scenario drew
// from a stream owned by another goroutine, the race detector would
// flag the xoshiro state mutation). Nominal voltage joins the grid so
// that groups of zero-flip scenarios, which share one evaluation, wait
// on each other concurrently.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	net, test := testFixture(t)
	ctx := context.Background()
	grid := func(workers int) Spec {
		spec := gridSpec(workers)
		spec.Voltages = append([]float64{voltscale.VNominal}, spec.Voltages...)
		return spec
	}

	one, err := New(core.NewFramework()).Run(ctx, net, test, grid(1))
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	many, err := New(core.NewFramework()).Run(ctx, net, test, grid(workers))
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("workers=1 and workers=%d diverge:\n%s\n---\n%s", workers, a, b)
	}
	if len(one) != 36 {
		t.Fatalf("got %d results, want 36", len(one))
	}
	for i := 1; i < len(one); i++ {
		if one[i-1].Key >= one[i].Key {
			t.Fatalf("results not sorted by key: %q >= %q", one[i-1].Key, one[i].Key)
		}
	}
}

// TestProfileCacheStats verifies profiles are derived exactly once per
// distinct (voltage, kind) device point: hits == scenarios − points.
func TestProfileCacheStats(t *testing.T) {
	net, test := testFixture(t)
	e := New(core.NewFramework())
	res, err := e.Run(context.Background(), net, test, gridSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.ProfileCacheStats()
	const distinct = 4 // 2 voltages x 2 kinds
	if misses != distinct {
		t.Errorf("profile cache misses = %d, want %d (one derivation per device point)", misses, distinct)
	}
	if want := uint64(len(res)) - distinct; hits != want {
		t.Errorf("profile cache hits = %d, want %d (scenarios - device points)", hits, want)
	}

	// A second sweep over the same grid is fully cache-served.
	if _, err := e.Run(context.Background(), net, test, gridSpec(4)); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := e.ProfileCacheStats()
	if misses2 != distinct {
		t.Errorf("second sweep re-derived profiles: misses %d -> %d", misses, misses2)
	}
	if hits2 != hits+uint64(len(res)) {
		t.Errorf("second sweep hits = %d, want %d", hits2, hits+uint64(len(res)))
	}
}

// TestSweepCancellation: a cancelled sweep stops at scenario boundaries
// with the context's error.
func TestSweepCancellation(t *testing.T) {
	net, test := testFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(core.NewFramework()).Run(ctx, net, test, gridSpec(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestUniformGrid exercises the Fig. 8/11 regime: uniform profiles at
// each BER, no voltage axis, no energy numbers.
func TestUniformGrid(t *testing.T) {
	net, test := testFixture(t)
	spec := Spec{
		Uniform:  true,
		BERs:     []float64{0, 1e-4, 1e-2},
		Kinds:    []errmodel.Kind{errmodel.Model0},
		Policies: []string{PolicyBaseline},
		Seed:     5,
		EvalSeed: 17,
		Workers:  4,
	}
	res, err := New(core.NewFramework()).Run(context.Background(), net, test, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	var byBER = map[float64]Result{}
	for _, r := range res {
		if r.EnergyMJ != 0 || r.HitRate != 0 {
			t.Errorf("uniform scenario %s must not report energy", r.Key)
		}
		byBER[r.BER] = r
	}
	if byBER[0].FlippedBits != 0 {
		t.Errorf("BER 0 flipped %d bits", byBER[0].FlippedBits)
	}
	if byBER[1e-2].FlippedBits <= byBER[1e-4].FlippedBits {
		t.Errorf("flip counts not increasing with BER: %d @1e-4 vs %d @1e-2",
			byBER[1e-4].FlippedBits, byBER[1e-2].FlippedBits)
	}
}

// TestScenarioStreamsDistinct is the RNG-audit guard: the per-scenario
// streams (scheduler-derived from the scenario key) must differ between
// scenarios, so no two grid points share injection randomness.
func TestScenarioStreamsDistinct(t *testing.T) {
	spec := gridSpec(1)
	seen := map[uint64]string{}
	for _, sc := range spec.Scenarios() {
		v := rng.New(spec.Seed).Derive("job/" + sc.Key()).Derive("inject").Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("scenarios %q and %q derive identical streams", prev, sc.Key())
		}
		seen[v] = sc.Key()
	}
}

func TestSpecValidate(t *testing.T) {
	base := gridSpec(1)
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no voltages", func(s *Spec) { s.Voltages = nil }},
		{"no BERs", func(s *Spec) { s.BERs = nil }},
		{"no kinds", func(s *Spec) { s.Kinds = nil }},
		{"no policies", func(s *Spec) { s.Policies = nil }},
		{"negative voltage", func(s *Spec) { s.Voltages = []float64{-1} }},
		{"BER out of range", func(s *Spec) { s.BERs = []float64{0.9} }},
		{"unknown policy", func(s *Spec) { s.Policies = []string{"mystery"} }},
		{"colliding BERs", func(s *Spec) { s.BERs = []float64{1.0000e-5, 1.00004e-5} }},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// uniformSpec matches the second half of the committed scenario-key
// golden: three uniform BER points, no voltage axis.
func uniformSpec() Spec {
	return Spec{
		Uniform:  true,
		BERs:     []float64{0, 1e-4, 1e-2},
		Kinds:    []errmodel.Kind{errmodel.Model0},
		Policies: []string{PolicyBaseline},
		Seed:     5,
		EvalSeed: 17,
	}
}

// TestScenarioKeysGolden pins scenario keys (and therefore cache keys
// and RNG derivation paths) to the committed pre-refactor golden. A
// diff here means existing sweep artifacts and job results silently
// changed identity.
func TestScenarioKeysGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "scenario_keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range append(gridSpec(1).Scenarios(), uniformSpec().Scenarios()...) {
		got = append(got, sc.Key())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d scenario keys, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenario %d key = %q, golden %q", i, got[i], want[i])
		}
	}
}

// multiAxisSpec extends the legacy grid with every new axis: 24 legacy
// scenarios x 2 bitwidths x 2 prune levels x 2 encoders = 192.
func multiAxisSpec(workers int) Spec {
	spec := gridSpec(workers)
	spec.Bitwidths = []int{0, 16}
	spec.PruneLevels = []float64{0, 0.5}
	spec.Encoders = []EncoderAxis{{}, {Name: "ttfs", Coder: coding.TTFS{}}}
	return spec
}

// TestScenarioKeyAxisElision: default axis values leave the key in its
// legacy 4-segment shape; non-defaults append fixed-format suffixes.
func TestScenarioKeyAxisElision(t *testing.T) {
	base := Scenario{Voltage: 1.1, BER: 1e-5, Kind: errmodel.Model0, Policy: PolicyBaseline}
	if got, want := base.Key(), "v1.1000/ber1.000e-05/model0-uniform/baseline"; got != want {
		t.Fatalf("legacy key = %q, want %q", got, want)
	}
	full := base
	full.Bits = 16
	full.Prune = 0.5
	full.Encoder = EncoderAxis{Name: "ttfs", Coder: coding.TTFS{}}
	want := "v1.1000/ber1.000e-05/model0-uniform/baseline/bw16/pr0.5000/enc-ttfs"
	if got := full.Key(); got != want {
		t.Fatalf("extended key = %q, want %q", got, want)
	}

	// Suffixes are independent: each non-default axis appears alone.
	one := base
	one.Prune = 0.25
	if got, want := one.Key(), base.Key()+"/pr0.2500"; got != want {
		t.Fatalf("prune-only key = %q, want %q", got, want)
	}
}

// TestMultiAxisScenarioEnumeration: the grid is the full cross product
// and every key is distinct (so per-scenario RNG streams stay distinct
// on new axes too).
func TestMultiAxisScenarioEnumeration(t *testing.T) {
	spec := multiAxisSpec(1)
	scs := spec.Scenarios()
	if len(scs) != 192 {
		t.Fatalf("got %d scenarios, want 192 (24 legacy x 2 x 2 x 2)", len(scs))
	}
	seenKey := map[string]bool{}
	seenStream := map[uint64]string{}
	for _, sc := range scs {
		k := sc.Key()
		if seenKey[k] {
			t.Fatalf("duplicate scenario key %q", k)
		}
		seenKey[k] = true
		v := rng.New(spec.Seed).Derive("job/" + k).Derive("inject").Uint64()
		if prev, dup := seenStream[v]; dup {
			t.Fatalf("scenarios %q and %q derive identical streams", prev, k)
		}
		seenStream[v] = k
	}
}

// TestMultiAxisDeterministicAcrossWorkers extends the workers-1-vs-N
// byte-identity contract (DESIGN.md §7) to the bitwidth, pruning, and
// encoder axes.
func TestMultiAxisDeterministicAcrossWorkers(t *testing.T) {
	net, test := testFixture(t)
	ctx := context.Background()

	// Trim the BER axis and swap the low voltage for nominal, whose
	// scenarios flip no bit and share evaluations, to keep the grid small:
	// 2x1x2x2 legacy x 2 bitwidths x 2 prune levels x 2 encoders = 64
	// scenarios.
	shrink := func(workers int) Spec {
		spec := multiAxisSpec(workers)
		spec.Voltages = []float64{voltscale.VNominal, spec.Voltages[0]}
		spec.BERs = spec.BERs[:1]
		return spec
	}
	one, err := New(core.NewFramework()).Run(ctx, net, test, shrink(1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := New(core.NewFramework()).Run(ctx, net, test, shrink(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("workers=1 and workers=8 diverge on extended axes:\n%s\n---\n%s", a, b)
	}
	if len(one) != 64 {
		t.Fatalf("got %d results, want 64", len(one))
	}
	for _, r := range one {
		if r.Bitwidth != 0 && r.Bitwidth != 16 {
			t.Errorf("result %s echoes bitwidth %d", r.Key, r.Bitwidth)
		}
		if r.Encoder != "" && r.Encoder != "ttfs" {
			t.Errorf("result %s echoes encoder %q", r.Key, r.Encoder)
		}
	}
}

// TestSpecValidateExtendedAxes covers the new-axis rejections.
func TestSpecValidateExtendedAxes(t *testing.T) {
	base := gridSpec(1)
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unsupported bitwidth", func(s *Spec) { s.Bitwidths = []int{8} }},
		{"negative prune", func(s *Spec) { s.PruneLevels = []float64{-0.1} }},
		{"prune of everything", func(s *Spec) { s.PruneLevels = []float64{1} }},
		{"encoder name without coder", func(s *Spec) { s.Encoders = []EncoderAxis{{Name: "ttfs"}} }},
		{"encoder coder without name", func(s *Spec) { s.Encoders = []EncoderAxis{{Coder: coding.TTFS{}}} }},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	valid := multiAxisSpec(1)
	if err := valid.Validate(); err != nil {
		t.Errorf("valid multi-axis spec rejected: %v", err)
	}
}
