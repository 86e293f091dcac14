// Tests of the job-spec identity scheme: normalization fills defaults,
// equivalent specs hash to the same deterministic ID, and invalid specs
// are rejected with ErrInvalidJobSpec.
package sparkxd_test

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparkxd"
)

func TestJobSpecIDDeterministic(t *testing.T) {
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{Neurons: 100}}
	id1, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("same spec, different IDs: %s vs %s", id1, id2)
	}
	if len(id1) != 32 {
		t.Errorf("ID %q is not 32 hex chars", id1)
	}
}

// Specs that resolve to the same work must share an ID: explicit
// defaults, omitted defaults, and case variants of enum names all
// normalize to one canonical form.
func TestJobSpecIDNormalization(t *testing.T) {
	base := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{Neurons: 400}}
	variants := []sparkxd.JobSpec{
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{}}, // 400 is the default
		{Kind: sparkxd.JobPipeline, Stage: "energy", // "" means the full pipeline
			Config: sparkxd.ConfigSpec{Neurons: 400, Dataset: "MNIST"}}, // case-insensitive
		{Kind: sparkxd.JobPipeline,
			Config: sparkxd.ConfigSpec{Neurons: 400, ErrorModel: "Uniform", Quantization: "FP32"}},
	}
	want, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		got, err := v.ID()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got != want {
			t.Errorf("variant %d: ID %s != base %s (equivalent specs must dedup)", i, got, want)
		}
	}

	// A genuinely different spec must not collide.
	other := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{Neurons: 200}}
	otherID, err := other.ID()
	if err != nil {
		t.Fatal(err)
	}
	if otherID == want {
		t.Error("different neuron counts produced the same job ID")
	}
	stage := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: sparkxd.ConfigSpec{Neurons: 400}}
	stageID, err := stage.ID()
	if err != nil {
		t.Fatal(err)
	}
	if stageID == want {
		t.Error("different stages produced the same job ID")
	}
}

// Sweep axes are normalized against the configuration exactly as
// Pipeline.Sweep resolves them, so an explicit default axis and an
// omitted one name the same job. Workers never affect identity.
func TestJobSpecSweepNormalization(t *testing.T) {
	implicit := sparkxd.JobSpec{Kind: sparkxd.JobSweep,
		Config: sparkxd.ConfigSpec{Voltage: 1.1, BERSchedule: []float64{1e-5, 1e-4}}}
	explicit := sparkxd.JobSpec{Kind: sparkxd.JobSweep,
		Config: sparkxd.ConfigSpec{Voltage: 1.1, BERSchedule: []float64{1e-5, 1e-4}},
		Sweep: &sparkxd.SweepSpec{
			Voltages:    []float64{1.1},
			BERs:        []float64{1e-5, 1e-4},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
			Policies:    []sparkxd.Policy{"SparkXD"}, // case-normalized
			Workers:     7,                           // execution detail, not identity
		}}
	a, err := implicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("implicit (%s) and explicit-default (%s) sweep specs must share an ID", a, b)
	}

	norm, err := explicit.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Sweep.Workers != 0 {
		t.Errorf("normalized spec kept Workers = %d", norm.Sweep.Workers)
	}
	if len(norm.Sweep.Policies) != 1 || norm.Sweep.Policies[0] != sparkxd.PolicySparkXD {
		t.Errorf("normalized policies = %v", norm.Sweep.Policies)
	}
}

func TestJobSpecInvalid(t *testing.T) {
	bad := []sparkxd.JobSpec{
		{},                // no kind
		{Kind: "compile"}, // unknown kind
		{Kind: sparkxd.JobPipeline, Stage: "deploy"},                                          // unknown stage
		{Kind: sparkxd.JobPipeline, Sweep: &sparkxd.SweepSpec{}},                              // sweep grid on a pipeline job
		{Kind: sparkxd.JobSweep, Stage: "train"},                                              // stage on a sweep job
		{Kind: sparkxd.JobSweep, Config: sparkxd.ConfigSpec{Dataset: "imagenet"}},             // bad dataset
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{ErrorModel: "gauss"}},          // bad model
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Policies: []sparkxd.Policy{"rr"}}}, // bad policy
		{Kind: sparkxd.JobPipeline, Priority: sparkxd.MaxPriority + 1},                        // priority above range
		{Kind: sparkxd.JobPipeline, Priority: sparkxd.MinPriority - 1},                        // priority below range
		// Grids Pipeline.Sweep refuses.
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{BERs: []float64{0.7}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Voltages: []float64{-1}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Voltages: []float64{math.NaN()}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Voltages: []float64{1.1, 1.1}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{BERs: []float64{1e-5, 1e-5}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelUniform}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Policies: []sparkxd.Policy{"sparkxd", "SparkXD"}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Bitwidths: []int{16, 16}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{PruneLevels: []float64{0.5, 0.5}}},
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Encoders: []sparkxd.Encoder{"ttfs", "time-to-first-spike"}}},
		// Configurations New refuses, on either job kind.
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{Neurons: -5}},
		{Kind: sparkxd.JobSweep, Config: sparkxd.ConfigSpec{Voltage: -1}},
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{BERSchedule: []float64{1e-3, 1e-5}}},
		{Kind: sparkxd.JobSweep, Config: sparkxd.ConfigSpec{AccBound: -0.1}},
		// Non-finite configurations (only Go callers can build them).
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{AccBound: math.NaN()}},
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{Voltage: math.Inf(1)}},
		{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{BERSchedule: []float64{1e-5, math.NaN()}}},
		// A grid past the engine's scenario bound (600 × 500 scenarios).
		{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{Voltages: steps(1.0, 1e-3, 600), BERs: steps(1e-6, 1e-6, 500)}},
	}
	for i, spec := range bad {
		if _, err := spec.Normalized(); !errors.Is(err, sparkxd.ErrInvalidJobSpec) {
			t.Errorf("spec %d: want ErrInvalidJobSpec, got %v", i, err)
		}
		if _, err := spec.ID(); err == nil {
			t.Errorf("spec %d: ID() must fail for an invalid spec", i)
		}
	}
}

// steps returns n values from start in increments of step.
func steps(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// Priority is part of the job's identity — except priority 0, whose
// omitempty serialization keeps pre-priority specs (and every job ID
// minted before the field existed) byte-for-byte unchanged.
func TestJobSpecPriorityIdentity(t *testing.T) {
	base := sparkxd.JobSpec{Kind: sparkxd.JobPipeline}
	zero := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Priority: 0}
	high := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Priority: 10}
	baseID, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	zeroID, err := zero.ID()
	if err != nil {
		t.Fatal(err)
	}
	if zeroID != baseID {
		t.Errorf("explicit priority 0 changed the job ID: %s vs %s", zeroID, baseID)
	}
	highID, err := high.ID()
	if err != nil {
		t.Fatal(err)
	}
	if highID == baseID {
		t.Error("nonzero priority did not change the job ID")
	}
	norm, err := high.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Priority != 10 {
		t.Errorf("normalization changed priority to %d", norm.Priority)
	}
}

// Equal configurations share a fingerprint (and thus a warm System on
// the server); different ones do not.
func TestConfigFingerprint(t *testing.T) {
	a, err := sparkxd.ConfigSpec{Neurons: 400, Dataset: "MNIST"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sparkxd.ConfigSpec{Dataset: "mnist"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equivalent configs fingerprint differently: %s vs %s", a, b)
	}
	c, err := sparkxd.ConfigSpec{Neurons: 200}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different configs share a fingerprint")
	}
}

// A pipeline job and a sweep job over the same configuration share the
// engine fingerprint but never the job ID.
func TestJobKindsDistinct(t *testing.T) {
	p := sparkxd.JobSpec{Kind: sparkxd.JobPipeline}
	s := sparkxd.JobSpec{Kind: sparkxd.JobSweep}
	pid, err := p.ID()
	if err != nil {
		t.Fatal(err)
	}
	sid, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	if pid == sid {
		t.Error("pipeline and sweep jobs share an ID")
	}
}

// goldenJobSpecs reconstructs the exact specs whose IDs were captured in
// testdata/golden/job_ids.json before the N-axis refactor. Their IDs
// must never change: job identity is the dedup key of the whole fleet.
func goldenJobSpecs() map[string]sparkxd.JobSpec {
	return map[string]sparkxd.JobSpec{
		"pipeline-default": {Kind: sparkxd.JobPipeline},
		"pipeline-train": {Kind: sparkxd.JobPipeline, Stage: "train",
			Config: sparkxd.ConfigSpec{Neurons: 100}},
		"sweep-default": {Kind: sparkxd.JobSweep},
		"sweep-explicit": {Kind: sparkxd.JobSweep,
			Config: sparkxd.ConfigSpec{Voltage: 1.1, BERSchedule: []float64{1e-5, 1e-4}},
			Sweep: &sparkxd.SweepSpec{
				Voltages:    []float64{1.1},
				BERs:        []float64{1e-5, 1e-4},
				ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
				Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
			}},
		"sweep-grid": {Kind: sparkxd.JobSweep,
			Config: sparkxd.ConfigSpec{Neurons: 50},
			Sweep: &sparkxd.SweepSpec{
				Voltages:    []float64{1.1, 1.025},
				BERs:        []float64{1e-6, 1e-5, 1e-4},
				ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelDataDependent},
				Policies:    []sparkxd.Policy{sparkxd.PolicyBaseline, sparkxd.PolicySparkXD},
			}},
	}
}

func TestJobSpecGoldenIDs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "job_ids.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	specs := goldenJobSpecs()
	if len(golden) != len(specs) {
		t.Fatalf("golden file has %d entries, test reconstructs %d", len(golden), len(specs))
	}
	for name, spec := range specs {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id != want {
			t.Errorf("%s: job ID drifted: got %s, golden %s", name, id, want)
		}
	}
}

func TestJobSpecExtendedAxisDefaultElision(t *testing.T) {
	// Spelling out the default value of every extended axis must elide
	// back to the omitted form: identical job ID, identical normalized
	// spec.
	base := sparkxd.JobSpec{Kind: sparkxd.JobSweep}
	spelled := sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{
		Bitwidths:   []int{32}, // default config quantization is fp32
		PruneLevels: []float64{0},
		Encoders:    []sparkxd.Encoder{sparkxd.EncoderRate},
	}}
	baseID, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	spelledID, err := spelled.ID()
	if err != nil {
		t.Fatal(err)
	}
	if spelledID != baseID {
		t.Errorf("spelled-out default axes changed the job ID: %s vs %s", spelledID, baseID)
	}
	norm, err := spelled.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Sweep.Bitwidths != nil || norm.Sweep.PruneLevels != nil || norm.Sweep.Encoders != nil {
		t.Errorf("default axes survived normalization: %+v", norm.Sweep)
	}

	// Case-insensitive encoder aliases canonicalize to one identity.
	alias := sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{
		Encoders: []sparkxd.Encoder{"Time-To-First-Spike", "BURST"},
	}}
	canon := sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{
		Encoders: []sparkxd.Encoder{sparkxd.EncoderTTFS, sparkxd.EncoderBurst},
	}}
	aliasID, err := alias.ID()
	if err != nil {
		t.Fatal(err)
	}
	canonID, err := canon.ID()
	if err != nil {
		t.Fatal(err)
	}
	if aliasID != canonID {
		t.Errorf("encoder alias spelling changed the job ID: %s vs %s", aliasID, canonID)
	}
	if aliasID == baseID {
		t.Error("non-default encoder axis did not change the job ID")
	}

	// A non-default bitwidth under a non-default quantization elides too:
	// fp16 config + [16] axis is the default again.
	fp16Base := sparkxd.JobSpec{Kind: sparkxd.JobSweep,
		Config: sparkxd.ConfigSpec{Quantization: "fp16"}}
	fp16Spelled := sparkxd.JobSpec{Kind: sparkxd.JobSweep,
		Config: sparkxd.ConfigSpec{Quantization: "fp16"},
		Sweep:  &sparkxd.SweepSpec{Bitwidths: []int{16}}}
	fp16BaseID, err := fp16Base.ID()
	if err != nil {
		t.Fatal(err)
	}
	fp16SpelledID, err := fp16Spelled.ID()
	if err != nil {
		t.Fatal(err)
	}
	if fp16SpelledID != fp16BaseID {
		t.Errorf("bitwidth 16 under fp16 config changed the job ID: %s vs %s", fp16SpelledID, fp16BaseID)
	}
}

func TestJobSpecExtendedAxisInvalid(t *testing.T) {
	cases := []struct {
		name string
		sw   sparkxd.SweepSpec
	}{
		{"bitwidth 8", sparkxd.SweepSpec{Bitwidths: []int{8}}},
		{"prune 1.0", sparkxd.SweepSpec{PruneLevels: []float64{1.0}}},
		{"prune negative", sparkxd.SweepSpec{PruneLevels: []float64{-0.1}}},
		{"unknown encoder", sparkxd.SweepSpec{Encoders: []sparkxd.Encoder{"morse"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.sw
			spec := sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sw}
			if _, err := spec.Normalized(); !errors.Is(err, sparkxd.ErrInvalidJobSpec) {
				t.Errorf("err = %v, want ErrInvalidJobSpec", err)
			}
		})
	}
}

// A −0 on a float axis of a job spec is the point 0: it must not give
// the job a second ID, and the normalized spec holds no −0.
func TestJobSpecNegativeZeroIsZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name      string
		neg, zero sparkxd.JobSpec
	}{
		{"sweep BERs",
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{BERs: []float64{negZero, 1e-5}}},
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{BERs: []float64{0, 1e-5}}}},
		{"sweep prune levels",
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{PruneLevels: []float64{negZero, 0.5}}},
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Sweep: &sparkxd.SweepSpec{PruneLevels: []float64{0, 0.5}}}},
		{"BER schedule",
			sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{BERSchedule: []float64{negZero, 1e-3}}},
			sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: sparkxd.ConfigSpec{BERSchedule: []float64{0, 1e-3}}}},
		{"BER schedule a sweep defaults to",
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Config: sparkxd.ConfigSpec{BERSchedule: []float64{negZero, 1e-3}}},
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Config: sparkxd.ConfigSpec{BERSchedule: []float64{0, 1e-3}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			negID, err := tc.neg.ID()
			if err != nil {
				t.Fatal(err)
			}
			zeroID, err := tc.zero.ID()
			if err != nil {
				t.Fatal(err)
			}
			if negID != zeroID {
				t.Errorf("-0 spec ID %s, 0 spec ID %s", negID, zeroID)
			}
			norm, err := tc.neg.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			axes := [][]float64{norm.Config.BERSchedule}
			if sw := norm.Sweep; sw != nil {
				axes = append(axes, sw.Voltages, sw.BERs, sw.PruneLevels)
			}
			for _, axis := range axes {
				for _, x := range axis {
					if x == 0 && math.Signbit(x) {
						t.Errorf("normalized spec keeps a -0: %+v", norm)
					}
				}
			}
		})
	}
}

// FuzzJobSpecNormalize feeds raw JSON to the job-spec trust boundary.
// For every spec that decodes and normalizes: New accepts its
// configuration and ValidateSweep its grid, normalization is idempotent,
// re-encoding the spec as JSON keeps its ID, and writing every −0 as 0
// keeps its ID too.
func FuzzJobSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec sparkxd.JobSpec
		if json.Unmarshal(raw, &spec) != nil {
			return
		}
		norm, err := spec.Normalized()
		if err != nil {
			return
		}
		opts, err := norm.Config.Options()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sparkxd.New(opts...)
		if err != nil {
			t.Fatalf("Normalized accepted a configuration New refuses: %v", err)
		}
		if norm.Sweep != nil {
			if err := sys.ValidateSweep(*norm.Sweep); err != nil {
				t.Fatalf("Normalized accepted a grid ValidateSweep refuses: %v", err)
			}
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("normalized spec fails normalization: %v", err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalization is not idempotent:\n%+v\nthen\n%+v", norm, again)
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}

		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back sparkxd.JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", b, err)
		}
		if backID, err := back.ID(); err != nil || backID != id {
			t.Fatalf("re-encoded spec %s: ID %s, %v; want %s", b, backID, err, id)
		}

		zeroed := spec
		unsign := func(x *float64) {
			if *x == 0 {
				*x = 0
			}
		}
		unsignAll := func(xs []float64) []float64 {
			xs = append([]float64(nil), xs...)
			for i := range xs {
				unsign(&xs[i])
			}
			return xs
		}
		unsign(&zeroed.Config.Voltage)
		unsign(&zeroed.Config.AccBound)
		zeroed.Config.BERSchedule = unsignAll(spec.Config.BERSchedule)
		if spec.Sweep != nil {
			sw := *spec.Sweep
			sw.Voltages = unsignAll(sw.Voltages)
			sw.BERs = unsignAll(sw.BERs)
			sw.PruneLevels = unsignAll(sw.PruneLevels)
			zeroed.Sweep = &sw
		}
		if zeroID, err := zeroed.ID(); err != nil || zeroID != id {
			t.Fatalf("spec with -0 written as 0: ID %s, %v; want %s", zeroID, err, id)
		}
	})
}
