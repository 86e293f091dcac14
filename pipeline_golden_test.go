package sparkxd_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sparkxd"
)

// pipelineGoldenConfigs are the fixed configurations whose stage
// artifacts testdata/golden/pipeline_digests.json pins. The first walks
// the paper's default 7-rate schedule and keeps its last model; the
// second changes the dataset, seed, schedule, epochs per rate and stored
// format, and its last rate misses the bound, so the improved model is
// the one trained at the middle rate.
func pipelineGoldenConfigs() map[string][]sparkxd.Option {
	return map[string][]sparkxd.Option{
		"mnist-n40-default-schedule": {
			sparkxd.WithNeurons(40),
			sparkxd.WithSampleBudget(60, 32),
			sparkxd.WithBaseEpochs(1),
			sparkxd.WithSweepWorkers(2),
		},
		"fashion-n30-fp16": {
			sparkxd.WithDataset(sparkxd.Fashion),
			sparkxd.WithNeurons(30),
			sparkxd.WithSampleBudget(50, 24),
			sparkxd.WithBaseEpochs(2),
			sparkxd.WithBERSchedule(1e-6, 1e-3, 1e-2),
			sparkxd.WithEpochsPerRate(2),
			sparkxd.WithSeed(2),
			sparkxd.WithQuantization(sparkxd.FP16),
			sparkxd.WithSweepWorkers(3),
		},
	}
}

// pipelineDigests runs the six stages and returns the SHA-256 of each
// stage artifact's JSON, taken as soon as the stage returns it.
func pipelineDigests(t *testing.T, opts []sparkxd.Option) map[string]string {
	t.Helper()
	sys, err := sparkxd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := sys.Pipeline()
	out := map[string]string{}
	digest := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	m, err := p.Train(ctx)
	digest("baseline", m, err)
	m, err = p.ImproveTolerance(ctx)
	digest("improved", m, err)
	tol, err := p.AnalyzeTolerance(ctx)
	digest("tolerance", tol, err)
	pl, err := p.MapAdaptive(ctx)
	digest("placement", pl, err)
	ev, err := p.EvaluateUnderErrors(ctx)
	digest("evaluation", ev, err)
	en, err := p.EnergyReport(ctx)
	digest("energy", en, err)
	return out
}

// TestPipelineDigestsGolden pins every stage artifact of the whole
// Fig. 7 flow, Train through EnergyReport, to digests recorded before
// the training path was parallelized: performance work on any stage
// must leave every artifact byte-identical. On a mismatch the test logs
// this run's digests; replace the golden with them only for an intended
// change of results.
func TestPipelineDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "pipeline_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	configs := pipelineGoldenConfigs()
	if len(want) != len(configs) {
		t.Fatalf("golden has %d configs, test runs %d", len(want), len(configs))
	}
	got := map[string]map[string]string{}
	for name, opts := range configs {
		got[name] = pipelineDigests(t, opts)
		stages := make([]string, 0, len(want[name]))
		for stage := range want[name] {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		if len(stages) != len(got[name]) {
			t.Errorf("%s: golden has %d artifacts, run produced %d", name, len(stages), len(got[name]))
		}
		for _, stage := range stages {
			if got[name][stage] != want[name][stage] {
				t.Errorf("%s: %s artifact diverged from the golden: sha256 %s, want %s",
					name, stage, got[name][stage], want[name][stage])
			}
		}
	}
	if t.Failed() {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests of this run:\n%s", b)
	}
}
