package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sparkxd/internal/core"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/quant"
)

// formatGridSpec is the grid testdata/format_grid_digests.json pins for
// each framework format: uniform BERs from zero (no flip) to 1e-2
// (thousands of flipped bits), all four error models, the bitwidth axis
// and two nonzero prune levels.
func formatGridSpec() Spec {
	return Spec{
		Uniform:     true,
		BERs:        []float64{0, 1e-4, 1e-2},
		Kinds:       []errmodel.Kind{errmodel.Model0, errmodel.Model1, errmodel.Model2, errmodel.Model3},
		Policies:    []string{PolicyBaseline},
		Bitwidths:   []int{0, 16, 32},
		PruneLevels: []float64{0, 0.3, 0.7},
		Seed:        29,
		EvalSeed:    31,
		Workers:     2,
	}
}

// TestFormatGridDigestsGolden pins the SHA-256 of the results of one
// 108-scenario grid per framework stored format (FP32, FP16, Q8.8) to
// digests recorded before scenarios decoded only their flipped weights:
// the way a scenario corrupts, decodes and loads its weights must leave
// every accuracy and flip count byte-identical. On a mismatch the test
// logs this run's digests; replace the golden with them only for an
// intended change of results.
func TestFormatGridDigestsGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "format_grid_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	net, test := shareFixture(t)
	got := map[string]string{}
	var zero, high int
	for _, format := range []quant.Format{quant.FP32, quant.FP16, quant.Q88} {
		fw := core.NewFramework()
		fw.Format = format
		res, err := New(fw).Run(context.Background(), net, test, formatGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			switch {
			case r.FlippedBits == 0:
				zero++
			case r.FlippedBits >= 1000:
				high++
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[format.String()] = hex.EncodeToString(sum[:])
		if got[format.String()] != want[format.String()] {
			t.Errorf("%s grid diverged from the golden: sha256 %s, want %s",
				format, got[format.String()], want[format.String()])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d formats, test runs %d", len(want), len(got))
	}
	if zero == 0 || high == 0 {
		t.Errorf("grids hold %d zero-flip and %d high-flip scenarios; the golden must cover both", zero, high)
	}
	if t.Failed() {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests of this run:\n%s", b)
	}
}
