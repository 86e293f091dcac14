package engine

import (
	"math"
	"testing"

	"sparkxd/internal/errmodel"
	"sparkxd/internal/prune"
)

// FuzzSpecValidate feeds raw float64 bit patterns for one voltage, one
// BER and one prune level to Spec.Validate. Validate must not panic, a
// spec it accepts must hold only finite in-range values, and every prune
// level it accepts must prune a small weight slice without a panic (an
// error for a level that keeps no weight is fine).
func FuzzSpecValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, voltBits, berBits, pruneBits uint64) {
		v, ber, pr := math.Float64frombits(voltBits), math.Float64frombits(berBits), math.Float64frombits(pruneBits)
		spec := Spec{
			Voltages:    []float64{v},
			BERs:        []float64{ber},
			Kinds:       []errmodel.Kind{errmodel.Model0},
			Policies:    []string{PolicyBaseline},
			PruneLevels: []float64{pr},
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if !(v > 0 && v <= math.MaxFloat64) || !(ber >= 0 && ber <= 0.5) || !(pr >= 0 && pr < 1) {
			t.Fatalf("Validate accepted voltage %v, BER %v, prune level %v", v, ber, pr)
		}
		w := []float32{0.3, -0.7, 0, 0.1, 1, -0.2, 0.05, 0.9}
		_, _ = prune.ByMagnitude(w, 1-pr)
	})
}
