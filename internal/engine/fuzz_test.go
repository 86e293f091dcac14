package engine

import (
	"math"
	"testing"

	"sparkxd/internal/coding"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/prune"
)

// FuzzSpecValidate feeds raw float64 bit patterns for two voltages, two
// BERs and two prune levels to Spec.Validate, with a byte that picks the
// uniform flag and the bitwidth, encoder, error-model and policy axes
// (each either distinct or repeating a value). Validate must not panic,
// and it must accept the spec exactly when every value is finite and in
// range and no two scenarios of the cross product share a key: the
// enumeration of duplicateKey is the reference for Validate's per-axis
// check. Every prune level it accepts must prune a small weight slice
// without a panic (an error for a level that keeps no weight is fine).
func FuzzSpecValidate(f *testing.F) {
	ttfs := EncoderAxis{Name: "ttfs", Coder: coding.TTFS{}}
	bitwidths := [][]int{nil, {0, 32}, {16, 16}, {32, 0, 16}}
	encoders := [][]EncoderAxis{nil, {{}, ttfs}, {ttfs, ttfs}, {{}, {}}}
	f.Fuzz(func(t *testing.T, v1, v2, b1, b2, p1, p2 uint64, axes uint8) {
		bits := math.Float64frombits
		spec := Spec{
			Voltages:    []float64{bits(v1), bits(v2)},
			BERs:        []float64{bits(b1), bits(b2)},
			Kinds:       []errmodel.Kind{errmodel.Model0, errmodel.Model3},
			Policies:    []string{PolicyBaseline, PolicySparkXD},
			Uniform:     axes&1 != 0,
			Bitwidths:   bitwidths[axes>>1&3],
			PruneLevels: []float64{bits(p1), bits(p2)},
			Encoders:    encoders[axes>>3&3],
		}
		if axes&(1<<5) != 0 {
			spec.Kinds[1] = spec.Kinds[0]
		}
		if axes&(1<<6) != 0 {
			spec.Policies[1] = spec.Policies[0]
		}
		inRange := true
		for i := 0; i < 2; i++ {
			v, ber, pr := spec.Voltages[i], spec.BERs[i], spec.PruneLevels[i]
			if !spec.Uniform && !(v > 0 && v <= math.MaxFloat64) || !(ber >= 0 && ber <= 0.5) || !(pr >= 0 && pr < 1) {
				inRange = false
			}
		}
		err := spec.Validate()
		if want := inRange && !duplicateKey(spec); (err == nil) != want {
			t.Fatalf("Validate(%+v) = %v; want accepted %v", spec, err, want)
		}
		if err != nil {
			return
		}
		w := []float32{0.3, -0.7, 0, 0.1, 1, -0.2, 0.05, 0.9}
		for _, pr := range spec.PruneLevels {
			_, _ = prune.ByMagnitude(w, 1-pr)
		}
	})
}

// duplicateKey reports whether two scenarios of the spec's cross product
// share a key, by enumerating the cross product.
func duplicateKey(s Spec) bool {
	seen := make(map[string]bool)
	for _, sc := range s.Scenarios() {
		key := sc.Key()
		if seen[key] {
			return true
		}
		seen[key] = true
	}
	return false
}
