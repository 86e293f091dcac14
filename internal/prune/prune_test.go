package prune

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByMagnitudeBasic(t *testing.T) {
	w := []float32{0.9, 0.1, 0.5, 0.05, 0.8, 0.01, 0.7, 0.3, 0.6, 0.2}
	res, err := ByMagnitude(w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 5 || res.Pruned != 5 {
		t.Fatalf("kept/pruned = %d/%d, want 5/5", res.Kept, res.Pruned)
	}
	// The five largest magnitudes must survive.
	for _, v := range []float32{0.9, 0.8, 0.7, 0.6, 0.5} {
		found := false
		for _, x := range w {
			if x == v {
				found = true
			}
		}
		if !found {
			t.Errorf("large weight %v was pruned", v)
		}
	}
	if math.Abs(res.Connectivity()-0.5) > 1e-9 {
		t.Errorf("connectivity = %v", res.Connectivity())
	}
}

func TestByMagnitudeFullConnectivity(t *testing.T) {
	w := []float32{1, 2, 3}
	res, err := ByMagnitude(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 0 || res.Kept != 3 {
		t.Fatal("connectivity 1 must prune nothing")
	}
}

func TestByMagnitudeRejectsBadInput(t *testing.T) {
	if _, err := ByMagnitude([]float32{1}, 0); err == nil {
		t.Error("connectivity 0 must error")
	}
	if _, err := ByMagnitude([]float32{1}, 1.5); err == nil {
		t.Error("connectivity > 1 must error")
	}
}

func TestByMagnitudeNegativeWeights(t *testing.T) {
	w := []float32{-0.9, 0.1, -0.05, 0.8}
	_, err := ByMagnitude(w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != -0.9 || w[3] != 0.8 {
		t.Error("large-magnitude negative weights must survive")
	}
	if w[1] != 0 || w[2] != 0 {
		t.Error("small magnitudes must be pruned regardless of sign")
	}
}

// Property: pruning keeps approximately the requested fraction and never
// removes a weight larger than one it keeps.
func TestPruneOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%50) + 10
		w := make([]float32, n)
		v := uint64(seed)
		for i := range w {
			v = v*6364136223846793005 + 1442695040888963407
			w[i] = float32(v%1000)/1000 - 0.5
		}
		orig := append([]float32(nil), w...)
		res, err := ByMagnitude(w, 0.4)
		if err != nil {
			return false
		}
		if res.Kept+res.Pruned != n {
			return false
		}
		// No kept weight may be smaller in magnitude than the threshold;
		// no pruned original may be >= threshold (modulo exact ties).
		for i := range w {
			mag := orig[i]
			if mag < 0 {
				mag = -mag
			}
			if w[i] != 0 && mag < res.Threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
