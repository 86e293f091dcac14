package prune

import (
	"math"
	"math/rand"
	"sort"
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
	w := []float32{0.5, -0.25, 0.75}
	if _, err := ByMagnitude(w, math.NaN()); err == nil {
		t.Error("NaN connectivity must error")
	}
	if w[0] != 0.5 || w[1] != -0.25 || w[2] != 0.75 {
		t.Errorf("NaN connectivity changed the weights to %v", w)
	}
}

// TestByMagnitudeRejectsKeepingNone: a connectivity that rounds the
// kept count to 0 is an error and leaves the weights untouched; the
// smallest connectivity that rounds it to 1 still prunes.
func TestByMagnitudeRejectsKeepingNone(t *testing.T) {
	w := make([]float32, 100)
	for i := range w {
		w[i] = float32(i+1) / 100
	}
	orig := append([]float32(nil), w...)
	if _, err := ByMagnitude(w, 0.004); err == nil {
		t.Fatal("connectivity 0.004 of 100 weights keeps none and must error")
	}
	for i := range w {
		if w[i] != orig[i] {
			t.Fatalf("weight %d changed from %v to %v by a rejected pass", i, orig[i], w[i])
		}
	}
	res, err := ByMagnitude(w, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 1 || w[99] != 1 {
		t.Fatalf("connectivity 0.005 of 100 weights: kept %d, largest weight %v; want 1 kept, 1", res.Kept, w[99])
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

// byMagnitudeSorted is ByMagnitude with its threshold read from a sorted
// copy of the magnitudes, the reference the selection must match.
func byMagnitudeSorted(w []float32, connectivity float64) Result {
	keep := int(float64(len(w))*connectivity + 0.5)
	if keep >= len(w) {
		return Result{Kept: len(w)}
	}
	mags := make([]float32, len(w))
	for i, v := range w {
		mags[i] = magnitude(v)
	}
	sorted := append([]float32(nil), mags...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res := Result{Threshold: sorted[len(w)-keep]}
	for i := range w {
		if mags[i] < res.Threshold {
			w[i] = 0
			res.Pruned++
		} else {
			res.Kept++
		}
	}
	return res
}

// TestByMagnitudeMatchesSortedThreshold: on NaN-free weights the
// selected threshold equals the sorted copy's (under ==) and the pruned
// weights match bit for bit, across random lengths, heavy duplicates,
// ±0, negative weights, and keep from 1 to len-1.
func TestByMagnitudeMatchesSortedThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pool := []float32{0, float32(math.Copysign(0, -1)), 0.25, -0.25, 0.5, -0.5, 1, -1}
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(300)
		w := make([]float32, n)
		for i := range w {
			switch r.Intn(3) {
			case 0:
				w[i] = pool[r.Intn(len(pool))]
			case 1:
				w[i] = float32(r.NormFloat64())
			default:
				w[i] = float32(r.Intn(5)) - 2 // small integers, many ties
			}
		}
		var keep int
		switch trial % 3 {
		case 0:
			keep = 1
		case 1:
			keep = n - 1
		default:
			keep = 1 + r.Intn(n-1)
		}
		conn := float64(keep) / float64(n)
		got, want := append([]float32(nil), w...), append([]float32(nil), w...)
		res, err := ByMagnitude(got, conn)
		if err != nil {
			t.Fatal(err)
		}
		ref := byMagnitudeSorted(want, conn)
		if res.Threshold != ref.Threshold || res.Kept != ref.Kept || res.Pruned != ref.Pruned {
			t.Fatalf("n %d keep %d: result %+v, sorted reference %+v", n, keep, res, ref)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n %d keep %d: weight %d = %v, sorted reference %v", n, keep, i, got[i], want[i])
			}
		}
	}
}
