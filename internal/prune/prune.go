// Package prune implements magnitude-based weight pruning, the
// state-of-the-art complementary technique the paper combines with
// SparkXD in its Fig. 2(a) motivation study ("our proposed technique can
// be combined with existing techniques, e.g. weight pruning"): reducing
// network connectivity shrinks the number of DRAM accesses, while
// approximate DRAM shrinks the energy of each remaining access.
package prune

import (
	"errors"
	"fmt"
)

// Result describes a pruning pass.
type Result struct {
	// Kept is the number of surviving (nonzero) weights.
	Kept int
	// Pruned is the number of weights set to zero.
	Pruned int
	// Threshold is the magnitude cutoff that was applied.
	Threshold float32
}

// Connectivity returns the surviving fraction of weights.
func (r Result) Connectivity() float64 {
	total := r.Kept + r.Pruned
	if total == 0 {
		return 0
	}
	return float64(r.Kept) / float64(total)
}

// ByMagnitude zeroes the smallest-magnitude weights until only
// `connectivity` (0..1] of them survive. It operates in place and
// returns the pass description. The weights must be NaN-free. The kept
// count is connectivity * len(w) rounded to nearest; a connectivity that
// rounds it to 0 is an error, and the weights are left untouched.
func ByMagnitude(w []float32, connectivity float64) (Result, error) {
	if connectivity <= 0 || connectivity > 1 {
		return Result{}, errors.New("prune: connectivity must be in (0, 1]")
	}
	keep := int(float64(len(w))*connectivity + 0.5)
	if keep >= len(w) {
		return Result{Kept: len(w)}, nil
	}
	if keep == 0 {
		return Result{}, fmt.Errorf("prune: connectivity %v keeps none of %d weights", connectivity, len(w))
	}
	mags := make([]float32, len(w))
	for i, v := range w {
		mags[i] = magnitude(v)
	}
	threshold := nthSmallest(mags, len(w)-keep)

	res := Result{Threshold: threshold}
	for i, v := range w {
		if magnitude(v) < threshold {
			w[i] = 0
			res.Pruned++
		} else {
			res.Kept++
		}
	}
	return res, nil
}

// magnitude is the |v| pruning ranks weights by.
func magnitude(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// nthSmallest returns the element that would sit at index k of a sorted
// copy of a (Hoare quickselect, average O(len(a))), reordering a in
// place. a must be NaN-free; values equal under == (such as ±0) are
// interchangeable.
func nthSmallest(a []float32, k int) float32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// The median of three keeps sorted and constant runs linear.
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		pivot := y
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] <= pivot, a[i..hi] >= pivot, and everything
		// between equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}
