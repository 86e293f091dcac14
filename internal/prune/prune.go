// Package prune implements magnitude-based weight pruning, the
// state-of-the-art complementary technique the paper combines with
// SparkXD in its Fig. 2(a) motivation study ("our proposed technique can
// be combined with existing techniques, e.g. weight pruning"): reducing
// network connectivity shrinks the number of DRAM accesses, while
// approximate DRAM shrinks the energy of each remaining access.
package prune

import (
	"errors"
	"sort"
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
// returns the pass description.
func ByMagnitude(w []float32, connectivity float64) (Result, error) {
	if connectivity <= 0 || connectivity > 1 {
		return Result{}, errors.New("prune: connectivity must be in (0, 1]")
	}
	keep := int(float64(len(w))*connectivity + 0.5)
	if keep >= len(w) {
		return Result{Kept: len(w)}, nil
	}
	mags := make([]float32, len(w))
	for i, v := range w {
		if v < 0 {
			mags[i] = -v
		} else {
			mags[i] = v
		}
	}
	sorted := append([]float32(nil), mags...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	threshold := sorted[len(w)-keep]

	res := Result{Threshold: threshold}
	for i := range w {
		if mags[i] < threshold {
			w[i] = 0
			res.Pruned++
		} else {
			res.Kept++
		}
	}
	return res, nil
}
