package rng

import "sparkxd/internal/numeric"

// BernoulliBits4 draws Bernoulli outcomes from up to four streams side
// by side, one stream per lane j < 4. thr4 interleaves the lanes'
// thresholds: thr4[4k+j] is lane j's threshold at position k, for
// k < len(thr4)/4, and every threshold is at most 2^53. At each position
// where its threshold t is nonzero, lane j takes the next value x of
// lanes[j], exactly as Uint64 would, and bit k%64 of masks[4*(k/64)+j]
// is set when x>>11 < t: with probability t/2^53, the outcome of a
// Float64 draw below t/2^53. At a zero threshold the lane draws nothing
// and its bit is clear. The first 4*⌈len(thr4)/256⌉ words of masks are
// overwritten, and masks must hold them.
//
// The lanes must be distinct streams; a lane may be nil when all its
// thresholds are zero. full promises that the first full positions have
// four nonzero thresholds.
//
// With AVX2 in use (numeric.AVX2), the four streams' xoshiro256** steps
// run in the 64-bit lanes of one set of YMM registers: the same integer
// operations on the same state words as Uint64, so every draw, bit and
// final state equals the one-stream-at-a-time loop's. Builds without
// AVX2 run that loop.
func BernoulliBits4(lanes *[4]*Stream, thr4 []uint64, full int, masks []uint64) {
	n := len(thr4) / 4
	masks = masks[:4*((n+63)/64)]
	if !numeric.AVX2() {
		clear(masks)
		for k := 0; k < n; k++ {
			for j, r := range lanes {
				if t := thr4[4*k+j]; t != 0 && r.Uint64()>>11 < t {
					masks[4*(k/64)+j] |= 1 << (k % 64)
				}
			}
		}
		return
	}
	// st[4*i+j] is state word i of lane j; a nil lane never draws.
	var st [16]uint64
	for j, r := range lanes {
		if r != nil {
			st[j], st[4+j], st[8+j], st[12+j] = r.s0, r.s1, r.s2, r.s3
		}
	}
	bernoulliBits4AVX2(&st, thr4[:4*n], min(max(full, 0), n), masks)
	for j, r := range lanes {
		if r != nil {
			r.s0, r.s1, r.s2, r.s3 = st[j], st[4+j], st[8+j], st[12+j]
		}
	}
}
