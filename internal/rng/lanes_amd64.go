//go:build amd64 && !race

package rng

// bernoulliBits4AVX2 is BernoulliBits4's body over the interleaved
// states st (st[4*i+j] is state word i of lane j), which it advances in
// place: len(thr4) is a multiple of 4, full is at most len(thr4)/4, and
// masks holds exactly the words BernoulliBits4 overwrites.
//
//go:noescape
func bernoulliBits4AVX2(st *[16]uint64, thr4 []uint64, full int, masks []uint64)
