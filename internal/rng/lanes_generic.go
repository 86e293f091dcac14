//go:build !amd64 || race

package rng

func bernoulliBits4AVX2(st *[16]uint64, thr4 []uint64, full int, masks []uint64) {
	panic("rng: no AVX2 kernels in this build")
}
