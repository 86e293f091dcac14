//go:build !amd64 || race

package numeric

// useAVX2 is false off amd64, and under the race detector, which cannot
// see memory that assembly touches: every kernel runs its Go loop.
const useAVX2 = false

func sumRowsAVX2(dst, data []float32, rows []int32, nrows int) bool {
	panic("numeric: no AVX2 kernels in this build")
}

func scaleClampAVX2(data, f []float32, lo, hi float32) {
	panic("numeric: no AVX2 kernels in this build")
}

func scaleAVX2(x []float32, c float32) {
	panic("numeric: no AVX2 kernels in this build")
}
