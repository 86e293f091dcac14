//go:build amd64 && !race

package numeric

// useAVX2 selects the AVX2 kernel bodies. It is decided once, here, for
// every package that has them: the CPU must report AVX2 and the OS must
// save the YMM register state across context switches.
var useAVX2 = detectAVX2()

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0 (XCR0).
func xgetbv() (eax uint32)

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// sumRowsAVX2 is SumRows's body for a matrix of nrows rows of len(dst)
// floats starting at data (len(data) >= nrows*len(dst)). It adds four
// rows per pass, eight lanes per instruction, with a scalar tail for
// len(dst) % 8. Before it reads a row it checks the row's index against
// nrows, unsigned, so a negative index fails too; at the first index
// that fails it returns false, having read no memory outside data and
// with dst part-way summed.
//
//go:noescape
func sumRowsAVX2(dst, data []float32, rows []int32, nrows int) (ok bool)

// scaleClampAVX2 is NormalizeClamp's row-major pass over the first
// len(f)&^7 columns of every row of data (len(data) is a multiple of
// len(f), and len(f) >= 8): w = w * f[j], then lo where w < lo, else hi
// where w > hi.
//
//go:noescape
func scaleClampAVX2(data, f []float32, lo, hi float32)

// scaleAVX2 is Scale's body for len(x), a multiple of 8: x[i] *= c.
//
//go:noescape
func scaleAVX2(x []float32, c float32)
