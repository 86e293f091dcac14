// Package numeric provides the small set of dense float32 matrix
// kernels used by the SNN simulator.
//
// Every kernel is a plain, dependency-free Go loop: the matrices
// involved (up to 784 x 3600 synaptic weights) are small enough that
// cache-friendly row-major loops are fast, and the loops make the
// numerical behaviour easy to audit. The kernels that run every
// simulated timestep (SumRows, Scale) or every training presentation
// (NormalizeClamp) also have an AVX2 body on amd64, used when AVX2
// reports true. Each performs the same binary32 operations in the same
// order as its Go loop, which stays the reference and the path of every
// other build.
package numeric

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String implements fmt.Stringer with a compact shape description.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// SumRows overwrites dst with the sum of the listed rows of m: dst is
// zeroed, then the rows are added in list order. It is the SNN's
// synaptic-drive kernel (one call per timestep, rows = the step's active
// inputs). Four rows are added per pass over dst as
// dst[j] + a[j] + b[j] + c[j] + d[j], which Go evaluates left to right
// with float32 rounding after every addition, so each element receives
// the same additions in the same order as adding one row at a time:
// results are bit-identical to that sequential form, while dst is loaded
// and stored a quarter as often.
//
// With AVX2 in use, each pass runs eight columns per instruction, and
// the assembly checks each row index as it forms that row's address. At
// the first index outside the matrix it stops and the Go loop runs
// instead, and panics where it always has.
func (m *Matrix) SumRows(rows []int32, dst []float32) {
	if len(dst) != m.Cols {
		panic("numeric: SumRows dimension mismatch")
	}
	if useAVX2 && len(m.Data) >= m.Rows*m.Cols && sumRowsAVX2(dst, m.Data, rows, m.Rows) {
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		a := m.Row(int(rows[k]))[:len(dst)]
		b := m.Row(int(rows[k+1]))[:len(dst)]
		c := m.Row(int(rows[k+2]))[:len(dst)]
		d := m.Row(int(rows[k+3]))[:len(dst)]
		for j := range dst {
			dst[j] = dst[j] + a[j] + b[j] + c[j] + d[j]
		}
	}
	for ; k < len(rows); k++ {
		a := m.Row(int(rows[k]))[:len(dst)]
		for j := range dst {
			dst[j] += a[j]
		}
	}
}

// AVX2 reports whether the AVX2 kernel bodies are in use: on amd64 CPUs
// with AVX2 and OS-enabled YMM state, except under the race detector.
// It is decided once at start-up; there is no option to change it.
func AVX2() bool { return useAVX2 }

// NormScratch is the scratch NormalizeClamp works in for one matrix
// shape: the identity row list its column sums run SumRows over, and one
// float per column that holds the sums and then the factors. The caller
// owns it, so a call allocates nothing.
type NormScratch struct {
	rows []int32
	sums []float32
}

// NewNormScratch returns NormalizeClamp's scratch for a rows x cols
// matrix.
func NewNormScratch(rows, cols int) *NormScratch {
	s := &NormScratch{rows: make([]int32, rows), sums: make([]float32, cols)}
	for i := range s.rows {
		s.rows[i] = int32(i)
	}
	return s
}

// NormalizeClamp rescales each column so that its sum equals target,
// leaving zero-sum columns unscaled, then limits every element into
// [lo, hi]. Every element gets the binary32 operations of
// NormalizeColumns(target) followed by Clamp(lo, hi), in their order, so
// the result is bit-identical to that pair (FuzzNormalizeClamp pins it),
// but the matrix is walked once, row by row:
//
//   - The column sums are SumRows over every row in order, which adds
//     each column's elements in row order, as ColumnSums does.
//   - Each column gets one factor: target / sum, or 1 where the sum is
//     0. A zero-sum column holds only finite values (a NaN or an
//     infinity cannot sum to 0), and w * 1 == w exactly for those.
//   - One row-major pass sets w = clamp(w * f[j], lo, hi), with Clamp's
//     compares: lo if w < lo, else hi if w > hi.
//
// With AVX2 in use, the first Cols&^7 columns of every row run eight
// per instruction; the Go loop handles the last Cols%8, or the whole
// pass in other builds. Bounds (-Inf, +Inf) make the clamp a no-op.
func (m *Matrix) NormalizeClamp(target, lo, hi float32, s *NormScratch) {
	if len(s.rows) != m.Rows || len(s.sums) != m.Cols {
		panic("numeric: NormalizeClamp scratch shape mismatch")
	}
	f := s.sums
	m.SumRows(s.rows, f)
	for j, sum := range f {
		if sum == 0 {
			f[j] = 1
		} else {
			f[j] = target / sum
		}
	}
	data := m.Data[:m.Rows*m.Cols]
	j0 := 0
	if useAVX2 && m.Cols >= 8 {
		j0 = m.Cols &^ 7
		scaleClampAVX2(data, f, lo, hi)
	}
	if j0 == m.Cols {
		return
	}
	ft := f[j0:]
	for i := 0; i < m.Rows; i++ {
		row := data[i*m.Cols+j0 : (i+1)*m.Cols]
		for j, v := range row {
			v *= ft[j]
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			row[j] = v
		}
	}
}

// Scale multiplies every element of x by c in place: the SNN's per-step
// presynaptic-trace decay. With AVX2 in use, the first len(x)&^7
// elements run eight per instruction, one multiply each; the Go loop
// handles the rest, or all of x in other builds.
func Scale(x []float32, c float32) {
	i := 0
	if useAVX2 && len(x) >= 8 {
		i = len(x) &^ 7
		scaleAVX2(x[:i], c)
	}
	tail := x[i:]
	for k := range tail {
		tail[k] *= c
	}
}

// The column-major Clamp, ColumnSums and NormalizeColumns below are the
// reference NormalizeClamp is tested against; no production path calls
// them.

// Clamp limits every element into [lo, hi].
func (m *Matrix) Clamp(lo, hi float32) {
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		} else if v > hi {
			m.Data[i] = hi
		}
	}
}

// ColumnSums returns the per-column sums of the matrix.
func (m *Matrix) ColumnSums() []float32 {
	sums := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// NormalizeColumns rescales each column so that its sum equals target.
// Columns whose sum is zero are left untouched. This implements the
// synaptic-weight normalization used by Diehl&Cook-style SNN training to
// keep excitatory drive balanced across neurons.
func (m *Matrix) NormalizeColumns(target float32) {
	sums := m.ColumnSums()
	for j, s := range sums {
		if s == 0 {
			continue
		}
		f := target / s
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= f
		}
	}
}
