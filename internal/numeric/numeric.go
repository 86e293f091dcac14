// Package numeric provides the small set of dense float32 matrix
// kernels used by the SNN simulator.
//
// Every kernel is a plain, dependency-free Go loop: the matrices
// involved (up to 784 x 3600 synaptic weights) are small enough that
// cache-friendly row-major loops are fast, and the loops make the
// numerical behaviour easy to audit. The one kernel that runs every
// simulated timestep, SumRows, also has an AVX2 body on amd64, used
// when AVX2 reports true. It performs the same binary32 operations in
// the same order as its Go loop, which stays the reference and the path
// of every other build.
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
// With AVX2 in use, each pass runs eight columns per instruction. The
// assembly is entered only once every row index is known to lie in the
// matrix; otherwise the Go loop runs and panics where it always has.
func (m *Matrix) SumRows(rows []int32, dst []float32) {
	if len(dst) != m.Cols {
		panic("numeric: SumRows dimension mismatch")
	}
	if useAVX2 && m.rowsInRange(rows) {
		sumRowsAVX2(dst, m.Data, rows)
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

// rowsInRange reports whether every entry of rows names a whole row of
// m.Data.
func (m *Matrix) rowsInRange(rows []int32) bool {
	if len(m.Data) < m.Rows*m.Cols {
		return false
	}
	limit := uint64(m.Rows)
	for _, r := range rows {
		if uint64(int64(r)) >= limit { // a negative r wraps above limit
			return false
		}
	}
	return true
}

// AVX2 reports whether the AVX2 kernel bodies are in use: on amd64 CPUs
// with AVX2 and OS-enabled YMM state, except under the race detector.
// It is decided once at start-up; there is no option to change it.
func AVX2() bool { return useAVX2 }

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
