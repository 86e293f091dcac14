// Package numeric provides the small set of dense float32 vector and
// matrix kernels used by the SNN simulator and by the analysis code.
//
// The package deliberately stays close to plain loops: the matrices
// involved (up to 784 x 3600 synaptic weights) are small enough that
// cache-friendly row-major loops are fast, and keeping the kernels
// dependency-free makes the numerical behaviour easy to audit.
package numeric

import (
	"fmt"
	"math"
)

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

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.Rows, m.Cols }

// String implements fmt.Stringer with a compact shape description.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MulVec computes dst = M^T * x when transposed, or dst = M * x otherwise.
// For the SNN the common pattern is y[j] += sum_i x[i] * W[i][j]
// (inputs i, neurons j), i.e. transposed=true with W stored input-major.
func (m *Matrix) MulVec(x, dst []float32, transposed bool) {
	if transposed {
		if len(x) != m.Rows || len(dst) != m.Cols {
			panic("numeric: MulVec transposed dimension mismatch")
		}
		for j := range dst {
			dst[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			row := m.Row(i)
			for j, w := range row {
				dst[j] += xi * w
			}
		}
		return
	}
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("numeric: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc float32
		for j, w := range row {
			acc += w * x[j]
		}
		dst[i] = acc
	}
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
func (m *Matrix) SumRows(rows []int32, dst []float32) {
	if len(dst) != m.Cols {
		panic("numeric: SumRows dimension mismatch")
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

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

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

// Vector helpers ------------------------------------------------------------

// Sum returns the sum of x.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float32) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x (0 for len < 2).
func Variance(x []float32) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		d := float64(v) - m
		acc += d * d
	}
	return acc / float64(len(x))
}

// Stddev returns the population standard deviation of x.
func Stddev(x []float32) float64 { return math.Sqrt(Variance(x)) }

// ArgMax returns the index of the maximum element (-1 for empty input).
// Ties resolve to the lowest index.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// ArgMaxInt is ArgMax for int slices.
func ArgMaxInt(x []int) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Dot returns the dot product of a and b.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("numeric: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// AXPY computes y += alpha * x in place.
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("numeric: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// DecayExp multiplies every element of x by the factor exp(-dt/tau),
// the exact Euler-exponential decay used by the LIF traces.
func DecayExp(x []float32, dt, tau float64) {
	f := float32(math.Exp(-dt / tau))
	for i := range x {
		x[i] *= f
	}
}

// Clamp32 limits v into [lo, hi].
func Clamp32(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation on a sorted copy. Returns NaN for empty input.
func Percentile(x []float32, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	for i, v := range x {
		s[i] = float64(v)
	}
	insertionSort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func insertionSort(s []float64) {
	// Shell sort: no allocations, adequate for the analysis-sized slices
	// this package deals with.
	n := len(s)
	gap := 1
	for gap < n/3 {
		gap = gap*3 + 1
	}
	for ; gap > 0; gap /= 3 {
		for i := gap; i < n; i++ {
			v := s[i]
			j := i
			for j >= gap && s[j-gap] > v {
				s[j] = s[j-gap]
				j -= gap
			}
			s[j] = v
		}
	}
}

// ApproxEqual reports whether a and b differ by at most tol.
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// RelErr returns |a-b| / max(|b|, eps): the relative error of a vs b.
func RelErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-30 {
		den = 1e-30
	}
	return math.Abs(a-b) / den
}
