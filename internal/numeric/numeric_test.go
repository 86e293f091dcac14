package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("NewMatrix(3, 4) = %dx%d with %d elements", m.Rows, m.Cols, len(m.Data))
	}
	m.Data[1*4+2] = 5
	row := m.Row(1)
	if len(row) != 4 || row[2] != 5 {
		t.Fatal("Row aliasing failed")
	}
	row[0] = 9
	if m.Data[1*4+0] != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[0] = 1
	c := m.Clone()
	c.Data[0] = 7
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// special holds the float32 values that expose any reordering or change
// of intermediate precision in a sum.
var special = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 1e-8, 3e7, 0.1,
}

// sumRowsSequential is the form SumRows replaces: zero, then add the
// listed rows one at a time, in list order.
func sumRowsSequential(m *Matrix, list []int32) []float32 {
	want := make([]float32, m.Cols)
	for _, r := range list {
		for j, v := range m.Row(int(r)) {
			want[j] += v
		}
	}
	return want
}

// sameBits reports whether a and b have the same bit pattern, counting
// every NaN as equal: NaN payloads depend on operand order, and no NaN
// reaches the kernels in use (weights are sanitized on load).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestSumRowsMatchesSequential pins SumRows to the form it replaces:
// zero dst, then add one row at a time in list order. The comparison is
// on bit patterns, over every row count from 0 to 9 (two four-row passes
// plus each tail length) and values that expose any reordering or change
// of intermediate precision: signed zeros, subnormals, infinities, NaN,
// and magnitudes whose sum rounds differently when regrouped.
func TestSumRowsMatchesSequential(t *testing.T) {
	const rows, cols = 12, 19
	m := NewMatrix(rows, cols)
	seed := uint32(7)
	next := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed >> 8
	}
	for i := range m.Data {
		if next()%3 == 0 {
			m.Data[i] = special[next()%uint32(len(special))]
		} else {
			m.Data[i] = (float32(next()%2000000) - 1e6) * 1e-3
		}
	}
	for trial := 0; trial < 40; trial++ {
		for n := 0; n <= 9; n++ {
			list := make([]int32, n)
			for k := range list {
				list[k] = int32(next() % rows)
			}
			want := sumRowsSequential(m, list)
			got := make([]float32, cols)
			for j := range got {
				got[j] = float32(trial) // stale contents must be overwritten
			}
			m.SumRows(list, got)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("rows %v col %d: SumRows = %v (%#x), sequential = %v (%#x)",
						list, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}

// FuzzSumRows drives SumRows, on whichever body this build uses,
// against sumRowsSequential: Cols 1-40 (every tail length of the eight-
// lane body and up to five vectors), 0-9 listed rows of a 1-12 row
// matrix, and elements drawn from raw bit patterns, special values and
// moderate magnitudes. A listed row of 255 or 254 is out of range (Rows
// and -1); SumRows must then panic as the sequential loop does.
func FuzzSumRows(f *testing.F) {
	f.Add(uint8(18), uint8(11), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("\xf0\x00\x00\x00\xe1\x02\x03\x04"))
	f.Add(uint8(39), uint8(3), []byte{2, 2, 1, 0}, []byte{0, 0, 0x80, 0xbf, 0, 0, 0x80, 0x3f})
	f.Add(uint8(7), uint8(5), []byte{1, 255}, []byte{1})
	f.Fuzz(func(t *testing.T, cols, rows uint8, list, vals []byte) {
		m := NewMatrix(1+int(rows)%12, 1+int(cols)%40)
		for i := range m.Data {
			m.Data[i] = fuzzFloat(vals, i)
		}
		if len(list) > 9 {
			list = list[:9]
		}
		idx := make([]int32, len(list))
		for k, b := range list {
			switch b {
			case 255:
				idx[k] = int32(m.Rows)
			case 254:
				idx[k] = -1
			default:
				idx[k] = int32(int(b) % m.Rows)
			}
		}
		var want []float32
		wantPanic := panics(func() { want = sumRowsSequential(m, idx) })
		got := make([]float32, m.Cols)
		for j := range got {
			got[j] = 42 // stale contents must be overwritten
		}
		if gotPanic := panics(func() { m.SumRows(idx, got) }); gotPanic || wantPanic {
			if gotPanic != wantPanic {
				t.Fatalf("rows %v of %d: SumRows panics %v, sequential %v", idx, m.Rows, gotPanic, wantPanic)
			}
			return
		}
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%dx%d rows %v col %d: SumRows = %v (%#x), sequential = %v (%#x)",
					m.Rows, m.Cols, idx, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
			}
		}
	})
}

// fuzzFloat decodes element i from the four bytes at 4i of vals (read
// cyclically; zero when vals is empty). Patterns 0xF... pick a special
// value, 0xE... a moderate magnitude, and the rest are the raw bits.
func fuzzFloat(vals []byte, i int) float32 {
	if len(vals) == 0 {
		return 0
	}
	var bits uint32
	for k := 0; k < 4; k++ {
		bits |= uint32(vals[(4*i+k)%len(vals)]) << (8 * k)
	}
	switch bits >> 28 {
	case 0xf:
		return special[int(bits%uint32(len(special)))]
	case 0xe:
		return (float32(bits%2000000) - 1e6) * 1e-3
	}
	return math.Float32frombits(bits)
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestClamp(t *testing.T) {
	m := NewMatrix(1, 3)
	copy(m.Data, []float32{-5, 0.5, 5})
	m.Clamp(0, 1)
	if m.Data[0] != 0 || m.Data[1] != 0.5 || m.Data[2] != 1 {
		t.Fatalf("Clamp = %v", m.Data)
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{1, 0, 3, 0})
	m.NormalizeColumns(8)
	sums := m.ColumnSums()
	if math.Abs(float64(sums[0]-8)) > 1e-5 {
		t.Errorf("column 0 sum = %v, want 8", sums[0])
	}
	// Zero column must be left untouched, not NaN.
	if sums[1] != 0 {
		t.Errorf("zero column sum = %v, want 0", sums[1])
	}
	for _, v := range m.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NormalizeColumns produced NaN")
		}
	}
}

// Property: NormalizeColumns makes every nonzero column sum to the target.
func TestNormalizeColumnsProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		rows := int(seed%7) + 2
		cols := int(seed%5) + 2
		m := NewMatrix(rows, cols)
		v := uint64(seed)
		for i := range m.Data {
			v = v*6364136223846793005 + 1442695040888963407
			m.Data[i] = float32(v%1000) / 100
		}
		m.NormalizeColumns(10)
		for _, s := range m.ColumnSums() {
			if s != 0 && math.Abs(float64(s)-10) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Clamp then bounds hold for all elements.
func TestClampProperty(t *testing.T) {
	f := func(vals []float32) bool {
		m := &Matrix{Rows: 1, Cols: len(vals), Data: append([]float32(nil), vals...)}
		m.Clamp(-1, 1)
		for _, v := range m.Data {
			if v < -1 || v > 1 {
				// NaN stays NaN; treat as pass-through (documented behaviour
				// is only defined for finite inputs).
				if !math.IsNaN(float64(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// normalizeClampReference is the form NormalizeClamp replaces: the
// column-major NormalizeColumns, then Clamp.
func normalizeClampReference(m *Matrix, target, lo, hi float32) *Matrix {
	want := m.Clone()
	want.NormalizeColumns(target)
	want.Clamp(lo, hi)
	return want
}

// checkNormalizeClamp runs NormalizeClamp on a clone of m and fails t
// unless it matches normalizeClampReference bit for bit, every NaN
// counted equal.
func checkNormalizeClamp(t *testing.T, m *Matrix, target, lo, hi float32) {
	t.Helper()
	want := normalizeClampReference(m, target, lo, hi)
	got := m.Clone()
	got.NormalizeClamp(target, lo, hi, NewNormScratch(m.Rows, m.Cols))
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%dx%d bounds [%v, %v] element (%d, %d) = %v: NormalizeClamp = %v (%#x), reference = %v (%#x)",
				m.Rows, m.Cols, lo, hi, i/m.Cols, i%m.Cols, m.Data[i],
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestNormalizeClampMatchesReference pins NormalizeClamp to
// NormalizeColumns followed by Clamp on bit patterns, over every column
// count from 1 to 19 (two vectors and each tail length), the training
// bounds and the infinite bounds snn.New uses (under which the reference
// Clamp changes nothing), with special values, zero-sum columns, a
// column whose sum overflows, and moderate values.
func TestNormalizeClampMatchesReference(t *testing.T) {
	inf := float32(math.Inf(1))
	seed := uint32(11)
	next := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed >> 8
	}
	for cols := 1; cols <= 19; cols++ {
		for _, rows := range []int{1, 2, 5, 9} {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				if next()%4 == 0 {
					m.Data[i] = special[next()%uint32(len(special))]
				} else {
					m.Data[i] = float32(next()%1000) / 700
				}
			}
			for i := 0; i < rows; i++ {
				m.Data[i*cols] = 0 // column 0 sums to zero
				if cols > 9 {
					m.Data[i*cols+9] = math.MaxFloat32 // column 9 overflows from two rows on
				}
			}
			checkNormalizeClamp(t, m, 30, 0, 1)
			checkNormalizeClamp(t, m, 30, -inf, inf)
		}
	}
}

func TestNormalizeClampScratchShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if !panics(func() { m.NormalizeClamp(1, 0, 1, NewNormScratch(4, 3)) }) {
		t.Fatal("NormalizeClamp must reject scratch of another shape")
	}
}

// scaleReference is the trace-decay loop Scale replaces.
func scaleReference(x []float32, c float32) []float32 {
	want := append([]float32(nil), x...)
	for i := range want {
		want[i] *= c
	}
	return want
}

// TestScaleMatchesLoop pins Scale to the plain loop on bit patterns over
// every length 0-40 and the 784 traces of an MNIST network, for the
// production decay and special factors.
func TestScaleMatchesLoop(t *testing.T) {
	decay := float32(math.Exp(-1.0 / 20))
	factors := []float32{decay, 0, float32(math.Copysign(0, -1)), 1, float32(math.Inf(1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, 3e30}
	lengths := []int{784}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		x := make([]float32, n)
		for i := range x {
			x[i] = special[(i*7+n)%len(special)]
		}
		for _, c := range factors {
			want := scaleReference(x, c)
			got := append([]float32(nil), x...)
			Scale(got, c)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("len %d c %v element %d (%v): Scale = %v, loop = %v", n, c, i, x[i], got[i], want[i])
				}
			}
		}
	}
}

// FuzzNormalizeClamp drives the training chain's two dense kernels, on
// whichever body this build uses, against their Go references:
// NormalizeClamp against NormalizeColumns then Clamp, and Scale against
// the plain loop. Rows and Cols are 1-40 (every tail length of the
// eight-lane bodies and up to five vectors per row), and the elements
// come from raw bit patterns, special values and moderate magnitudes
// (fuzzFloat). mode picks the bounds (mode%3: the training bounds
// (0, 1), the infinite bounds snn.New uses, or a pair drawn from vals,
// which may be inverted or NaN) and shapes the columns: bit 2 makes
// every third column sum to zero (rows in negated pairs, an odd last
// row -0), bit 3 starts every third column (offset by one) with two
// rows of MaxFloat32, so its sum overflows. Scale runs over the whole
// matrix data with a factor drawn from vals.
func FuzzNormalizeClamp(f *testing.F) {
	f.Add(uint8(17), uint8(5), uint8(0), []byte("\xf0\x00\x00\x00\xe1\x02\x03\x04\x00\x00\x80\x80"))
	f.Add(uint8(39), uint8(2), uint8(1|4|8), []byte{0, 0, 0x80, 0xbf, 0, 0, 0x80, 0x3f})
	f.Add(uint8(8), uint8(9), uint8(2), []byte("\x01\x00\xc0\x7f\xf7\x00\x00\xf0"))
	f.Fuzz(func(t *testing.T, cols, rows, mode uint8, vals []byte) {
		m := NewMatrix(1+int(rows)%40, 1+int(cols)%40)
		for i := range m.Data {
			m.Data[i] = fuzzFloat(vals, i)
		}
		for j := 0; j < m.Cols; j++ {
			if mode&4 != 0 && j%3 == 0 {
				for i := 0; i+1 < m.Rows; i += 2 {
					m.Data[(i+1)*m.Cols+j] = -m.Data[i*m.Cols+j]
				}
				if m.Rows%2 == 1 {
					m.Data[(m.Rows-1)*m.Cols+j] = float32(math.Copysign(0, -1))
				}
			}
			if mode&8 != 0 && j%3 == 1 && m.Rows >= 2 {
				m.Data[j] = math.MaxFloat32
				m.Data[m.Cols+j] = math.MaxFloat32
			}
		}
		lo, hi := float32(0), float32(1)
		switch mode % 3 {
		case 1:
			lo, hi = float32(math.Inf(-1)), float32(math.Inf(1))
		case 2:
			lo, hi = fuzzFloat(vals, len(m.Data)), fuzzFloat(vals, len(m.Data)+1)
		}
		checkNormalizeClamp(t, m, 30, lo, hi)

		c := fuzzFloat(vals, len(m.Data)+2)
		want := scaleReference(m.Data, c)
		got := append([]float32(nil), m.Data...)
		Scale(got, c)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("Scale len %d c %v element %d (%v): Scale = %v (%#x), loop = %v (%#x)",
					len(got), c, i, m.Data[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
