package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d)", r, c)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 5 {
		t.Fatal("Row aliasing failed")
	}
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMulVec(t *testing.T) {
	// W = [[1 2],[3 4],[5 6]] (3 inputs x 2 neurons)
	m := NewMatrix(3, 2)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	x := []float32{1, 0, 2}
	dst := make([]float32, 2)
	m.MulVec(x, dst, true)
	if dst[0] != 11 || dst[1] != 14 {
		t.Fatalf("transposed MulVec = %v, want [11 14]", dst)
	}
	y := []float32{1, 1}
	dst2 := make([]float32, 3)
	m.MulVec(y, dst2, false)
	want := []float32{3, 7, 11}
	for i := range want {
		if dst2[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", dst2, want)
		}
	}
}

// TestSumRowsMatchesSequential pins SumRows to the form it replaces:
// zero dst, then add one row at a time in list order. The comparison is
// on bit patterns, over every row count from 0 to 9 (two four-row passes
// plus each tail length) and values that expose any reordering or change
// of intermediate precision: signed zeros, subnormals, infinities, NaN,
// and magnitudes whose sum rounds differently when regrouped.
func TestSumRowsMatchesSequential(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest subnormal
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 1e-8, 3e7, 0.1,
	}
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
			want := make([]float32, cols)
			for _, r := range list {
				for j, v := range m.Row(int(r)) {
					want[j] += v
				}
			}
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

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
	if ArgMax([]float32{1, 3, 3, 2}) != 1 {
		t.Error("ArgMax tie should resolve to lowest index")
	}
	if ArgMaxInt([]int{5, 1, 9}) != 2 {
		t.Error("ArgMaxInt failed")
	}
	if ArgMaxInt(nil) != -1 {
		t.Error("ArgMaxInt(nil) should be -1")
	}
}

func TestSumMeanVariance(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	if Sum(x) != 10 {
		t.Error("Sum failed")
	}
	if Mean(x) != 2.5 {
		t.Error("Mean failed")
	}
	if math.Abs(Variance(x)-1.25) > 1e-9 {
		t.Errorf("Variance = %v, want 1.25", Variance(x))
	}
	if math.Abs(Stddev(x)-math.Sqrt(1.25)) > 1e-9 {
		t.Error("Stddev failed")
	}
	if Mean(nil) != 0 || Variance([]float32{1}) != 0 {
		t.Error("degenerate stats failed")
	}
}

func TestDotAXPY(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	y := []float32{1, 1, 1}
	AXPY(2, a, y)
	want := []float32{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("AXPY = %v", y)
		}
	}
}

func TestDecayExp(t *testing.T) {
	x := []float32{1, 2}
	DecayExp(x, 1, 1)
	f := float32(math.Exp(-1))
	if math.Abs(float64(x[0]-f)) > 1e-6 || math.Abs(float64(x[1]-2*f)) > 1e-6 {
		t.Fatalf("DecayExp = %v", x)
	}
}

func TestPercentile(t *testing.T) {
	x := []float32{4, 1, 3, 2}
	if v := Percentile(x, 0); v != 1 {
		t.Errorf("P0 = %v", v)
	}
	if v := Percentile(x, 100); v != 4 {
		t.Errorf("P100 = %v", v)
	}
	if v := Percentile(x, 50); math.Abs(v-2.5) > 1e-9 {
		t.Errorf("P50 = %v, want 2.5", v)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	x := []float32{3, 1, 2}
	Percentile(x, 50)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatal("Percentile must not reorder its input")
	}
}

func TestClamp32(t *testing.T) {
	if Clamp32(-1, 0, 1) != 0 || Clamp32(2, 0, 1) != 1 || Clamp32(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp32 failed")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(1.1, 1.0) > 0.11 || RelErr(1.1, 1.0) < 0.09 {
		t.Errorf("RelErr = %v", RelErr(1.1, 1.0))
	}
	if RelErr(0, 0) != 0 {
		t.Errorf("RelErr(0,0) = %v", RelErr(0, 0))
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.05, 0.1) || ApproxEqual(1.0, 1.2, 0.1) {
		t.Fatal("ApproxEqual failed")
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

func BenchmarkMulVecTransposed(b *testing.B) {
	m := NewMatrix(784, 900)
	for i := range m.Data {
		m.Data[i] = float32(i%13) * 0.01
	}
	x := make([]float32, 784)
	for i := range x {
		if i%3 == 0 {
			x[i] = 1
		}
	}
	dst := make([]float32, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, dst, true)
	}
}
