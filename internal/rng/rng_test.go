package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive("weights")
	b := parent.Derive("errors")
	c := parent.Derive("weights")
	if a.Uint64() != c.Uint64() {
		t.Fatal("same label must derive identical streams")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("different labels should almost surely differ")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	p1 := New(9)
	p2 := New(9)
	_ = p1.Derive("x")
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Derive must not advance the parent stream")
	}
}

func TestDeriveIndex(t *testing.T) {
	p := New(5)
	a := p.DeriveIndex("epoch", 0)
	b := p.DeriveIndex("epoch", 1)
	if a.Uint64() == b.Uint64() {
		t.Error("DeriveIndex with different indices should differ")
	}
	c := p.DeriveIndex("epoch", 0)
	a2 := p.DeriveIndex("epoch", 0)
	if c.Uint64() != a2.Uint64() {
		t.Error("DeriveIndex must be deterministic")
	}
}

// TestFillMatchesUint64: Fill returns exactly the outputs successive
// Uint64 calls would, for every batch length, and leaves the stream
// where those calls would have left it.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		a, b := New(uint64(n)+11), New(uint64(n)+11)
		got := make([]uint64, n)
		a.Fill(got)
		for i, v := range got {
			if w := b.Uint64(); v != w {
				t.Fatalf("n=%d: Fill[%d] = %#x, Uint64 = %#x", n, i, v, w)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: stream state after Fill diverged from %d Uint64 calls", n, n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(23)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli rate = %v, want ~%v", rate, p)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("normal mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("normal variance = %v, want ~9", variance)
	}
}

func TestPoissonSmallLambda(t *testing.T) {
	r := New(31)
	const lambda, n = 3.5, 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.Poisson(lambda))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-lambda) > 0.05 {
		t.Errorf("poisson mean = %v, want ~%v", mean, lambda)
	}
	if math.Abs(variance-lambda) > 0.15 {
		t.Errorf("poisson variance = %v, want ~%v", variance, lambda)
	}
}

func TestPoissonLargeLambda(t *testing.T) {
	r := New(37)
	const lambda, n = 120.0, 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.Poisson(lambda))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-lambda) > 0.5 {
		t.Errorf("poisson mean = %v, want ~%v", mean, lambda)
	}
	if math.Abs(variance-lambda) > 5 {
		t.Errorf("poisson variance = %v, want ~%v", variance, lambda)
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(41)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(43)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(47)
	for trial := 0; trial < 100; trial++ {
		s := r.SampleK(50, 10)
		if len(s) != 10 {
			t.Fatalf("SampleK returned %d values", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("SampleK produced invalid/duplicate value %d in %v", v, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleKFull(t *testing.T) {
	r := New(53)
	s := r.SampleK(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("SampleK(10,10) missing %d", i)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(59)
	const n, p, trials = 1000, 0.01, 20000
	var sum, sq float64
	for i := 0; i < trials; i++ {
		v := float64(r.Binomial(n, p))
		sum += v
		sq += v * v
	}
	mean := sum / trials
	variance := sq/trials - mean*mean
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("binomial mean = %v, want ~10", mean)
	}
	if math.Abs(variance-9.9) > 1.0 {
		t.Errorf("binomial variance = %v, want ~9.9", variance)
	}
}

func TestBinomialLarge(t *testing.T) {
	r := New(61)
	const n, p, trials = 1 << 20, 0.5, 2000
	var sum float64
	for i := 0; i < trials; i++ {
		v := r.Binomial(n, p)
		if v < 0 || v > n {
			t.Fatalf("Binomial out of range: %d", v)
		}
		sum += float64(v)
	}
	mean := sum / trials
	want := float64(n) * p
	if math.Abs(mean-want)/want > 0.01 {
		t.Errorf("binomial mean = %v, want ~%v", mean, want)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(67)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, p) must be 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("Binomial(n, 0) must be 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("Binomial(n, 1) must be n")
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul128Property(t *testing.T) {
	// hi*2^64 + lo == a*b (mod 2^64) must hold for the low part:
	// lo == a*b with wrapping multiplication.
	f := func(a, b uint64) bool {
		_, lo := mul128(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpFloat64Positive(t *testing.T) {
	r := New(71)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", sum/n)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(73)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", v)
		}
	}
}

func TestInt63n(t *testing.T) {
	r := New(79)
	for _, n := range []int64{1, 5, 1 << 40} {
		for i := 0; i < 1000; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d", n, v)
			}
		}
	}
}
