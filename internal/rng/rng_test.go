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

// TestBernoulliBits4MatchesOneStreamAtATime: every mask bit and every
// stream's next draw equal those of a loop that takes each lane's draws
// with Uint64, for position counts on both sides of the 64-bit mask
// words, lanes with fewer positions than others (zero thresholds past
// their count), nil lanes, both ends of the threshold range, and every
// valid full hint. Masks start out filled with garbage.
func TestBernoulliBits4MatchesOneStreamAtATime(t *testing.T) {
	thr := New(99)
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 200} {
		for trial := 0; trial < 6; trial++ {
			var counts [4]int
			for j := range counts {
				counts[j] = n
				if trial > 0 && j != trial%4 {
					counts[j] = thr.Intn(n + 1)
				}
			}
			if trial == 5 {
				counts[1], counts[3] = 0, 0 // nil lanes
			}
			fewest := min(counts[0], counts[1], counts[2], counts[3])
			thr4 := make([]uint64, 4*n)
			for k := 0; k < n; k++ {
				for j, c := range counts {
					if k < c {
						thr4[4*k+j] = []uint64{1, 1 << 53, 1 + thr.Uint64()>>11}[thr.Intn(3)]
					}
				}
			}
			for _, full := range []int{0, fewest / 2, fewest} {
				var got, want [4]*Stream
				for j, c := range counts {
					if trial != 5 || c > 0 {
						seed := uint64(1000*n + 10*trial + j)
						got[j], want[j] = New(seed), New(seed)
					}
				}
				masks := make([]uint64, 4*((n+63)/64)+4)
				for step := 0; step < 2; step++ {
					for i := range masks {
						masks[i] = 0xa5a5a5a5a5a5a5a5
					}
					BernoulliBits4(&got, thr4, full, masks)
					for j, c := range counts {
						for k := 0; k < n; k++ {
							bit := masks[4*(k/64)+j]>>(k%64)&1 == 1
							if k >= c {
								if bit {
									t.Fatalf("n=%d trial %d full %d step %d: lane %d has bit %d past its %d positions", n, trial, full, step, j, k, c)
								}
								continue
							}
							if wantBit := want[j].Uint64()>>11 < thr4[4*k+j]; bit != wantBit {
								t.Fatalf("n=%d trial %d full %d step %d: lane %d bit %d = %v, want %v", n, trial, full, step, j, k, bit, wantBit)
							}
						}
						if k := n % 64; k != 0 && masks[4*(n/64)+j]>>k != 0 {
							t.Fatalf("n=%d trial %d full %d step %d: lane %d has bits past position %d", n, trial, full, step, j, n)
						}
					}
					if masks[len(masks)-1] != 0xa5a5a5a5a5a5a5a5 {
						t.Fatalf("n=%d: BernoulliBits4 wrote past its mask words", n)
					}
				}
				for j := range got {
					if got[j] != nil && got[j].Uint64() != want[j].Uint64() {
						t.Fatalf("n=%d trial %d full %d: lane %d's stream diverged from %d Uint64 calls", n, trial, full, j, 2*counts[j])
					}
				}
			}
		}
	}
}
