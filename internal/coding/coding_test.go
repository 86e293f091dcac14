package coding

import (
	"math"
	"testing"

	"sparkxd/internal/rng"
)

func grad() []byte {
	img := make([]byte, 784)
	for i := range img {
		img[i] = byte(i % 256)
	}
	return img
}

func allEncoders() []Encoder {
	return []Encoder{
		NewRate(),
		NewDeterministicRate(),
		TTFS{Threshold: 10},
		NewRankOrder(),
		Phase{},
		NewBurst(),
	}
}

func TestAllEncodersBasicContract(t *testing.T) {
	img := grad()
	for _, e := range allEncoders() {
		tr := e.Encode(img, 50, rng.New(1))
		if tr.Steps() != 50 {
			t.Errorf("%s: steps = %d, want 50", e.Name(), tr.Steps())
		}
		if tr.TotalSpikes() == 0 {
			t.Errorf("%s: no spikes for a bright image", e.Name())
		}
		for ti, s := range tr {
			for _, idx := range s {
				if idx < 0 || int(idx) >= len(img) {
					t.Fatalf("%s: step %d has out-of-range index %d", e.Name(), ti, idx)
				}
			}
		}
		if len(e.Name()) == 0 {
			t.Errorf("encoder with empty name")
		}
	}
}

func TestAllEncodersSilentOnBlackImage(t *testing.T) {
	img := make([]byte, 784)
	for _, e := range allEncoders() {
		if n := e.Encode(img, 30, rng.New(1)).TotalSpikes(); n != 0 {
			t.Errorf("%s: black image produced %d spikes", e.Name(), n)
		}
	}
}

func TestRateMatchesExpectedCount(t *testing.T) {
	e := NewRate()
	img := make([]byte, 100)
	for i := range img {
		img[i] = 255
	}
	const steps = 400
	tr := e.Encode(img, steps, rng.New(7))
	got := float64(tr.TotalSpikes())
	want := float64(len(img)) * float64(steps) * e.MaxProb
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("rate spike count = %v, want ~%v", got, want)
	}
}

func TestRateIntensityProportional(t *testing.T) {
	e := NewRate()
	img := make([]byte, 200)
	for i := 0; i < 100; i++ {
		img[i] = 255 // bright half
	}
	for i := 100; i < 200; i++ {
		img[i] = 64 // dim half
	}
	tr := e.Encode(img, 500, rng.New(3))
	var bright, dim int
	for _, s := range tr {
		for _, idx := range s {
			if idx < 100 {
				bright++
			} else {
				dim++
			}
		}
	}
	ratio := float64(bright) / float64(dim+1)
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("bright/dim spike ratio = %v, want ~4 (255/64)", ratio)
	}
}

func TestRateDeterministicInSeed(t *testing.T) {
	e := NewRate()
	img := grad()
	a := e.Encode(img, 40, rng.New(42))
	b := e.Encode(img, 40, rng.New(42))
	if a.TotalSpikes() != b.TotalSpikes() {
		t.Fatal("same seed must give identical trains")
	}
	for t2 := range a {
		if len(a[t2]) != len(b[t2]) {
			t.Fatal("same seed must give identical trains")
		}
		for i := range a[t2] {
			if a[t2][i] != b[t2][i] {
				t.Fatal("same seed must give identical trains")
			}
		}
	}
}

func TestTTFSSingleSpikePerPixel(t *testing.T) {
	e := TTFS{Threshold: 10}
	img := grad()
	tr := e.Encode(img, 60, nil)
	count := map[int32]int{}
	for _, s := range tr {
		for _, idx := range s {
			count[idx]++
		}
	}
	for idx, n := range count {
		if n != 1 {
			t.Fatalf("pixel %d spiked %d times, want 1", idx, n)
		}
	}
	// Brighter pixels must fire earlier.
	first := func(idx int32) int {
		for t2, s := range tr {
			for _, i := range s {
				if i == idx {
					return t2
				}
			}
		}
		return -1
	}
	if f255, f100 := first(255), first(100); f255 >= 0 && f100 >= 0 && f255 > f100 {
		t.Error("brighter pixel must not fire later than dimmer pixel")
	}
}

func TestTTFSRespectsThreshold(t *testing.T) {
	e := TTFS{Threshold: 100}
	img := make([]byte, 10)
	img[0] = 99
	img[1] = 101
	tr := e.Encode(img, 20, nil)
	if tr.TotalSpikes() != 1 {
		t.Fatalf("want exactly 1 spike (above threshold), got %d", tr.TotalSpikes())
	}
}

func TestRankOrderBrightestFirst(t *testing.T) {
	e := RankOrder{PerStep: 1, Fraction: 1}
	img := make([]byte, 5)
	img[2] = 200
	img[4] = 100
	img[0] = 50
	tr := e.Encode(img, 10, nil)
	if len(tr[0]) != 1 || tr[0][0] != 2 {
		t.Fatalf("step 0 = %v, want [2]", tr[0])
	}
	if len(tr[1]) != 1 || tr[1][0] != 4 {
		t.Fatalf("step 1 = %v, want [4]", tr[1])
	}
	if len(tr[2]) != 1 || tr[2][0] != 0 {
		t.Fatalf("step 2 = %v, want [0]", tr[2])
	}
}

func TestRankOrderFraction(t *testing.T) {
	e := RankOrder{PerStep: 100, Fraction: 0.5}
	img := make([]byte, 100)
	for i := range img {
		img[i] = byte(i + 1)
	}
	tr := e.Encode(img, 10, nil)
	if tr.TotalSpikes() != 50 {
		t.Fatalf("fraction 0.5 of 100 pixels should fire 50 spikes, got %d", tr.TotalSpikes())
	}
}

func TestPhaseMSBFirst(t *testing.T) {
	e := Phase{}
	img := []byte{0x80, 0x01} // pixel 0 has only MSB, pixel 1 only LSB
	tr := e.Encode(img, 8, nil)
	if len(tr[0]) != 1 || tr[0][0] != 0 {
		t.Fatalf("step 0 should carry the MSB pixel, got %v", tr[0])
	}
	if len(tr[7]) != 1 || tr[7][0] != 1 {
		t.Fatalf("step 7 should carry the LSB pixel, got %v", tr[7])
	}
}

func TestPhasePeriodicity(t *testing.T) {
	e := Phase{}
	img := []byte{0xff}
	tr := e.Encode(img, 16, nil)
	if tr.TotalSpikes() != 16 {
		t.Fatalf("saturated pixel should spike every step, got %d/16", tr.TotalSpikes())
	}
}

func TestBurstLengthProportional(t *testing.T) {
	e := NewBurst()
	bright := []byte{255}
	dim := []byte{64}
	nb := e.Encode(bright, 30, nil).TotalSpikes()
	nd := e.Encode(dim, 30, nil).TotalSpikes()
	if nb != e.MaxBurst {
		t.Fatalf("saturated burst = %d, want %d", nb, e.MaxBurst)
	}
	if nd >= nb {
		t.Fatal("dim pixel must burst shorter")
	}
}

func TestBurstContiguous(t *testing.T) {
	e := NewBurst()
	tr := e.Encode([]byte{255}, 30, nil)
	first, last, n := -1, -1, 0
	for t2, s := range tr {
		if len(s) > 0 {
			if first == -1 {
				first = t2
			}
			last = t2
			n += len(s)
		}
	}
	if n == 0 || last-first+1 != n {
		t.Fatalf("burst not contiguous: first=%d last=%d n=%d", first, last, n)
	}
}

func TestDeterministicRateEvenSpacing(t *testing.T) {
	e := NewDeterministicRate()
	tr := e.Encode([]byte{255}, 100, nil)
	var times []int
	for t2, s := range tr {
		if len(s) > 0 {
			times = append(times, t2)
		}
	}
	if len(times) < 5 {
		t.Fatalf("expected >= 5 spikes, got %d", len(times))
	}
	// Gaps should be nearly equal.
	for i := 2; i < len(times); i++ {
		g1 := times[i] - times[i-1]
		g0 := times[i-1] - times[i-2]
		if g1 < g0-2 || g1 > g0+2 {
			t.Fatalf("uneven spacing: %v", times)
		}
	}
}

func TestTrainHelpers(t *testing.T) {
	tr := Train{{1, 2}, {}, {3}}
	if tr.Steps() != 3 || tr.TotalSpikes() != 3 {
		t.Fatal("Train helpers wrong")
	}
}

// rateReference is the per-draw Poisson rate coder: one Bernoulli call
// per lit pixel per step, appended straight into per-step slices.
func rateReference(e Rate, img []byte, steps int, r *rng.Stream) Train {
	tr := make(Train, steps)
	for t := 0; t < steps; t++ {
		for i, v := range img {
			if v == 0 {
				continue
			}
			if r.Bernoulli(float64(v) / 255 * e.MaxProb) {
				tr[t] = append(tr[t], int32(i))
			}
		}
	}
	return tr
}

// TestRateMatchesPerDrawReference: the batched-draw encoder produces the
// reference's train and leaves the stream where the reference leaves
// it, on both sides of the batched path's 0 < MaxProb < 1 condition and
// for images with no lit or only saturated pixels.
func TestRateMatchesPerDrawReference(t *testing.T) {
	dark := make([]byte, 784)
	saturated := make([]byte, 784)
	for i := range saturated {
		saturated[i] = 255
	}
	imgs := map[string][]byte{"gradient": grad(), "dark": dark, "saturated": saturated}
	for _, maxProb := range []float64{0, 0.05, 0.12, 0.999, 1, 1.5} {
		for name, img := range imgs {
			for seed := uint64(1); seed <= 3; seed++ {
				e := Rate{MaxProb: maxProb}
				got, want := rng.New(seed), rng.New(seed)
				a := e.Encode(img, 40, got)
				b := rateReference(e, img, 40, want)
				if len(a) != len(b) {
					t.Fatalf("p=%v %s: %d steps, reference %d", maxProb, name, len(a), len(b))
				}
				for step := range a {
					if (a[step] == nil) != (b[step] == nil) || len(a[step]) != len(b[step]) {
						t.Fatalf("p=%v %s seed %d step %d: %d spikes, reference %d",
							maxProb, name, seed, step, len(a[step]), len(b[step]))
					}
					for k := range a[step] {
						if a[step][k] != b[step][k] {
							t.Fatalf("p=%v %s seed %d step %d: spike %d is input %d, reference %d",
								maxProb, name, seed, step, k, a[step][k], b[step][k])
						}
					}
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("p=%v %s seed %d: stream consumption differs from the reference", maxProb, name, seed)
				}
			}
		}
	}
}
