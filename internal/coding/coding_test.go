package coding

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sparkxd/internal/dataset"
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
// it, on both sides of the batched path's 0 < MaxProb < 1 condition
// (far above 1 and NaN too, where p sizes no arena) and for images with
// no lit or only saturated pixels.
func TestRateMatchesPerDrawReference(t *testing.T) {
	dark := make([]byte, 784)
	saturated := make([]byte, 784)
	for i := range saturated {
		saturated[i] = 255
	}
	imgs := map[string][]byte{"gradient": grad(), "dark": dark, "saturated": saturated}
	for _, maxProb := range []float64{0, 0.05, 0.12, 0.999, 1, 1.5, 1e300, math.Inf(1), math.NaN()} {
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

// TestRateThresholdMatchesFloatCompare pins the batched coder's integer
// test to the float test it replaces, for every intensity 1-255 and the
// paper's MaxProb, 0.5, a tiny MaxProb and the largest below 1, at the
// draws on both sides of each threshold and at both ends of the range.
func TestRateThresholdMatchesFloatCompare(t *testing.T) {
	const top = 1 << 53
	for _, maxProb := range []float64{0.12, 0.5, 1e-9, math.Nextafter(1, 0)} {
		for v := 1; v <= 255; v++ {
			p := float64(v) / 255 * maxProb
			thr := rateThreshold(p)
			if thr == 0 || thr >= top {
				t.Fatalf("MaxProb %v intensity %d: threshold %d outside [1, 2^53)", maxProb, v, thr)
			}
			for _, a := range []uint64{0, thr - 1, thr, top - 1} {
				if got, want := a < thr, float64(a)/top < p; got != want {
					t.Fatalf("MaxProb %v intensity %d draw %d: integer test %v, float test %v (threshold %d)",
						maxProb, v, a, got, want, thr)
				}
			}
		}
	}
}

// rateFloatCompare is the batched coder before integer thresholds: one
// Fill per step, the Float64 form of each draw compared against p, and
// a branch per spike.
func rateFloatCompare(e Rate, img []byte, steps int, r *rng.Stream) Train {
	type hot struct {
		idx int32
		p   float64
	}
	var hots []hot
	for i, v := range img {
		if p := float64(v) / 255 * e.MaxProb; v != 0 && p > 0 {
			hots = append(hots, hot{int32(i), p})
		}
	}
	tr := make(Train, steps)
	u := make([]uint64, len(hots))
	for t := 0; t < steps; t++ {
		r.Fill(u)
		for k, h := range hots {
			if float64(u[k]>>11)/(1<<53) < h.p {
				tr[t] = append(tr[t], h.idx)
			}
		}
	}
	return tr
}

// TestRateMatchesFloatCompare: on generated MNIST-like and Fashion-like
// images, the integer-threshold coder gives the float-compare coder's
// trains, empty steps nil, and leaves the stream where it leaves it.
func TestRateMatchesFloatCompare(t *testing.T) {
	for _, flavor := range []dataset.Flavor{dataset.MNISTLike, dataset.FashionLike} {
		cfg := dataset.DefaultConfig(flavor)
		cfg.Train, cfg.Test = 40, 1
		set, _, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Rate{NewRate(), {MaxProb: 0.5}, {MaxProb: math.Nextafter(1, 0)}} {
			for s, img := range set.Images {
				got, want := rng.New(uint64(s)), rng.New(uint64(s))
				a := e.Encode(img, 60, got)
				b := rateFloatCompare(e, img, 60, want)
				for step := range b {
					if (a[step] == nil) != (b[step] == nil) || !slices.Equal(a[step], b[step]) {
						t.Fatalf("flavor %v MaxProb %v sample %d step %d: %v, float compare %v",
							flavor, e.MaxProb, s, step, a[step], b[step])
					}
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("flavor %v MaxProb %v sample %d: stream consumption differs", flavor, e.MaxProb, s)
				}
			}
		}
	}
}

// TestEqualNamesEncodeIdentically is the property the engine's memo keys
// and model digest rely on: for all six coders, with parameters drawn
// from pools that hold near neighbours (so that a name rounding or
// leaving out a parameter would collide), two coders with equal names
// encode every probe image into identical trains.
func TestEqualNamesEncodeIdentically(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	probs := []float64{0.05, 0.12, 0.1204, 0.12000000000000001, 0.5, 1}
	pick := func(pool []float64) float64 { return pool[r.IntN(len(pool))] }
	draw := func() Encoder {
		switch r.IntN(6) {
		case 0:
			return Rate{MaxProb: pick(probs)}
		case 1:
			return DeterministicRate{MaxPerSteps: pick(probs)}
		case 2:
			return TTFS{Threshold: byte(pick([]float64{0, 10, 11, 200}))}
		case 3:
			return RankOrder{PerStep: 1 + r.IntN(3), Fraction: pick(probs)}
		case 4:
			return Phase{}
		default:
			return Burst{MaxBurst: 1 + r.IntN(5)}
		}
	}
	probe := [][]byte{grad(), make([]byte, 784)}
	for i := 0; i < 3; i++ {
		img := make([]byte, 784)
		for j := range img {
			img[j] = byte(r.IntN(256))
		}
		probe = append(probe, img)
	}
	const steps = 40
	same := 0
	for pair := 0; pair < 2000; pair++ {
		a, b := draw(), draw()
		if a.Name() != b.Name() {
			continue
		}
		same++
		for k, img := range probe {
			ta := a.Encode(img, steps, rng.New(uint64(k)))
			tb := b.Encode(img, steps, rng.New(uint64(k)))
			if !slices.EqualFunc(ta, tb, func(x, y []int32) bool { return slices.Equal(x, y) }) {
				t.Fatalf("%#v and %#v share the name %q but encode probe image %d differently", a, b, a.Name(), k)
			}
		}
	}
	if same < 100 {
		t.Fatalf("only %d of 2000 drawn pairs share a name; the pools must collide more", same)
	}
}

// fuzzQuadImages cuts data into four images and reshapes them by kinds,
// two bits per image: 0 keeps the bytes, 1 makes the image dark, 2
// saturates it, and 3 keeps only its first half, so the four samples'
// lit-pixel counts differ and the longest spans several mask words.
func fuzzQuadImages(data []byte, kinds uint8) [QuadWidth][]byte {
	var imgs [QuadWidth][]byte
	n := min(len(data)/QuadWidth, 300)
	for j := range imgs {
		img := slices.Clone(data[j*n : (j+1)*n])
		switch kinds >> (2 * j) & 3 {
		case 1:
			clear(img)
		case 2:
			for i := range img {
				img[i] = 255
			}
		case 3:
			img = img[:n/2]
		}
		imgs[j] = img
	}
	return imgs
}

// FuzzQuadEncode: Quad.Encode of one to four samples, under any MaxProb
// (inside (0, 1) it runs the side-by-side path when the AVX2 kernels are
// in use), gives each sample the train a scalar Rate.Encode call gives it
// from the same stream, empty steps nil, and leaves each stream where
// that call leaves it. One Quad encodes both calls of a run, the four
// images in reverse order and then the first one to four of them, so
// scratch left by one quad must not leak into the next.
func FuzzQuadEncode(f *testing.F) {
	img := grad()
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), img, uint8(0), uint8(3), 0.12, uint8(60))
	f.Add(uint64(5), uint64(5), uint64(6), uint64(7), img[100:], uint8(0b11100100), uint8(2), 0.5, uint8(17))
	f.Add(uint64(8), uint64(9), uint64(10), uint64(11), img, uint8(0b01010101), uint8(3), 0.12, uint8(9))
	f.Add(uint64(12), uint64(13), uint64(14), uint64(15), img, uint8(0b10101010), uint8(0), math.Nextafter(1, 0), uint8(5))
	f.Add(uint64(16), uint64(17), uint64(18), uint64(19), img, uint8(0b00100111), uint8(1), 1.0, uint8(7))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, data []byte, kinds, count uint8, maxProb float64, steps uint8) {
		e := Rate{MaxProb: maxProb}
		imgs := fuzzQuadImages(data, kinds)
		seeds := [QuadWidth]uint64{s0, s1, s2, s3}
		n := 1 + int(count)%QuadWidth
		var q Quad
		for _, order := range [][]int{{3, 2, 1, 0}, []int{0, 1, 2, 3}[:n]} {
			var (
				quad      [][]byte
				got, want []*rng.Stream
			)
			for _, j := range order {
				quad = append(quad, imgs[j])
				got, want = append(got, rng.New(seeds[j])), append(want, rng.New(seeds[j]))
			}
			trains := make([]Train, len(order))
			q.Encode(e, quad, int(steps)%64, got, trains)
			for i, tr := range trains {
				ref := e.Encode(quad[i], int(steps)%64, want[i])
				if !slices.EqualFunc(tr, ref, func(a, b []int32) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }) {
					t.Fatalf("MaxProb %v, images %v: sample %d's train differs from Rate.Encode's\n got %v\nwant %v", maxProb, order, i, tr, ref)
				}
				if got[i].Uint64() != want[i].Uint64() {
					t.Fatalf("MaxProb %v, images %v: sample %d's stream diverged from Rate.Encode's", maxProb, order, i)
				}
			}
		}
	})
}
