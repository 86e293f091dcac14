// Package coding converts images into spike trains. The paper's
// experiments use rate coding with Poisson-distributed spikes (Sec. V);
// the other encoders implement the alternative schemes the paper's
// background section cites (rank-order, phase, burst, time-to-first-spike)
// so that the SNN substrate covers the design space the paper surveys.
//
// A spike train is represented sparsely: for each timestep, the slice of
// input indices that spike at that step. This is the natural input for an
// event-driven LIF simulation.
package coding

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"sparkxd/internal/numeric"
	"sparkxd/internal/rng"
)

// Train is a spike train: Train[t] lists the input indices spiking at
// timestep t.
type Train [][]int32

// Steps returns the number of timesteps.
func (tr Train) Steps() int { return len(tr) }

// TotalSpikes returns the number of spikes over all steps.
func (tr Train) TotalSpikes() int {
	n := 0
	for _, s := range tr {
		n += len(s)
	}
	return n
}

// Encoder converts one image (byte intensities, 0..255) into a spike
// train of the given number of steps. Encoders must be deterministic in
// (image, steps, r).
type Encoder interface {
	Encode(img []byte, steps int, r *rng.Stream) Train
	Name() string
}

// Rate is the Poisson rate coder used by the paper: each pixel spikes
// each timestep with probability intensity/255 * MaxProb, independently.
type Rate struct {
	// MaxProb is the per-step spike probability of a saturated pixel.
	// 0.12 with 1 ms steps corresponds to a 120 Hz peak rate.
	MaxProb float64
}

// NewRate returns the paper-default Poisson rate coder.
func NewRate() Rate { return Rate{MaxProb: 0.12} }

// Name implements Encoder. Every parametrized coder writes each of its
// parameters into its name, floats in the shortest form that reads back
// as the same float64, so two coders share a name only if they encode
// identically.
func (e Rate) Name() string { return "rate-poisson(p=" + shortest(e.MaxProb) + ")" }

// shortest formats x in the shortest form that parses back to x.
func shortest(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// Encode implements Encoder.
//
// Spikes are accumulated into one flat arena with per-step offsets
// instead of one growing slice per step: the same Bernoulli draws in the
// same order produce the same train, but a 60-step encode performs a
// handful of allocations instead of hundreds — encoding runs once per
// sample per evaluation, so this is directly on the sweep hot path.
//
// When 0 < MaxProb < 1 every pixel kept below has p strictly inside
// (0, 1), so each of its Bernoulli calls would consume exactly one
// Float64 draw: each step then takes all its variates with one rng.Fill
// and tests them directly, which leaves the train and the stream exactly
// as the per-draw loop would. The test is on integers: Float64 is
// a/2^53 for a = u>>11 < 2^53, and a/2^53 < p exactly when
// a < ceil(p*2^53) (both scalings by 2^53 are exact, and an integer is
// below x exactly when it is below ceil(x)), so each intensity's
// threshold is precomputed once (rateTable). The append has no branch:
// every pixel's index is stored at the arena's end, and the end advances
// by the compare's result; the arena keeps one step's worth of slack for
// that. Other MaxProb values keep the per-draw loop, because Bernoulli
// consumes no draw at p >= 1.
func (e Rate) Encode(img []byte, steps int, r *rng.Stream) Train {
	if !(e.MaxProb > 0 && e.MaxProb < 1) {
		return e.encodePerDraw(img, steps, r)
	}
	var tab rateTable
	tab.fill(e.MaxProb)
	idx, thr, expected := tab.lit(img, make([]int32, 0, len(img)), make([]uint64, 0, len(img)))
	offs := make([]int, steps+1)
	arena := make([]int32, 0, arenaCap(expected, steps, len(idx)))
	u := make([]uint64, len(idx)) // one step's variates
	for t := 0; t < steps; t++ {
		arena = slices.Grow(arena, len(idx))
		r.Fill(u)
		dst := arena[len(arena) : len(arena)+len(u)]
		n := 0
		for k, x := range u {
			dst[n] = idx[k]
			// x>>11 and thr[k] are at most 2^53, so the difference's
			// sign bit is set exactly when x>>11 < thr[k].
			n += int((x>>11 - thr[k]) >> 63)
		}
		arena = arena[:len(arena)+n]
		offs[t+1] = len(arena)
	}
	return trainOf(arena, offs)
}

// encodePerDraw is Encode for MaxProb outside (0, 1): one Bernoulli call
// per pixel and step, skipping dark pixels and pixels with p <= 0, for
// which Bernoulli neither fires nor draws.
func (e Rate) encodePerDraw(img []byte, steps int, r *rng.Stream) Train {
	var (
		idx   []int32
		probs []float64
	)
	expected := 0.0
	for i, v := range img {
		p := float64(v) / 255 * e.MaxProb
		if v == 0 || p <= 0 {
			continue
		}
		idx = append(idx, int32(i))
		probs = append(probs, p)
		if p < 1 {
			expected += p
		} else {
			expected++ // p >= 1 spikes every step, and NaN never spikes
		}
	}
	offs := make([]int, steps+1)
	arena := make([]int32, 0, arenaCap(expected, steps, len(idx)))
	for t := 0; t < steps; t++ {
		for k, p := range probs {
			if r.Bernoulli(p) {
				arena = append(arena, idx[k])
			}
		}
		offs[t+1] = len(arena)
	}
	return trainOf(arena, offs)
}

// rateTable holds, for one MaxProb in (0, 1), every intensity v's spike
// probability p = float64(v)/255*MaxProb and its threshold
// rateThreshold(p): the per-pixel arithmetic of an encode, done once per
// intensity.
type rateTable struct {
	maxProb float64
	p       [256]float64
	thr     [256]uint64
}

// fill makes t the table of maxProb, unless it already is.
func (t *rateTable) fill(maxProb float64) {
	if t.maxProb == maxProb {
		return
	}
	t.maxProb = maxProb
	for v := range t.p {
		t.p[v] = float64(v) / 255 * maxProb
		t.thr[v] = rateThreshold(t.p[v])
	}
}

// lit appends to idx and thr the index and threshold of every pixel of
// img with p > 0, and returns both with the expected spikes per step,
// the sum of the pixels' p in pixel order. The append has no branch:
// every pixel is stored at the end, which advances where the threshold
// is nonzero, exactly where p > 0; the other pixels add p = 0 to the
// sum, which leaves it as it is.
func (t *rateTable) lit(img []byte, idx []int32, thr []uint64) ([]int32, []uint64, float64) {
	n := len(idx)
	idx, thr = slices.Grow(idx, len(img))[:n+len(img)], slices.Grow(thr, len(img))[:n+len(img)]
	expected := 0.0
	for i, v := range img {
		idx[n], thr[n] = int32(i), t.thr[v]
		expected += t.p[v]
		n += int(-t.thr[v] >> 63)
	}
	return idx[:n], thr[:n], expected
}

// arenaCap is the capacity a train's arena starts with: the expected
// spikes over all steps, plus slack for the noise and one step's worth
// of lit pixels.
func arenaCap(expected float64, steps, lit int) int {
	return int(expected*float64(steps)) + 16 + lit
}

// trainOf slices arena into a train of len(offs)-1 steps, step t being
// arena[offs[t]:offs[t+1]] with no spare capacity; empty steps stay nil,
// as in the per-step form.
func trainOf(arena []int32, offs []int) Train {
	tr := make(Train, len(offs)-1)
	for t := range tr {
		if offs[t] == offs[t+1] {
			continue
		}
		tr[t] = arena[offs[t]:offs[t+1]:offs[t+1]]
	}
	return tr
}

// rateThreshold returns ceil(p * 2^53), the integer threshold for a draw
// u: u>>11 < rateThreshold(p) exactly when float64(u>>11)/2^53 < p.
func rateThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// QuadWidth is the most samples one Quad.Encode call encodes.
const QuadWidth = 4

// Quad is one worker's scratch for encoding up to QuadWidth samples per
// call with Encode. It keeps its buffers from call to call, so a worker
// that encodes a dataset quad by quad allocates little more than the
// trains. The zero value is ready to use; a Quad must not be used by two
// goroutines at once.
type Quad struct {
	tab  rateTable
	idx  [QuadWidth][]int32  // each sample's lit pixels (rateTable.lit)
	thr  [QuadWidth][]uint64 // and their thresholds
	offs [QuadWidth][]int    // each train's per-step arena offsets
	// thr4 interleaves thr for rng.BernoulliBits4: thr4[4k+j] is
	// thr[j][k], or 0 past the end of thr[j].
	thr4 []uint64
	// masks holds one step's spikes: bit k%64 of masks[4*(k/64)+j] is
	// set when sample j's pixel idx[j][k] spikes.
	masks []uint64
}

// Encode sets dst[j] to enc.Encode(imgs[j], steps, rs[j]) for every
// j < len(dst), and leaves each rs[j] where that call leaves it.
// len(dst) is at most QuadWidth, imgs and rs are at least as long, and
// the streams are distinct.
//
// A Rate with 0 < MaxProb < 1 encodes the samples side by side when the
// AVX2 kernels are in use (numeric.AVX2): each step is one
// rng.BernoulliBits4 call, with sample j's stream in lane j and its
// thresholds in thr4. A lane whose sample has no pixel k has threshold 0
// there, so its stream takes exactly the draws Encode's rng.Fill takes,
// in the same order; every other threshold is at least 1. Each lane's set
// bits are appended in ascending pixel order, the order of Encode's
// append. Every other coder, and every build without the AVX2 kernels,
// calls Encode once per sample.
func (q *Quad) Encode(enc Encoder, imgs [][]byte, steps int, rs []*rng.Stream, dst []Train) {
	if len(dst) > QuadWidth {
		panic("coding: Quad.Encode of more than QuadWidth samples")
	}
	if e, ok := enc.(Rate); ok && e.MaxProb > 0 && e.MaxProb < 1 && numeric.AVX2() {
		e.encodeLanes(q, imgs, steps, rs, dst)
		return
	}
	for j := range dst {
		dst[j] = enc.Encode(imgs[j], steps, rs[j])
	}
}

// encodeLanes is Quad.Encode's side-by-side path.
func (e Rate) encodeLanes(q *Quad, imgs [][]byte, steps int, rs []*rng.Stream, dst []Train) {
	var (
		lanes  [QuadWidth]*rng.Stream
		arenas [QuadWidth][]int32
	)
	q.tab.fill(e.MaxProb)
	full, most := math.MaxInt, 0
	for j := range lanes {
		q.idx[j], q.thr[j] = q.idx[j][:0], q.thr[j][:0]
		if j < len(dst) {
			var expected float64
			q.idx[j], q.thr[j], expected = q.tab.lit(imgs[j], q.idx[j], q.thr[j])
			lanes[j] = rs[j]
			arenas[j] = make([]int32, 0, arenaCap(expected, steps, len(q.idx[j])))
			q.offs[j] = slices.Grow(q.offs[j][:0], steps+1)[:steps+1]
			q.offs[j][0] = 0
		}
		full, most = min(full, len(q.idx[j])), max(most, len(q.idx[j]))
	}
	q.thr4 = slices.Grow(q.thr4[:0], 4*most)[:4*most]
	for j, thr := range q.thr {
		for k, t := range thr {
			q.thr4[4*k+j] = t
		}
		for k := len(thr); k < most; k++ {
			q.thr4[4*k+j] = 0
		}
	}
	words := (most + 63) / 64
	q.masks = slices.Grow(q.masks[:0], 4*words)[:4*words]
	for t := 0; t < steps; t++ {
		rng.BernoulliBits4(&lanes, q.thr4, full, q.masks)
		for j := range dst {
			a, idx := arenas[j], q.idx[j]
			for w := 0; w < words; w++ {
				for m := q.masks[4*w+j]; m != 0; m &= m - 1 {
					a = append(a, idx[64*w+bits.TrailingZeros64(m)])
				}
			}
			arenas[j] = a
			q.offs[j][t+1] = len(a)
		}
	}
	for j := range dst {
		dst[j] = trainOf(arenas[j], q.offs[j])
	}
}

// DeterministicRate spikes each pixel at evenly spaced intervals
// proportional to its intensity — rate coding without Poisson noise,
// useful for reproducible unit tests and ablations.
type DeterministicRate struct {
	MaxPerSteps float64 // spikes per `steps` for a saturated pixel, as fraction
}

// NewDeterministicRate mirrors NewRate's peak rate.
func NewDeterministicRate() DeterministicRate { return DeterministicRate{MaxPerSteps: 0.12} }

// Name implements Encoder; see Rate.Name.
func (e DeterministicRate) Name() string {
	return "rate-deterministic(p=" + shortest(e.MaxPerSteps) + ")"
}

// Encode implements Encoder.
func (e DeterministicRate) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v == 0 {
			continue
		}
		count := float64(v) / 255 * e.MaxPerSteps * float64(steps)
		n := int(count)
		if n == 0 {
			continue
		}
		stride := float64(steps) / float64(n)
		for k := 0; k < n; k++ {
			t := int(float64(k)*stride + stride/2)
			if t < steps {
				tr[t] = append(tr[t], int32(i))
			}
		}
	}
	return tr
}

// TTFS is time-to-first-spike coding: each pixel spikes exactly once, at
// a latency inversely proportional to its intensity; dark pixels do not
// spike at all.
type TTFS struct {
	// Threshold is the minimum intensity that produces a spike.
	Threshold byte
}

// Name implements Encoder; see Rate.Name.
func (e TTFS) Name() string { return "time-to-first-spike(th=" + strconv.Itoa(int(e.Threshold)) + ")" }

// Encode implements Encoder.
func (e TTFS) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v <= e.Threshold {
			continue
		}
		// intensity 255 -> step 0; intensity just above threshold -> last step.
		frac := 1 - float64(v-e.Threshold)/float64(255-int(e.Threshold))
		t := int(frac * float64(steps-1))
		tr[t] = append(tr[t], int32(i))
	}
	return tr
}

// RankOrder emits one spike per pixel in descending intensity order, K
// pixels per timestep, stopping after the brightest fraction has fired —
// the rank-order coding of Thorpe & Gautrais.
type RankOrder struct {
	// PerStep is how many pixels fire per timestep.
	PerStep int
	// Fraction is the brightest fraction of nonzero pixels that fires.
	Fraction float64
}

// NewRankOrder returns a rank-order coder firing the top 50% of pixels,
// 8 per step.
func NewRankOrder() RankOrder { return RankOrder{PerStep: 8, Fraction: 0.5} }

// Name implements Encoder; see Rate.Name.
func (e RankOrder) Name() string {
	return "rank-order(k=" + strconv.Itoa(e.PerStep) + ",f=" + shortest(e.Fraction) + ")"
}

// Encode implements Encoder.
func (e RankOrder) Encode(img []byte, steps int, _ *rng.Stream) Train {
	type pix struct {
		idx int32
		v   byte
	}
	px := make([]pix, 0, len(img))
	for i, v := range img {
		if v > 0 {
			px = append(px, pix{int32(i), v})
		}
	}
	sort.Slice(px, func(a, b int) bool {
		if px[a].v != px[b].v {
			return px[a].v > px[b].v
		}
		return px[a].idx < px[b].idx // stable rank for equal intensities
	})
	n := int(float64(len(px)) * e.Fraction)
	tr := make(Train, steps)
	per := e.PerStep
	if per <= 0 {
		per = 1
	}
	for k := 0; k < n; k++ {
		t := k / per
		if t >= steps {
			break
		}
		tr[t] = append(tr[t], px[k].idx)
	}
	return tr
}

// Phase encodes the 8-bit intensity over repeating 8-step phases: at
// phase b the pixel spikes if bit (7-b) of its intensity is set, so early
// phases carry the most significant information (Kim et al. style).
type Phase struct{}

// Name implements Encoder.
func (Phase) Name() string { return "phase" }

// Encode implements Encoder.
func (Phase) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for t := 0; t < steps; t++ {
		bit := uint(7 - t%8)
		var s []int32
		for i, v := range img {
			if v&(1<<bit) != 0 {
				s = append(s, int32(i))
			}
		}
		tr[t] = s
	}
	return tr
}

// Burst emits a contiguous burst of spikes per pixel whose length is
// proportional to intensity (Park et al., DAC 2019).
type Burst struct {
	// MaxBurst is the burst length of a saturated pixel.
	MaxBurst int
}

// NewBurst returns a burst coder with bursts up to 5 spikes.
func NewBurst() Burst { return Burst{MaxBurst: 5} }

// Name implements Encoder; see Rate.Name.
func (e Burst) Name() string { return "burst(n=" + strconv.Itoa(e.MaxBurst) + ")" }

// Encode implements Encoder.
func (e Burst) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v == 0 {
			continue
		}
		n := int(float64(v)/255*float64(e.MaxBurst) + 0.5)
		if n == 0 {
			continue
		}
		// Burst starts earlier for brighter pixels.
		start := int((1 - float64(v)/255) * float64(steps-n))
		for k := 0; k < n && start+k < steps; k++ {
			tr[start+k] = append(tr[start+k], int32(i))
		}
	}
	return tr
}
