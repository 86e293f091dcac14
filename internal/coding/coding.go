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
	"slices"
	"sort"
	"strconv"

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

// Name implements Encoder. MaxProb is written in the shortest form that
// reads back as the same float64, so two coders share a name only if
// they encode identically.
func (e Rate) Name() string {
	return "rate-poisson(p=" + strconv.FormatFloat(e.MaxProb, 'g', -1, 64) + ")"
}

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
// below x exactly when it is below ceil(x)), so each pixel's threshold is
// precomputed once. The append has no branch: every pixel's index is
// stored at the arena's end, and the end advances by the compare's
// result; the arena keeps one step's worth of slack for that. Other
// MaxProb values keep the per-draw loop, because Bernoulli consumes no
// draw at p >= 1.
func (e Rate) Encode(img []byte, steps int, r *rng.Stream) Train {
	tr := make(Train, steps)
	// Precompute per-pixel thresholds (or, on the per-draw path,
	// probabilities); skip dark pixels and pixels with p <= 0 entirely —
	// Bernoulli neither fires nor draws for them.
	batched := e.MaxProb > 0 && e.MaxProb < 1
	idx := make([]int32, 0, len(img))
	var (
		thr   []uint64  // batched: ceil(p * 2^53)
		probs []float64 // per-draw: p
	)
	if batched {
		thr = make([]uint64, 0, len(img))
	}
	expected := 0.0
	for i, v := range img {
		p := float64(v) / 255 * e.MaxProb
		if v == 0 || p <= 0 {
			continue
		}
		idx = append(idx, int32(i))
		if batched {
			thr = append(thr, rateThreshold(p))
		} else {
			probs = append(probs, p)
		}
		expected += p
	}
	offs := make([]int, steps+1)
	arena := make([]int32, 0, int(expected*float64(steps))+16+len(idx))
	if batched {
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
	} else {
		for t := 0; t < steps; t++ {
			for k, p := range probs {
				if r.Bernoulli(p) {
					arena = append(arena, idx[k])
				}
			}
			offs[t+1] = len(arena)
		}
	}
	for t := 0; t < steps; t++ {
		if offs[t] == offs[t+1] {
			continue // empty steps stay nil, as in the per-step form
		}
		tr[t] = arena[offs[t]:offs[t+1]:offs[t+1]]
	}
	return tr
}

// rateThreshold returns ceil(p * 2^53), the integer threshold for a draw
// u: u>>11 < rateThreshold(p) exactly when float64(u>>11)/2^53 < p.
func rateThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// DeterministicRate spikes each pixel at evenly spaced intervals
// proportional to its intensity — rate coding without Poisson noise,
// useful for reproducible unit tests and ablations.
type DeterministicRate struct {
	MaxPerSteps float64 // spikes per `steps` for a saturated pixel, as fraction
}

// NewDeterministicRate mirrors NewRate's peak rate.
func NewDeterministicRate() DeterministicRate { return DeterministicRate{MaxPerSteps: 0.12} }

// Name implements Encoder.
func (e DeterministicRate) Name() string { return "rate-deterministic" }

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

// Name implements Encoder.
func (e TTFS) Name() string { return "time-to-first-spike" }

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

// Name implements Encoder.
func (e RankOrder) Name() string { return "rank-order" }

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

// Name implements Encoder.
func (e Burst) Name() string { return "burst" }

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
