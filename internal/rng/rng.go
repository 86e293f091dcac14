// Package rng provides deterministic, splittable pseudo-random number
// generation for the SparkXD simulators.
//
// Every stochastic component in the repository (spike encoders, weight
// initialization, weak-cell placement, error injection) draws from an
// explicit *Stream so that experiments are reproducible bit-for-bit and
// independent sub-experiments do not perturb each other's randomness.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. Sub-streams are derived by hashing a label
// into the parent seed, which gives statistically independent streams
// without any shared mutable state.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving sub-stream seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream (xoshiro256**).
// The zero value is not usable; construct with New or Derive.
type Stream struct {
	s0, s1, s2, s3 uint64

	// cached second normal variate for the Box-Muller transform
	haveGauss bool
	gauss     float64
}

// New returns a Stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := seed
	r := &Stream{}
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	return r
}

// fnv1a hashes a label into 64 bits (FNV-1a), used for sub-stream derivation.
func fnv1a(label string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Derive returns a new independent Stream obtained by mixing the given
// label into this stream's identity. Deriving the same label twice yields
// identical streams; different labels yield statistically independent ones.
// Derive does not advance the parent stream.
func (r *Stream) Derive(label string) *Stream {
	seed := r.s0 ^ (r.s1 << 1) ^ fnv1a(label)
	return New(seed)
}

// DeriveIndex is Derive for integer labels, convenient in loops.
func (r *Stream) DeriveIndex(label string, idx int) *Stream {
	seed := r.s0 ^ (r.s1 << 1) ^ fnv1a(label) ^ (0x9e3779b97f4a7c15 * uint64(idx+1))
	return New(seed)
}

// SeedIdentity returns the two state words Derive and DeriveIndex mix
// into sub-stream seeds. Two streams with equal SeedIdentity derive
// identical sub-streams for every (label, index), so callers can use it
// to key caches of derivation-only work — e.g. spike trains encoded from
// per-sample derived streams — without consuming any stream state.
func (r *Stream) SeedIdentity() [2]uint64 { return [2]uint64{r.s0, r.s1} }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Fill sets dst to the next len(dst) outputs of the stream — exactly the
// values len(dst) successive Uint64 calls would return — with the
// generator state held in locals for the whole batch instead of being
// loaded and stored through the receiver on every draw.
func (r *Stream) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	for {
		v := int64(r.Uint64() >> 1)
		if v < (1<<62)/n*n || n&(n-1) == 0 {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Stream) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Stream) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and stddev.
func (r *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Binomial returns a binomial variate Bin(n, p). It uses direct Bernoulli
// summation for small n*min(p,1-p) and a normal approximation with
// continuity correction plus clamping for large counts, which is accurate
// enough for the error-count use here (picking the number of weak cells to
// fail in a region) and O(1).
func (r *Stream) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 64 || float64(n)*(1-p) < 64 {
		// Exact-ish via waiting-time (geometric skips) — O(np) expected.
		count := 0
		i := 0
		logq := math.Log1p(-p)
		for {
			u := r.Float64()
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			skip := int(math.Floor(math.Log(u) / logq))
			i += skip + 1
			if i > n {
				return count
			}
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	v := math.Round(r.Normal(mean, sd))
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int(v)
}
