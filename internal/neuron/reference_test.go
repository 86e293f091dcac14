package neuron

import (
	"math"
	"testing"

	"sparkxd/internal/rng"
)

// refState is an independent copy of a pool's mutable state, advanced by
// the reference kernels below. Its refractory counters are int16, the
// type stepReference is written for; equalState compares them widened.
type refState struct {
	V      []float32
	Theta  []float32
	refrac []int16
}

func refStateOf(p *Pool) *refState {
	s := &refState{
		V:      append([]float32(nil), p.V...),
		Theta:  append([]float32(nil), p.Theta...),
		refrac: make([]int16, len(p.refrac)),
	}
	for j, r := range p.refrac {
		s.refrac[j] = int16(r)
	}
	return s
}

// stepReference is the seed repo's scalar Pool.Step, kept verbatim as
// the semantics oracle for the hoisted/branch-lean production loop. Any
// change to Step must keep results bit-identical to this.
func stepReference(cfg LIFConfig, s *refState, input []float32) []int32 {
	decayV := float32(math.Exp(-cfg.DT / cfg.TauM))
	decayTheta := float32(math.Exp(-cfg.DT / cfg.TauTheta))
	var spikes []int32
	rest := cfg.VRest
	for j := range s.V {
		s.Theta[j] *= decayTheta
		if s.refrac[j] > 0 {
			s.refrac[j]--
			s.V[j] = cfg.VReset
			continue
		}
		v := rest + (s.V[j]-rest)*decayV + input[j]
		if v < cfg.VFloor {
			v = cfg.VFloor
		}
		if v >= cfg.VTh+s.Theta[j] {
			spikes = append(spikes, int32(j))
			v = cfg.VReset
			s.refrac[j] = int16(cfg.RefractorySteps)
			s.Theta[j] += cfg.ThetaPlus
		}
		s.V[j] = v
	}
	return spikes
}

// inhibitReference is the seed repo's quadratic Inhibit, the oracle for
// the generation-stamped O(N) form.
func inhibitReference(cfg LIFConfig, s *refState, winners []int32, strength float32) {
	if len(winners) == 0 || strength == 0 {
		return
	}
	isWinner := func(j int) bool {
		for _, w := range winners {
			if int(w) == j {
				return true
			}
		}
		return false
	}
	for j := range s.V {
		if isWinner(j) {
			continue
		}
		v := s.V[j] - strength*float32(len(winners))
		if v < cfg.VFloor {
			v = cfg.VFloor
		}
		s.V[j] = v
	}
}

// sameBits reports whether a and b have the same bit pattern, counting
// every NaN as equal: NaN payloads depend on operand order, and no NaN
// reaches the kernels in use (weights are sanitized on load).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func equalState(t *testing.T, step int, p *Pool, s *refState) {
	t.Helper()
	for j := range s.V {
		if !sameBits(p.V[j], s.V[j]) {
			t.Fatalf("step %d: V[%d] = %v, reference %v", step, j, p.V[j], s.V[j])
		}
		if !sameBits(p.Theta[j], s.Theta[j]) {
			t.Fatalf("step %d: Theta[%d] = %v, reference %v", step, j, p.Theta[j], s.Theta[j])
		}
		if p.refrac[j] != int32(s.refrac[j]) {
			t.Fatalf("step %d: refrac[%d] = %d, reference %d", step, j, p.refrac[j], s.refrac[j])
		}
	}
}

// TestStepMatchesScalarReference drives the production Step and the seed
// scalar reference (stepReference, then inhibitReference) through
// identical randomized input sequences and requires bit-identical
// membrane, threshold, refractory, and spike trajectories — the
// regression guard for every future Step rewrite. N = 97 runs twelve
// eight-neuron blocks of the AVX2 body and a one-neuron Go tail, and the
// strength cycles through 0, -0 and positive values.
func TestStepMatchesScalarReference(t *testing.T) {
	cfg := DefaultLIF(97) // odd size exercises unroll tails downstream
	cfg.VTh = 5.0
	cfg.ThetaPlus = 0.5
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := refStateOf(p)
	r := rng.New(42)
	input := make([]float32, cfg.N)
	strengths := []float32{1.5, 0, 0.25, float32(math.Copysign(0, -1)), 4}
	var spikeBuf []int32
	for step := 0; step < 300; step++ {
		for j := range input {
			// Mostly subthreshold with occasional strong drive, so the
			// trajectory visits spiking, refractory, and floor regimes.
			input[j] = r.Float32() * 2
			if r.Bernoulli(0.03) {
				input[j] = 8 + r.Float32()*4
			}
			if r.Bernoulli(0.02) {
				input[j] = -30 // slam into VFloor
			}
		}
		strength := strengths[step%len(strengths)]
		got := p.Step(input, strength, spikeBuf)
		want := stepReference(cfg, ref, input)
		inhibitReference(cfg, ref, want, strength)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d spikes, reference %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: spike[%d] = %d, reference %d", step, i, got[i], want[i])
			}
		}
		equalState(t, step, p, ref)
	}
}

// TestInhibitMatchesScalarReference pins Inhibit's walk over its
// ascending winners against the seed's quadratic winner scan, including
// repeated calls (no call may leak winners into the next).
func TestInhibitMatchesScalarReference(t *testing.T) {
	cfg := DefaultLIF(61)
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := refStateOf(p)
	r := rng.New(7)
	input := make([]float32, cfg.N)
	for step := 0; step < 120; step++ {
		for j := range input {
			input[j] = r.Float32() * 3
			if r.Bernoulli(0.05) {
				input[j] = 9
			}
		}
		spikes := p.Step(input, 0, nil)
		refSpikes := stepReference(cfg, ref, input)
		p.Inhibit(spikes, 1.5)
		inhibitReference(cfg, ref, refSpikes, 1.5)
		equalState(t, step, p, ref)
	}
}

// special holds the float32 values whose handling differs between a
// compare-and-blend and a min/max, or under reassociation.
var special = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, -10, 10, 1e-8, 3e7,
}

// FuzzStep drives Pool.Step, inhibition included, through up to eight
// steps against stepReference followed by inhibitReference, comparing
// spikes, V, Theta and refrac. N runs from 1 to 40, so the eight-neuron
// blocks of the AVX2 body and the Go tail both appear. Each byte of
// state and drive picks a neuron's regime: refractory, floor-clamped
// (inputs and membranes far below VFloor), firing (suprathreshold
// drive), a special value, or subthreshold. The step's inhibition
// strength is drawn from the drive bytes: 0, -0, 4, 8, 12, NaN, +Inf or
// 1.5. mode%3 passes spikesOut as nil, shorter than N, or with capacity
// N and stale contents. The high bits of steps move VRest and VReset off
// zero, so no two Step constants are equal.
func FuzzStep(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(3), []byte{0x05, 0x81, 0x42, 0xc3}, []byte{0x00, 0x21, 0x40, 0x65, 0x9a})
	f.Add(uint8(38), uint8(5), uint8(7), []byte{0xff, 0x10, 0x7e}, []byte{0x20, 0x24, 0x00, 0x41, 0x3f})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{}, []byte{0x22})
	f.Fuzz(func(t *testing.T, n, mode, steps uint8, state, drive []byte) {
		cfg := DefaultLIF(1 + int(n)%40)
		cfg.VTh = 5
		cfg.ThetaPlus = 0.5
		cfg.RefractorySteps = int(mode/3) % 4
		cfg.VRest = []float32{0, 1, -1}[int(steps>>3)%3]
		cfg.VReset = []float32{0, -1, -2}[int(steps>>5)%3]
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.V {
			b := fuzzByte(state, j)
			p.V[j] = fuzzValue(b)
			p.Theta[j] = float32(b&15) / 8
			p.refrac[j] = int32(b>>6) % int32(cfg.RefractorySteps+1)
		}
		ref := refStateOf(p)
		input := make([]float32, cfg.N)
		for step := 0; step < 1+int(steps)%8; step++ {
			for j := range input {
				input[j] = fuzzValue(fuzzByte(drive, step*cfg.N+j))
			}
			var buf []int32
			switch mode % 3 {
			case 1:
				buf = make([]int32, 0, cfg.N/2)
			case 2:
				buf = make([]int32, cfg.N)
				for i := range buf {
					buf[i] = -1
				}
			}
			strength := fuzzStrengths[fuzzByte(drive, step)&7]
			got := p.Step(input, strength, buf)
			want := stepReference(cfg, ref, input)
			inhibitReference(cfg, ref, want, strength)
			if len(got) != len(want) {
				t.Fatalf("step %d: spikes %v, reference %v", step, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: spikes %v, reference %v", step, got, want)
				}
			}
			equalState(t, step, p, ref)
		}
	})
}

// fuzzStrengths are FuzzStep's inhibition strengths, indexed by the low
// three bits of a drive byte. Indices 0-3 are 4·(b&3), so the committed
// corpus keeps the strengths it was written with.
var fuzzStrengths = []float32{
	0, 4, 8, 12,
	float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), 1.5,
}

// fuzzByte is b[i] read cyclically, or 0 when b is empty.
func fuzzByte(b []byte, i int) byte {
	if len(b) == 0 {
		return 0
	}
	return b[i%len(b)]
}

// fuzzValue maps one byte to a membrane potential or drive: the top
// three bits pick the regime, the low five the value within it.
func fuzzValue(b byte) float32 {
	low := float32(b & 31)
	switch b >> 5 {
	case 0:
		return -30 - low // below VFloor
	case 1:
		return 5 + low/4 // at or over the threshold
	case 2:
		return special[int(b&31)%len(special)]
	}
	return low / 16 // subthreshold
}
