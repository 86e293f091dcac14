// Package quant converts synaptic weight tensors to and from the byte
// images that are stored in (approximate) DRAM, and provides the bit-level
// manipulation that error injection needs.
//
// The paper stores FP32 weights (Sec. V: "Python-based simulation with
// FP32 precision"); this package also offers FP16 and Q8.8 fixed-point
// formats, which the paper lists as complementary state-of-the-art
// techniques (quantization) that SparkXD can be combined with.
//
// Bit errors in stored weights can produce NaN, infinities, or huge
// magnitudes (a flipped exponent MSB). Sanitize implements the standard
// on-load clipping used by fault-tolerant inference systems: corrupted
// values are clamped into the legal weight range and non-finite values
// are zeroed, so a single flipped MSB cannot dominate the whole network
// (the paper's label-2 observation in Sec. VI-A is exactly about MSB
// flips being the damaging ones).
package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Format selects the stored representation of one weight.
type Format uint8

const (
	// FP32 is IEEE-754 binary32, 4 bytes per weight (the paper's format).
	FP32 Format = iota
	// FP16 is IEEE-754 binary16, 2 bytes per weight.
	FP16
	// Q88 is signed 8.8 fixed point, 2 bytes per weight.
	Q88
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case Q88:
		return "q8.8"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// BytesPerWeight returns the storage footprint of one weight.
func (f Format) BytesPerWeight() int {
	switch f {
	case FP32:
		return 4
	case FP16, Q88:
		return 2
	default:
		panic("quant: unknown format")
	}
}

// ImageSize returns the byte-image size for n weights, padded up to pad
// bytes (pass the DRAM column size so images tile whole column units;
// pad <= 0 means no padding).
func (f Format) ImageSize(n, pad int) int {
	size := n * f.BytesPerWeight()
	if pad > 0 && size%pad != 0 {
		size += pad - size%pad
	}
	return size
}

// Serialize encodes weights into dst, which must be at least
// ImageSize(len(w), 0) long. Padding bytes are left untouched.
func Serialize(w []float32, f Format, dst []byte) error {
	need := len(w) * f.BytesPerWeight()
	if len(dst) < need {
		return fmt.Errorf("quant: dst too small: %d < %d", len(dst), need)
	}
	switch f {
	case FP32:
		for i, v := range w {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
		}
	case FP16:
		for i, v := range w {
			binary.LittleEndian.PutUint16(dst[i*2:], f32ToF16(v))
		}
	case Q88:
		for i, v := range w {
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(f32ToQ88(v)))
		}
	default:
		return errors.New("quant: unknown format")
	}
	return nil
}

// Deserialize decodes n weights from src into out (len(out) == n).
func Deserialize(src []byte, f Format, out []float32) error {
	need := len(out) * f.BytesPerWeight()
	if len(src) < need {
		return fmt.Errorf("quant: src too small: %d < %d", len(src), need)
	}
	switch f {
	case FP32:
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case FP16:
		for i := range out {
			out[i] = f16ToF32(binary.LittleEndian.Uint16(src[i*2:]))
		}
	case Q88:
		for i := range out {
			out[i] = q88ToF32(int16(binary.LittleEndian.Uint16(src[i*2:])))
		}
	default:
		return errors.New("quant: unknown format")
	}
	return nil
}

// FlipBit inverts bit idx (0 = LSB of byte 0) of the image.
func FlipBit(img []byte, idx int64) {
	img[idx>>3] ^= 1 << uint(idx&7)
}

// GetBit returns bit idx of the image.
func GetBit(img []byte, idx int64) bool {
	return img[idx>>3]&(1<<uint(idx&7)) != 0
}

// CountDiffBits returns the Hamming distance between two equal-length
// images; it panics on length mismatch. It compares eight bytes at a
// time with a hardware popcount. The errmodel tests use it as the oracle
// that checks how many bits an injection actually flipped.
func CountDiffBits(a, b []byte) int64 {
	if len(a) != len(b) {
		panic("quant: CountDiffBits length mismatch")
	}
	var n int64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		n += int64(bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])))
	}
	for ; i < len(a); i++ {
		n += int64(bits.OnesCount8(a[i] ^ b[i]))
	}
	return n
}

// XORInto flips dst ^= mask word-at-a-time and returns the number of
// bits set in mask — i.e. the number of bits it flipped in dst. It is
// the batch form of FlipBit used by dense error injection (a weak
// wordline flips many bits of one column unit in one pass). It panics if
// dst is shorter than mask.
func XORInto(dst, mask []byte) int64 {
	if len(dst) < len(mask) {
		panic("quant: XORInto dst shorter than mask")
	}
	var n int64
	i := 0
	for ; i+8 <= len(mask); i += 8 {
		m := binary.LittleEndian.Uint64(mask[i:])
		if m == 0 {
			continue
		}
		n += int64(bits.OnesCount64(m))
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^m)
	}
	for ; i < len(mask); i++ {
		m := mask[i]
		if m == 0 {
			continue
		}
		n += int64(bits.OnesCount8(m))
		dst[i] ^= m
	}
	return n
}

// Sanitize clamps every weight into [lo, hi] and replaces non-finite
// values with zero. It returns the number of values it had to repair,
// which is a useful observability signal for error-injection experiments.
func Sanitize(w []float32, lo, hi float32) int {
	repaired := 0
	for i, v := range w {
		f64 := float64(v)
		switch {
		case math.IsNaN(f64) || math.IsInf(f64, 0):
			w[i] = 0
			repaired++
		case v < lo:
			w[i] = lo
			repaired++
		case v > hi:
			w[i] = hi
			repaired++
		}
	}
	return repaired
}

// f32ToF16 converts float32 to IEEE binary16 with round-to-nearest-even,
// flushing values below the subnormal range to zero and overflowing to Inf.
func f32ToF16(v float32) uint16 {
	bits := math.Float32bits(v)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to signed zero
		}
		// subnormal half
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		if mant>>(shift-1)&1 != 0 { // round half up (adequate here)
			half++
		}
		return sign | half
	case exp >= 0x1f:
		if exp == 0x1f+112 && mant != 0 { // NaN passthrough
			return sign | 0x7e00
		}
		return sign | 0x7c00 // Inf
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		if mant&0x1000 != 0 {
			half++
		}
		return half
	}
}

// f16ToF32 converts IEEE binary16 to float32.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return float32(math.NaN())
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// f32ToQ88 converts to signed Q8.8 with saturation.
func f32ToQ88(v float32) int16 {
	x := math.Round(float64(v) * 256)
	if x > math.MaxInt16 {
		return math.MaxInt16
	}
	if x < math.MinInt16 {
		return math.MinInt16
	}
	return int16(x)
}

// q88ToF32 converts signed Q8.8 to float32.
func q88ToF32(q int16) float32 { return float32(q) / 256 }
