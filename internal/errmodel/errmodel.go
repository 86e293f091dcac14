// Package errmodel implements the probabilistic approximate-DRAM error
// models of Koppula et al. (EDEN, MICRO 2019 — ref [15] of the paper),
// which the SparkXD paper adopts for error generation and injection
// (Sec. III):
//
//	Model 0: bit errors uniformly distributed over a bank (weak cells
//	         anywhere, each failing with some probability). This is the
//	         model the paper uses for all experiments.
//	Model 1: errors clustered on weak bitlines.
//	Model 2: errors clustered on weak wordlines.
//	Model 3: data-dependent errors — weak cells holding a 1 fail with a
//	         different probability than cells holding a 0.
//
// The key physical property all models share is that weak cells are FIXED
// for a given device and voltage: repeated reads fail at correlated
// locations. The Profile type captures this by deriving the weak-cell set
// deterministically from a device seed, while each injection pass decides
// *which* weak cells actually flip this time using the caller's stream.
//
// Per-subarray variation: real reduced-voltage DRAM shows spatial
// locality — some subarrays are much weaker than others (EDEN Sec. 3;
// also the premise of SparkXD's Algorithm 2, which needs safe and unsafe
// subarrays to exist). Profile draws each subarray's BER from a lognormal
// distribution around the device BER(V) curve of package voltscale.
package errmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"sparkxd/internal/dram"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/voltscale"
)

// Kind selects one of the four EDEN error models.
type Kind uint8

const (
	Model0 Kind = iota // uniform-random over the bank (paper default)
	Model1             // bitline-clustered
	Model2             // wordline-clustered
	Model3             // data-dependent
)

// String names the model.
func (k Kind) String() string {
	switch k {
	case Model0:
		return "model0-uniform"
	case Model1:
		return "model1-bitline"
	case Model2:
		return "model2-wordline"
	case Model3:
		return "model3-data-dependent"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Profile is the weak-cell error profile of one device at one supply
// voltage: a BER per subarray, plus the seed that pins weak-cell
// locations. It plays the role of the "DRAM error profile" box in the
// paper's Fig. 7.
type Profile struct {
	Geom dram.Geometry
	// VSupply is the voltage this profile was characterized at.
	VSupply float64
	// SubarrayBER holds the raw bit error rate of every subarray, indexed
	// by dram.SubarrayID.Linear.
	SubarrayBER []float64
	// DeviceSeed pins weak-cell locations for the lifetime of the device.
	DeviceSeed uint64
	// WeakBoost is the ratio weak-cell-density / BER: a weak cell fails
	// with probability 1/WeakBoost on each access. EDEN observes weak
	// cells failing intermittently; 4 reproduces that regime.
	WeakBoost float64
}

// Spread is the default sigma of the lognormal per-subarray variation.
const DefaultSpread = 1.0

// NewProfile characterizes a device at supply voltage v: every subarray
// receives BER(v) scaled by a lognormal factor with the given sigma
// (spread = 0 gives a uniform device). The profile is deterministic in
// (geometry, v, spread, seed).
func NewProfile(geom dram.Geometry, circuit voltscale.Model, v, spread float64, seed uint64) (*Profile, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("errmodel: profile geometry: %w", err)
	}
	if err := circuit.Validate(); err != nil {
		return nil, fmt.Errorf("errmodel: profile circuit model: %w", err)
	}
	if spread < 0 {
		return nil, errors.New("errmodel: spread must be non-negative")
	}
	base := circuit.BER(v)
	n := geom.SubarrayCount()
	p := &Profile{
		Geom:        geom,
		VSupply:     v,
		SubarrayBER: make([]float64, n),
		DeviceSeed:  seed,
		WeakBoost:   4,
	}
	r := rng.New(seed).Derive("subarray-ber")
	for i := 0; i < n; i++ {
		if base == 0 {
			p.SubarrayBER[i] = 0
			continue
		}
		factor := math.Exp(r.Normal(0, spread) - spread*spread/2) // mean-1 lognormal
		ber := base * factor
		if ber > 0.5 {
			ber = 0.5
		}
		p.SubarrayBER[i] = ber
	}
	return p, nil
}

// UniformProfile builds a profile in which every subarray has exactly the
// given BER. This is how Algorithm 1 of the paper injects errors at a
// *chosen rate* during fault-aware training (rates, not voltages, drive
// the training schedule), and how the error-tolerance analysis sweeps BER
// values directly.
func UniformProfile(geom dram.Geometry, ber float64, seed uint64) (*Profile, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("errmodel: profile geometry: %w", err)
	}
	if ber < 0 || ber > 0.5 {
		return nil, errors.New("errmodel: BER must be in [0, 0.5]")
	}
	n := geom.SubarrayCount()
	p := &Profile{
		Geom:        geom,
		VSupply:     0, // not voltage-derived
		SubarrayBER: make([]float64, n),
		DeviceSeed:  seed,
		WeakBoost:   4,
	}
	for i := range p.SubarrayBER {
		p.SubarrayBER[i] = ber
	}
	return p, nil
}

// MeanBER returns the average BER over all subarrays.
func (p *Profile) MeanBER() float64 {
	var s float64
	for _, b := range p.SubarrayBER {
		s += b
	}
	return s / float64(len(p.SubarrayBER))
}

// MaxBER returns the worst subarray BER.
func (p *Profile) MaxBER() float64 {
	var m float64
	for _, b := range p.SubarrayBER {
		if b > m {
			m = b
		}
	}
	return m
}

// SafeSubarrays returns, per linear subarray index, whether the subarray's
// error rate is at or below the threshold — the safe/unsafe partition of
// Fig. 9(a).
func (p *Profile) SafeSubarrays(berTh float64) []bool {
	out := make([]bool, len(p.SubarrayBER))
	for i, b := range p.SubarrayBER {
		out[i] = b <= berTh
	}
	return out
}

// SafeCount returns how many subarrays are safe at the given threshold.
func (p *Profile) SafeCount(berTh float64) int {
	n := 0
	for _, b := range p.SubarrayBER {
		if b <= berTh {
			n++
		}
	}
	return n
}

// Injector injects bit errors into a mapped weight image according to an
// EDEN error model and a device profile. Construct with NewInjector and
// call Prepare before injecting.
//
// Prepare derives the weak-cell sets of every subarray region of one
// placement, so repeated injections (every training epoch, every
// evaluation point) are fast and hit correlated locations — the
// fixed-weak-cell physics the models describe.
type Injector struct {
	Kind    Kind
	Profile *Profile
	// P1 and P0 bias data-dependent failures for Model3: a weak cell
	// holding a 1 fails with activation*P1*2/(P1+P0); holding a 0 with
	// activation*P0*2/(P1+P0). Ignored by other models.
	P1, P0 float64

	// pl is the placement Prepare ran on; Inject accepts no other.
	pl Placement
	// regions holds the regions whose BER is above 0, in subarray order.
	// Inject must visit regions in a fixed order: every region consumes
	// draws from the caller's stream.
	regions []region
}

// region is the portion of an image that lives in one subarray.
//
// Its units are stored as runs, and its weak-cell set in injection-ready
// form: absBits holds the absolute image bit index of every weak cell
// (Models 0 and 3), in sampled order, so the per-flip unit/offset
// translation happens once at Prepare instead of on every injection
// pass; blOffs lists, column by column, the weak bit offsets within one
// unit in ascending order (Model1), so injection visits only weak
// bitlines; and weakRows is a bitset of the subarray's weak rows
// (Model2).
type region struct {
	sub      int // linear subarray index
	ber      float64
	runs     []run
	absBits  []int64
	blOffs   []int32
	blStart  []int32 // column c's offsets are blOffs[blStart[c]:blStart[c+1]]
	weakRows []uint64
}

// run is a stretch of consecutive image units in one row of a region,
// at consecutive columns.
type run struct {
	unit int32 // first image unit
	n    int32 // units in the run
	row  int32 // row within the subarray
	col  int32 // column of the first unit
}

// NewInjector returns an injector for the given model kind and profile.
func NewInjector(kind Kind, p *Profile) *Injector {
	return &Injector{
		Kind:    kind,
		Profile: p,
		P1:      1.5, // EDEN-style asymmetry: true-cells fail more often
		P0:      0.5,
	}
}

// Placement describes where each column unit of an image resides.
// Inject compares placements with ==, so a placement type must be
// comparable (a pointer, typically).
type Placement interface {
	// Units returns the number of column units in the image.
	Units() int
	// CoordOf returns the DRAM coordinate of unit u.
	CoordOf(u int) dram.Coord
	// UnitBytes returns the size of one column unit in bytes.
	UnitBytes() int
}

// Prepare builds the weak-cell sets for a placement and records it:
// Inject and InjectRecord accept only the placement last prepared.
// Prepare is the only writer of the injector, so a prepared injector is
// safely shared by concurrent injections.
func (in *Injector) Prepare(pl Placement) {
	geom := in.Profile.Geom
	in.pl = pl
	in.regions = nil
	slot := make([]int32, geom.SubarrayCount()) // region index + 1, by subarray
	for u := 0; u < pl.Units(); u++ {
		c := pl.CoordOf(u)
		lin := c.SubarrayOf().Linear(geom)
		if in.Profile.SubarrayBER[lin] <= 0 {
			continue // a region with no errors never draws
		}
		if slot[lin] == 0 {
			in.regions = append(in.regions, region{sub: lin, ber: in.Profile.SubarrayBER[lin]})
			slot[lin] = int32(len(in.regions))
		}
		reg := &in.regions[slot[lin]-1]
		if k := len(reg.runs) - 1; k >= 0 {
			last := &reg.runs[k]
			if int(last.unit+last.n) == u && int(last.row) == c.Row && int(last.col+last.n) == c.Column {
				last.n++
				continue
			}
		}
		reg.runs = append(reg.runs, run{unit: int32(u), n: 1, row: int32(c.Row), col: int32(c.Column)})
	}
	sort.Slice(in.regions, func(a, b int) bool { return in.regions[a].sub < in.regions[b].sub })
	bitsPer := int64(pl.UnitBytes()) * 8
	for i := range in.regions {
		in.buildWeakSets(&in.regions[i], bitsPer)
	}
}

// Bytes returns the bytes the prepared regions, runs and weak-cell sets
// occupy.
func (in *Injector) Bytes() int64 {
	n := int64(cap(in.regions)) * int64(unsafe.Sizeof(region{}))
	for _, reg := range in.regions {
		n += int64(unsafe.Sizeof(run{}))*int64(cap(reg.runs)) + 8*int64(cap(reg.absBits)+cap(reg.weakRows)) +
			4*int64(cap(reg.blOffs)+cap(reg.blStart))
	}
	return n
}

// buildWeakSets derives the deterministic weak-cell locations of a region
// from the device seed.
func (in *Injector) buildWeakSets(reg *region, bitsPer int64) {
	seedStream := rng.New(in.Profile.DeviceSeed).DeriveIndex("weak-cells", reg.sub)
	weakFrac := reg.ber * in.Profile.WeakBoost
	if weakFrac > 0.5 {
		weakFrac = 0.5
	}
	switch in.Kind {
	case Model0, Model3:
		// The region's image units in order, for this translation only.
		var units []int64
		for _, ru := range reg.runs {
			for u := int64(ru.unit); u < int64(ru.unit+ru.n); u++ {
				units = append(units, u)
			}
		}
		totalBits := int64(len(units)) * bitsPer
		// Sample weak bit positions uniformly over the region, without
		// duplicates (a physical cell is weak once), and resolve each to
		// its absolute image position once, so Inject's hot loop is a
		// Bernoulli draw and a FlipBit with no division. The sampled
		// order is kept: draw k of every injection pass maps to the same
		// physical cell.
		count := seedStream.Binomial(int(totalBits), weakFrac)
		seen := make(map[int64]struct{}, count)
		reg.absBits = make([]int64, 0, count)
		for len(reg.absBits) < count {
			b := seedStream.Int63n(totalBits)
			if _, dup := seen[b]; dup {
				continue
			}
			seen[b] = struct{}{}
			reg.absBits = append(reg.absBits, units[b/bitsPer]*bitsPer+b%bitsPer)
		}
	case Model1:
		// Weak bitlines: a bitline is one bit offset within the row
		// (column*bitsPerUnit + bitInUnit). Cluster the same BER mass.
		nBitlines := in.Profile.Geom.Columns * int(bitsPer)
		count := seedStream.Binomial(nBitlines, weakFrac)
		weak := make([]bool, nBitlines)
		for i := 0; i < count; i++ {
			weak[seedStream.Intn(nBitlines)] = true
		}
		// Per column, the ascending weak-bit offsets within one unit —
		// injection then visits exactly the weak bitlines, in the same
		// order a full 0..bitsPer scan finds them.
		reg.blStart = make([]int32, in.Profile.Geom.Columns+1)
		for col := 0; col < in.Profile.Geom.Columns; col++ {
			for b := 0; b < int(bitsPer); b++ {
				if weak[col*int(bitsPer)+b] {
					reg.blOffs = append(reg.blOffs, int32(b))
				}
			}
			reg.blStart[col+1] = int32(len(reg.blOffs))
		}
	case Model2:
		// Weak wordlines: whole rows of the subarray.
		nRows := in.Profile.Geom.Rows
		count := seedStream.Binomial(nRows, weakFrac)
		reg.weakRows = make([]uint64, (nRows+63)/64)
		for i := 0; i < count; i++ {
			row := seedStream.Intn(nRows)
			reg.weakRows[row/64] |= 1 << uint(row%64)
		}
	}
}

// wordlineMaskBytes bounds the stack-local flip mask the bits of a weak
// wordline's units are accumulated into before being XORed into the
// image word-at-a-time.
const wordlineMaskBytes = 512

// Inject flips bits of img in place according to the model, profile, and
// placement, and returns the number of flipped bits. The stream governs
// which weak cells fail on this particular pass; weak-cell locations
// themselves are fixed by the profile's device seed.
//
// The loops consume Bernoulli draws in exactly the order the original
// scan-everything form did — one draw per weak cell visited in region /
// unit / ascending-bit order — so flip patterns are bit-identical to it
// for any given stream. Scratch state is stack-local: one Injector is
// safely shared read-only by concurrent scenario workers. Inject panics
// when pl is not the placement Prepare last ran on.
func (in *Injector) Inject(img []byte, pl Placement, r *rng.Stream) int64 {
	return in.inject(img, pl, r, nil)
}

// InjectRecord is Inject that also appends the image bit index of every
// bit it flips to flips, and returns the extended slice: it appends one
// index per flip, each bit at most once, so flipping the appended bits
// again restores img. It draws from r exactly as Inject does.
func (in *Injector) InjectRecord(img []byte, pl Placement, r *rng.Stream, flips []int64) []int64 {
	in.inject(img, pl, r, &flips)
	return flips
}

// inject is the one loop body behind Inject and InjectRecord; rec, when
// non-nil, receives the index of every flipped bit.
func (in *Injector) inject(img []byte, pl Placement, r *rng.Stream, rec *[]int64) int64 {
	if in.pl == nil || pl != in.pl {
		panic("errmodel: Inject with a placement the injector was not prepared for; call Prepare first")
	}
	bitsPer := int64(pl.UnitBytes()) * 8
	var flipped int64
	actBase := 1.0 / in.Profile.WeakBoost
	for i := range in.regions {
		reg := &in.regions[i]
		switch in.Kind {
		case Model0:
			// absBits pre-resolves every weak cell's image position, so
			// this — the paper-default model, run once per scenario per
			// evaluation point — is one draw and at most one XOR per cell.
			for _, bit := range reg.absBits {
				if r.Bernoulli(actBase) {
					quant.FlipBit(img, bit)
					flipped++
					if rec != nil {
						*rec = append(*rec, bit)
					}
				}
			}
		case Model3:
			p1 := actBase * in.P1 * 2 / (in.P1 + in.P0)
			p0 := actBase * in.P0 * 2 / (in.P1 + in.P0)
			for _, bit := range reg.absBits {
				var pAct float64
				if quant.GetBit(img, bit) {
					pAct = p1
				} else {
					pAct = p0
				}
				if r.Bernoulli(pAct) {
					quant.FlipBit(img, bit)
					flipped++
					if rec != nil {
						*rec = append(*rec, bit)
					}
				}
			}
		case Model1:
			for _, ru := range reg.runs {
				for j := int32(0); j < ru.n; j++ {
					col := ru.col + j
					offs := reg.blOffs[reg.blStart[col]:reg.blStart[col+1]]
					unitBase := int64(ru.unit+j) * bitsPer
					for _, b := range offs {
						if r.Bernoulli(actBase) {
							quant.FlipBit(img, unitBase+int64(b))
							flipped++
							if rec != nil {
								*rec = append(*rec, unitBase+int64(b))
							}
						}
					}
				}
			}
		case Model2:
			// A weak wordline draws for every bit of each of its units, and
			// a run's units are one contiguous stretch of the image, drawn
			// in ascending bit order: flips are accumulated into a stack
			// mask, wordlineMaskBytes at a time, and applied with one
			// word-at-a-time XOR pass each.
			var maskArr [wordlineMaskBytes]byte
			for _, ru := range reg.runs {
				if reg.weakRows[ru.row/64]>>(ru.row%64)&1 == 0 {
					continue
				}
				end := int64(ru.unit+ru.n) * bitsPer / 8
				for lo := int64(ru.unit) * bitsPer / 8; lo < end; lo += wordlineMaskBytes {
					mask := maskArr[:min(wordlineMaskBytes, end-lo)]
					clear(mask)
					for b := range int64(len(mask)) * 8 {
						if r.Bernoulli(actBase) {
							mask[b>>3] |= 1 << (b & 7)
							if rec != nil {
								*rec = append(*rec, lo*8+b)
							}
						}
					}
					flipped += quant.XORInto(img[lo:], mask)
				}
			}
		}
	}
	return flipped
}

// ExpectedFlips returns the expected number of flipped bits for an image
// fully resident in subarrays with the profile's rates, given the
// placement — useful for sanity checks and tests.
func (in *Injector) ExpectedFlips(pl Placement) float64 {
	geom := in.Profile.Geom
	bitsPer := float64(pl.UnitBytes()) * 8
	var exp float64
	for u := 0; u < pl.Units(); u++ {
		lin := pl.CoordOf(u).SubarrayOf().Linear(geom)
		exp += bitsPer * in.Profile.SubarrayBER[lin]
	}
	return exp
}
