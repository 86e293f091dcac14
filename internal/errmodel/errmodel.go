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

// BEROf returns the subarray's raw BER.
func (p *Profile) BEROf(id dram.SubarrayID) float64 {
	return p.SubarrayBER[id.Linear(p.Geom)]
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
// EDEN error model and a device profile. Construct with NewInjector.
//
// The injector caches the weak-cell sets per subarray region after the
// first pass over a given placement, so repeated injections (every
// training epoch, every evaluation point) are fast and hit correlated
// locations — the fixed-weak-cell physics the models describe.
type Injector struct {
	Kind    Kind
	Profile *Profile
	// P1 and P0 bias data-dependent failures for Model3: a weak cell
	// holding a 1 fails with activation*P1*2/(P1+P0); holding a 0 with
	// activation*P0*2/(P1+P0). Ignored by other models.
	P1, P0 float64

	regions map[int]*region // keyed by linear subarray index
	// order is the sorted region key sequence. Inject must visit regions
	// in a fixed order: every region consumes draws from the caller's
	// stream, so iterating the map directly would make the flip pattern
	// depend on Go's randomized map iteration order.
	order []int
}

// region is the portion of an image that lives in one subarray.
//
// The weak-cell sets are stored in injection-ready form: absBits holds
// the absolute image bit index of every weak cell (Models 0 and 3), so
// the per-flip unit/offset division happens once at Prepare instead of
// on every injection pass; weakBLOff lists, per DRAM column, the weak
// bit offsets within one unit in ascending order (Model1), so injection
// visits only weak bitlines instead of probing a map for every bit; and
// weakRow is a dense per-row flag slice (Model2).
type region struct {
	sub      dram.SubarrayID
	ber      float64
	unitIdx  []int32 // image column units in this subarray (image order)
	bitsPer  int64   // bits per unit
	weakBits []int64 // region-relative weak bit positions (Models 0 and 3)
	absBits  []int64 // weakBits translated to absolute image bit indices
	weakBLOf [][]int32
	weakRow  []bool
	rows     []int32 // per unit: row within subarray (Model2 only)
	cols     []int32 // per unit: column within row (Model1 only)
}

// NewInjector returns an injector for the given model kind and profile.
func NewInjector(kind Kind, p *Profile) *Injector {
	return &Injector{
		Kind:    kind,
		Profile: p,
		P1:      1.5, // EDEN-style asymmetry: true-cells fail more often
		P0:      0.5,
		regions: make(map[int]*region),
	}
}

// Placement describes where each column unit of an image resides.
type Placement interface {
	// Units returns the number of column units in the image.
	Units() int
	// CoordOf returns the DRAM coordinate of unit u.
	CoordOf(u int) dram.Coord
	// UnitBytes returns the size of one column unit in bytes.
	UnitBytes() int
}

// Prepare builds (or rebuilds) the weak-cell cache for a placement. It is
// called automatically by Inject when the placement shape changes; calling
// it explicitly lets tests pin deterministic weak-cell sets.
func (in *Injector) Prepare(pl Placement) {
	in.regions = make(map[int]*region)
	in.order = in.order[:0]
	geom := in.Profile.Geom
	bitsPer := int64(pl.UnitBytes()) * 8
	for u := 0; u < pl.Units(); u++ {
		c := pl.CoordOf(u)
		lin := c.SubarrayOf().Linear(geom)
		reg := in.regions[lin]
		if reg == nil {
			reg = &region{
				sub:     c.SubarrayOf(),
				ber:     in.Profile.SubarrayBER[lin],
				bitsPer: bitsPer,
			}
			in.regions[lin] = reg
		}
		reg.unitIdx = append(reg.unitIdx, int32(u))
		// Only the wordline and bitline models read a unit's row and
		// column; the other kinds keep neither array.
		switch in.Kind {
		case Model2:
			reg.rows = append(reg.rows, int32(c.Row))
		case Model1:
			reg.cols = append(reg.cols, int32(c.Column))
		}
	}
	for lin := range in.regions {
		in.order = append(in.order, lin)
	}
	sort.Ints(in.order)
	for _, lin := range in.order {
		in.buildWeakSets(in.regions[lin])
	}
}

// buildWeakSets derives the deterministic weak-cell locations of a region
// from the device seed.
func (in *Injector) buildWeakSets(reg *region) {
	if reg.ber <= 0 {
		return
	}
	seedStream := rng.New(in.Profile.DeviceSeed).
		DeriveIndex("weak-cells", reg.sub.Linear(in.Profile.Geom))
	totalBits := int64(len(reg.unitIdx)) * reg.bitsPer
	weakFrac := reg.ber * in.Profile.WeakBoost
	if weakFrac > 0.5 {
		weakFrac = 0.5
	}
	switch in.Kind {
	case Model0, Model3:
		// Sample weak bit positions uniformly over the region, without
		// duplicates (a physical cell is weak once).
		count := seedStream.Binomial(int(totalBits), weakFrac)
		seen := make(map[int64]struct{}, count)
		reg.weakBits = make([]int64, 0, count)
		for len(reg.weakBits) < count {
			b := seedStream.Int63n(totalBits)
			if _, dup := seen[b]; dup {
				continue
			}
			seen[b] = struct{}{}
			reg.weakBits = append(reg.weakBits, b)
		}
		// Resolve each weak bit to its absolute image position once, so
		// Inject's hot loop is a Bernoulli draw and a FlipBit with no
		// division. The sampled order is preserved: draw k of every
		// injection pass maps to the same physical cell as before.
		reg.absBits = make([]int64, len(reg.weakBits))
		for k, wb := range reg.weakBits {
			reg.absBits[k] = in.regionBitIndex(reg, wb)
		}
	case Model1:
		// Weak bitlines: a bitline is one bit offset within the row
		// (column*bitsPerUnit + bitInUnit). Cluster the same BER mass.
		nBitlines := in.Profile.Geom.Columns * int(reg.bitsPer)
		count := seedStream.Binomial(nBitlines, weakFrac)
		weak := make([]bool, nBitlines)
		for i := 0; i < count; i++ {
			weak[seedStream.Intn(nBitlines)] = true
		}
		// Per column, the ascending weak-bit offsets within one unit —
		// injection then visits exactly the weak bitlines, in the same
		// order the full 0..bitsPer scan used to find them.
		reg.weakBLOf = make([][]int32, in.Profile.Geom.Columns)
		for col := range reg.weakBLOf {
			base := col * int(reg.bitsPer)
			var offs []int32
			for b := 0; b < int(reg.bitsPer); b++ {
				if weak[base+b] {
					offs = append(offs, int32(b))
				}
			}
			reg.weakBLOf[col] = offs
		}
	case Model2:
		// Weak wordlines: whole rows of the subarray.
		nRows := in.Profile.Geom.Rows
		count := seedStream.Binomial(nRows, weakFrac)
		reg.weakRow = make([]bool, nRows)
		for i := 0; i < count; i++ {
			reg.weakRow[seedStream.Intn(nRows)] = true
		}
	}
}

// wordlineMaskBytes bounds the stack-local flip mask a weak wordline is
// accumulated into before being XORed into the image word-at-a-time;
// units larger than this fall back to per-bit flips. 512 bytes covers
// every geometry in the repo (units are one DRAM column, typically
// 64–256 bytes).
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
// safely shared read-only by concurrent scenario workers.
func (in *Injector) Inject(img []byte, pl Placement, r *rng.Stream) int64 {
	if len(in.regions) == 0 {
		in.Prepare(pl)
	}
	var flipped int64
	actBase := 1.0 / in.Profile.WeakBoost
	for _, lin := range in.order {
		reg := in.regions[lin]
		if reg.ber <= 0 {
			continue
		}
		switch in.Kind {
		case Model0:
			// absBits pre-resolves every weak cell's image position, so
			// this — the paper-default model, run once per scenario per
			// evaluation point — is one draw and at most one XOR per cell.
			for _, bit := range reg.absBits {
				if r.Bernoulli(actBase) {
					quant.FlipBit(img, bit)
					flipped++
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
				}
			}
		case Model1:
			for ui := range reg.unitIdx {
				offs := reg.weakBLOf[reg.cols[ui]]
				if len(offs) == 0 {
					continue
				}
				unitBase := int64(reg.unitIdx[ui]) * reg.bitsPer
				for _, b := range offs {
					if r.Bernoulli(actBase) {
						quant.FlipBit(img, unitBase+int64(b))
						flipped++
					}
				}
			}
		case Model2:
			// A weak wordline draws for every bit of the unit — dense
			// enough that flips are accumulated into a stack mask and
			// applied with one word-at-a-time XOR pass per unit.
			unitBytes := int(reg.bitsPer) / 8
			var maskArr [wordlineMaskBytes]byte
			for ui := range reg.unitIdx {
				if !reg.weakRow[reg.rows[ui]] {
					continue
				}
				if unitBytes <= len(maskArr) {
					mask := maskArr[:unitBytes]
					for i := range mask {
						mask[i] = 0
					}
					for b := 0; b < int(reg.bitsPer); b++ {
						if r.Bernoulli(actBase) {
							mask[b>>3] |= 1 << uint(b&7)
						}
					}
					byteBase := int(reg.unitIdx[ui]) * unitBytes
					flipped += quant.XORInto(img[byteBase:byteBase+unitBytes], mask)
				} else {
					unitBase := int64(reg.unitIdx[ui]) * reg.bitsPer
					for b := int64(0); b < reg.bitsPer; b++ {
						if r.Bernoulli(actBase) {
							quant.FlipBit(img, unitBase+b)
							flipped++
						}
					}
				}
			}
		}
	}
	return flipped
}

// regionBitIndex translates a region-relative bit position to an image
// bit index.
func (in *Injector) regionBitIndex(reg *region, regionBit int64) int64 {
	unit := reg.unitIdx[regionBit/reg.bitsPer]
	return int64(unit)*reg.bitsPer + regionBit%reg.bitsPer
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
