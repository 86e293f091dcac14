package errmodel

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"sparkxd/internal/dram"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/voltscale"
)

// refRegion is one region expanded to per-unit lists: the image unit,
// row and column of each of its units, in image order.
type refRegion struct {
	sub               int
	ber               float64
	units, rows, cols []int64
}

// expandRegions expands the prepared regions' runs into per-unit lists
// and checks them against the placement: every unit of a subarray with a
// nonzero BER must appear exactly once, in its own region, at its own
// row and column, and regions must come in subarray order.
func expandRegions(t *testing.T, in *Injector, pl Placement) []refRegion {
	t.Helper()
	geom := in.Profile.Geom
	var out []refRegion
	seen := make(map[int64]bool)
	for i, reg := range in.regions {
		if i > 0 && reg.sub <= in.regions[i-1].sub {
			t.Fatalf("regions out of subarray order: %d after %d", reg.sub, in.regions[i-1].sub)
		}
		rr := refRegion{sub: reg.sub, ber: reg.ber}
		for _, ru := range reg.runs {
			for j := int32(0); j < ru.n; j++ {
				u, row, col := int64(ru.unit+j), int64(ru.row), int64(ru.col+j)
				c := pl.CoordOf(int(u))
				if c.SubarrayOf().Linear(geom) != reg.sub || int64(c.Row) != row || int64(c.Column) != col {
					t.Fatalf("unit %d: region %d says row %d column %d, placement says %v", u, reg.sub, row, col, c)
				}
				if seen[u] || (len(rr.units) > 0 && u <= rr.units[len(rr.units)-1]) {
					t.Fatalf("unit %d listed twice or out of image order", u)
				}
				seen[u] = true
				rr.units, rr.rows, rr.cols = append(rr.units, u), append(rr.rows, row), append(rr.cols, col)
			}
		}
		out = append(out, rr)
	}
	for u := 0; u < pl.Units(); u++ {
		lin := pl.CoordOf(u).SubarrayOf().Linear(geom)
		if (in.Profile.SubarrayBER[lin] > 0) != seen[int64(u)] {
			t.Fatalf("unit %d in subarray %d (BER %v): listed %v", u, lin, in.Profile.SubarrayBER[lin], seen[int64(u)])
		}
	}
	return out
}

// injectReference is the seed repo's scan-everything Inject, run over
// regions expanded to per-unit lists, with the weak cells re-derived
// from the device seed by its own copy of the sampling: per-bit index
// arithmetic for Models 0/3, a full 0..bitsPer scan against a weak
// bitline table for Model 1, and per-bit FlipBit calls for Model 2. It
// consumes Bernoulli draws in exactly the order the production fast
// path must preserve, so running both against the same stream must
// yield identical images.
func injectReference(in *Injector, regions []refRegion, bitsPer int64, img []byte, r *rng.Stream) int64 {
	geom := in.Profile.Geom
	var flipped int64
	actBase := 1.0 / in.Profile.WeakBoost
	for _, reg := range regions {
		seedStream := rng.New(in.Profile.DeviceSeed).DeriveIndex("weak-cells", reg.sub)
		weakFrac := math.Min(reg.ber*in.Profile.WeakBoost, 0.5)
		switch in.Kind {
		case Model0, Model3:
			totalBits := int64(len(reg.units)) * bitsPer
			count := seedStream.Binomial(int(totalBits), weakFrac)
			seen := make(map[int64]bool, count)
			var weakBits []int64
			for len(weakBits) < count {
				b := seedStream.Int63n(totalBits)
				if !seen[b] {
					seen[b] = true
					weakBits = append(weakBits, b)
				}
			}
			for _, wb := range weakBits {
				bit := reg.units[wb/bitsPer]*bitsPer + wb%bitsPer
				pAct := actBase
				if in.Kind == Model3 {
					if quant.GetBit(img, bit) {
						pAct = actBase * in.P1 * 2 / (in.P1 + in.P0)
					} else {
						pAct = actBase * in.P0 * 2 / (in.P1 + in.P0)
					}
				}
				if r.Bernoulli(pAct) {
					quant.FlipBit(img, bit)
					flipped++
				}
			}
		case Model1:
			nBitlines := geom.Columns * int(bitsPer)
			count := seedStream.Binomial(nBitlines, weakFrac)
			weak := make(map[int64]bool)
			for i := 0; i < count; i++ {
				weak[int64(seedStream.Intn(nBitlines))] = true
			}
			for i, u := range reg.units {
				for b := int64(0); b < bitsPer; b++ {
					if weak[reg.cols[i]*bitsPer+b] && r.Bernoulli(actBase) {
						quant.FlipBit(img, u*bitsPer+b)
						flipped++
					}
				}
			}
		case Model2:
			count := seedStream.Binomial(geom.Rows, weakFrac)
			weakRow := make(map[int64]bool)
			for i := 0; i < count; i++ {
				weakRow[int64(seedStream.Intn(geom.Rows))] = true
			}
			for i, u := range reg.units {
				if !weakRow[reg.rows[i]] {
					continue
				}
				for b := int64(0); b < bitsPer; b++ {
					if r.Bernoulli(actBase) {
						quant.FlipBit(img, u*bitsPer+b)
						flipped++
					}
				}
			}
		}
	}
	return flipped
}

// checkRecorded runs InjectRecord on a copy of base with the stream
// Inject used to turn base into injected, flipping n bits: the recording
// form must flip the same bits, record exactly n of them, and re-flipping
// the record must restore base.
func checkRecorded(t *testing.T, in *Injector, pl Placement, base, injected []byte, n int64, seed uint64) {
	t.Helper()
	img := append([]byte(nil), base...)
	rec := in.InjectRecord(img, pl, rng.New(seed), nil)
	if !bytes.Equal(img, injected) {
		t.Fatalf("%v seed %d: InjectRecord's image diverges from Inject's", in.Kind, seed)
	}
	if int64(len(rec)) != n {
		t.Fatalf("%v seed %d: recorded %d bits, Inject flipped %d", in.Kind, seed, len(rec), n)
	}
	for _, b := range rec {
		quant.FlipBit(img, b)
	}
	if !bytes.Equal(img, base) {
		t.Fatalf("%v seed %d: re-flipping the record leaves %d bits changed",
			in.Kind, seed, quant.CountDiffBits(img, base))
	}
}

// permPlacement places unit u at linear address perm[u], so units that
// are consecutive in the image are rarely consecutive in a row.
type permPlacement struct {
	geom dram.Geometry
	perm []int
	ub   int
}

func (p *permPlacement) Units() int               { return len(p.perm) }
func (p *permPlacement) UnitBytes() int           { return p.ub }
func (p *permPlacement) CoordOf(u int) dram.Coord { return p.geom.Decode(int64(p.perm[u])) }

// TestInjectMatchesScanReference pins the word-at-a-time / precomputed
// injection paths against the scan-everything reference for every model:
// same stream in, bit-identical image and flip count out. The recording
// form must match too, and its record must undo the injection. The
// placements cover whole rows, a short last row, units scattered over
// rows and subarrays, and subarrays whose BER is zero.
func TestInjectMatchesScanReference(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	patchy := *p
	patchy.SubarrayBER = append([]float64(nil), p.SubarrayBER...)
	for i := range patchy.SubarrayBER {
		if i%3 == 1 {
			patchy.SubarrayBER[i] = 0
		}
	}
	r := rand.New(rand.NewPCG(7, 8))
	scattered := &permPlacement{geom: p.Geom, perm: r.Perm(int(p.Geom.TotalColumns()))[:700], ub: 32}
	cases := []struct {
		name    string
		profile *Profile
		pl      Placement
	}{
		{"sequential", p, seqPlacement{geom: p.Geom, units: 768, ub: 32}},
		{"short last row", &patchy, seqPlacement{geom: p.Geom, units: 3*p.Geom.Rows*p.Geom.Columns + 21, ub: 32}},
		{"scattered", &patchy, scattered},
	}
	for _, tc := range cases {
		for _, kind := range []Kind{Model0, Model1, Model2, Model3} {
			in := NewInjector(kind, tc.profile)
			pl := tc.pl
			in.Prepare(pl)
			regions := expandRegions(t, in, pl)
			bitsPer := int64(pl.UnitBytes()) * 8

			// Non-uniform data so Model3 exercises both the set-bit and
			// clear-bit probability branches.
			base := make([]byte, pl.Units()*pl.UnitBytes())
			for i := range base {
				base[i] = byte(i * 37)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				got := append([]byte(nil), base...)
				want := append([]byte(nil), base...)
				nGot := in.Inject(got, pl, rng.New(seed))
				nWant := injectReference(in, regions, bitsPer, want, rng.New(seed))
				if nGot != nWant {
					t.Fatalf("%s/%v seed %d: Inject flipped %d, reference %d", tc.name, kind, seed, nGot, nWant)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%v seed %d: injected image diverges from reference (%d bits differ)",
						tc.name, kind, seed, quant.CountDiffBits(got, want))
				}
				if nGot == 0 {
					t.Fatalf("%s/%v seed %d: expected some flips at this BER", tc.name, kind, seed)
				}
				checkRecorded(t, in, pl, base, got, nGot, seed)
			}
		}
	}
}

// TestInjectOversizedUnitFallback forces Model2's per-bit fallback (units
// wider than the stack mask) and checks it, and its recording form,
// against the same reference.
func TestInjectOversizedUnitFallback(t *testing.T) {
	// A uniform 10% BER makes about 40% of the rows weak, so the four
	// rows of units below hold flips for the fallback to make.
	p, err := UniformProfile(testProfile(t, voltscale.V1025, 0).Geom, 0.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Model2, p)
	pl := seqPlacement{geom: p.Geom, units: 64, ub: wordlineMaskBytes * 2}
	in.Prepare(pl)
	base := make([]byte, pl.units*pl.ub)
	got := append([]byte(nil), base...)
	want := append([]byte(nil), base...)
	nGot := in.Inject(got, pl, rng.New(3))
	nWant := injectReference(in, expandRegions(t, in, pl), int64(pl.ub)*8, want, rng.New(3))
	if nGot != nWant || !bytes.Equal(got, want) {
		t.Fatalf("oversized-unit fallback diverges: %d vs %d flips", nGot, nWant)
	}
	if nGot == 0 {
		t.Fatal("expected some flips at this BER")
	}
	checkRecorded(t, in, pl, base, got, nGot, 3)
}

// TestInjectAllocationFree: Inject, which fault-aware training calls
// once per epoch, allocates nothing, and InjectRecord allocates only to
// grow the record.
func TestInjectAllocationFree(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	for _, kind := range []Kind{Model0, Model1, Model2, Model3} {
		in := NewInjector(kind, p)
		var pl Placement = seqPlacement{geom: p.Geom, units: 768, ub: 32}
		in.Prepare(pl)
		img := make([]byte, pl.Units()*pl.UnitBytes())
		r := rng.New(1)
		if n := testing.AllocsPerRun(20, func() { in.Inject(img, pl, r) }); n != 0 {
			t.Errorf("%v: Inject allocates %v times per pass", kind, n)
		}
		rec := make([]int64, 0, len(img)*8)
		if n := testing.AllocsPerRun(20, func() { rec = in.InjectRecord(img, pl, r, rec[:0]) }); n != 0 {
			t.Errorf("%v: InjectRecord into a large enough record allocates %v times per pass", kind, n)
		}
	}
}
