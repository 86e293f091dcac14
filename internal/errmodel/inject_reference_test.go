package errmodel

import (
	"bytes"
	"testing"

	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/voltscale"
)

// injectReference is the seed repo's scan-everything Inject, rebuilt from
// the region's raw fields: per-bit index arithmetic for Models 0/3, a
// full 0..bitsPer scan against a rebuilt weak-bitline table for Model 1,
// and per-bit FlipBit calls for Model 2. It consumes Bernoulli draws in
// exactly the order the production fast path must preserve, so running
// both against the same stream must yield identical images.
func injectReference(in *Injector, img []byte, r *rng.Stream) int64 {
	var flipped int64
	actBase := 1.0 / in.Profile.WeakBoost
	for _, lin := range in.order {
		reg := in.regions[lin]
		if reg.ber <= 0 {
			continue
		}
		switch in.Kind {
		case Model0:
			for _, wb := range reg.weakBits {
				if r.Bernoulli(actBase) {
					unit := reg.unitIdx[wb/reg.bitsPer]
					quant.FlipBit(img, int64(unit)*reg.bitsPer+wb%reg.bitsPer)
					flipped++
				}
			}
		case Model3:
			for _, wb := range reg.weakBits {
				unit := reg.unitIdx[wb/reg.bitsPer]
				bit := int64(unit)*reg.bitsPer + wb%reg.bitsPer
				var pAct float64
				if quant.GetBit(img, bit) {
					pAct = actBase * in.P1 * 2 / (in.P1 + in.P0)
				} else {
					pAct = actBase * in.P0 * 2 / (in.P1 + in.P0)
				}
				if r.Bernoulli(pAct) {
					quant.FlipBit(img, bit)
					flipped++
				}
			}
		case Model1:
			// Rebuild the per-bitline weak table the seed probed per bit.
			weak := make(map[int64]bool)
			for col, offs := range reg.weakBLOf {
				for _, b := range offs {
					weak[int64(col)*reg.bitsPer+int64(b)] = true
				}
			}
			for ui := range reg.unitIdx {
				colBase := int64(reg.cols[ui]) * reg.bitsPer
				unitBase := int64(reg.unitIdx[ui]) * reg.bitsPer
				for b := int64(0); b < reg.bitsPer; b++ {
					if !weak[colBase+b] {
						continue
					}
					if r.Bernoulli(actBase) {
						quant.FlipBit(img, unitBase+b)
						flipped++
					}
				}
			}
		case Model2:
			for ui := range reg.unitIdx {
				if !reg.weakRow[reg.rows[ui]] {
					continue
				}
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

// TestInjectMatchesScanReference pins the word-at-a-time / precomputed
// injection paths against the scan-everything reference for every model:
// same stream in, bit-identical image and flip count out. The recording
// form must match too, and its record must undo the injection.
func TestInjectMatchesScanReference(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	for _, kind := range []Kind{Model0, Model1, Model2, Model3} {
		in := NewInjector(kind, p)
		pl := seqPlacement{geom: p.Geom, units: 768, ub: 32}
		in.Prepare(pl)

		// Non-uniform data so Model3 exercises both the set-bit and
		// clear-bit probability branches.
		base := make([]byte, pl.units*pl.ub)
		for i := range base {
			base[i] = byte(i * 37)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			got := append([]byte(nil), base...)
			want := append([]byte(nil), base...)
			nGot := in.Inject(got, pl, rng.New(seed))
			nWant := injectReference(in, want, rng.New(seed))
			if nGot != nWant {
				t.Fatalf("%v seed %d: Inject flipped %d, reference %d", kind, seed, nGot, nWant)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v seed %d: injected image diverges from reference (%d bits differ)",
					kind, seed, quant.CountDiffBits(got, want))
			}
			if nGot == 0 {
				t.Fatalf("%v seed %d: expected some flips at this BER", kind, seed)
			}
			checkRecorded(t, in, pl, base, got, nGot, seed)
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
	nWant := injectReference(in, want, rng.New(3))
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
