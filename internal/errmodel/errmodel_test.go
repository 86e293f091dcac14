package errmodel

import (
	"math"
	"strings"
	"testing"

	"sparkxd/internal/dram"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/voltscale"
)

// seqPlacement lays units out linearly across the geometry (bank-sequential),
// the shape of the paper's baseline mapping.
type seqPlacement struct {
	geom  dram.Geometry
	units int
	ub    int
}

func (p seqPlacement) Units() int               { return p.units }
func (p seqPlacement) UnitBytes() int           { return p.ub }
func (p seqPlacement) CoordOf(u int) dram.Coord { return p.geom.Decode(int64(u)) }

func testProfile(t *testing.T, v float64, spread float64) *Profile {
	t.Helper()
	p, err := NewProfile(dram.SmallTestGeometry(), voltscale.Default(), v, spread, 99)
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	return p
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Model0: "model0-uniform",
		Model1: "model1-bitline",
		Model2: "model2-wordline",
		Model3: "model3-data-dependent",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%v) = %q", k, k.String())
		}
	}
}

func TestProfileZeroAtNominal(t *testing.T) {
	p := testProfile(t, voltscale.VNominal, DefaultSpread)
	if p.MeanBER() != 0 || p.MaxBER() != 0 {
		t.Fatal("nominal-voltage profile must be error-free")
	}
}

func TestProfileMeanNearDeviceBER(t *testing.T) {
	p := testProfile(t, voltscale.V1025, DefaultSpread)
	device := voltscale.Default().BER(voltscale.V1025)
	mean := p.MeanBER()
	// The lognormal factor is mean-1, so profile mean should be within a
	// factor ~2 of the device curve for a few hundred subarrays.
	if mean < device/3 || mean > device*3 {
		t.Errorf("profile mean BER = %.3g, device = %.3g", mean, device)
	}
}

func TestProfileSpreadCreatesSafeAndUnsafeSubarrays(t *testing.T) {
	p := testProfile(t, voltscale.V1100, DefaultSpread)
	device := voltscale.Default().BER(voltscale.V1100)
	safe := p.SafeCount(device)
	total := len(p.SubarrayBER)
	if safe == 0 || safe == total {
		t.Fatalf("spread profile should mix safe (%d) and unsafe of %d at the device BER", safe, total)
	}
	flags := p.SafeSubarrays(device)
	n := 0
	for _, ok := range flags {
		if ok {
			n++
		}
	}
	if n != safe {
		t.Fatal("SafeSubarrays and SafeCount disagree")
	}
}

func TestProfileDeterministic(t *testing.T) {
	a := testProfile(t, voltscale.V1025, DefaultSpread)
	b := testProfile(t, voltscale.V1025, DefaultSpread)
	for i := range a.SubarrayBER {
		if a.SubarrayBER[i] != b.SubarrayBER[i] {
			t.Fatal("same seed must give identical profiles")
		}
	}
}

func TestProfileZeroSpreadUniform(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	first := p.SubarrayBER[0]
	for _, b := range p.SubarrayBER {
		if b != first {
			t.Fatal("zero spread must give a uniform profile")
		}
	}
}

func TestNewProfileRejectsBadInputs(t *testing.T) {
	if _, err := NewProfile(dram.Geometry{}, voltscale.Default(), 1.1, 1, 1); err == nil {
		t.Error("invalid geometry must error")
	}
	if _, err := NewProfile(dram.SmallTestGeometry(), voltscale.Default(), 1.1, -1, 1); err == nil {
		t.Error("negative spread must error")
	}
}

func TestModel0FlipCountNearExpectation(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0) // uniform so expectation is exact
	in := NewInjector(Model0, p)
	pl := seqPlacement{geom: p.Geom, units: 1024, ub: 32}
	in.Prepare(pl)
	img := make([]byte, pl.units*pl.ub)
	want := in.ExpectedFlips(pl)
	var total float64
	const trials = 20
	for i := 0; i < trials; i++ {
		copyImg := append([]byte(nil), img...)
		total += float64(in.Inject(copyImg, pl, rng.New(uint64(i+1))))
	}
	got := total / trials
	if want <= 0 {
		t.Fatalf("expectation must be positive, got %v", want)
	}
	if math.Abs(got-want)/want > 0.35 {
		t.Errorf("mean flips = %.1f, want ~%.1f", got, want)
	}
}

func TestInjectReportsActualFlips(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model0, p)
	pl := seqPlacement{geom: p.Geom, units: 256, ub: 32}
	in.Prepare(pl)
	img := make([]byte, pl.units*pl.ub)
	orig := append([]byte(nil), img...)
	n := in.Inject(img, pl, rng.New(5))
	if quant.CountDiffBits(img, orig) != n {
		t.Fatal("returned flip count must equal Hamming distance")
	}
}

func TestWeakCellsCorrelatedAcrossInjections(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model0, p)
	pl := seqPlacement{geom: p.Geom, units: 512, ub: 32}
	in.Prepare(pl)
	base := make([]byte, pl.units*pl.ub)

	// Two independent injection passes: flipped locations must overlap far
	// more than two fully-uniform draws would (weak cells are fixed).
	a := append([]byte(nil), base...)
	b := append([]byte(nil), base...)
	na := in.Inject(a, pl, rng.New(1))
	nb := in.Inject(b, pl, rng.New(2))
	if na == 0 || nb == 0 {
		t.Fatal("expected some flips")
	}
	// Count common flipped bits.
	common := 0
	for i := range a {
		diffA := a[i] ^ base[i]
		diffB := b[i] ^ base[i]
		x := diffA & diffB
		for x != 0 {
			x &= x - 1
			common++
		}
	}
	totalBits := float64(len(base) * 8)
	expectedIfUniform := float64(na) * float64(nb) / totalBits
	if float64(common) < 4*expectedIfUniform {
		t.Errorf("weak-cell overlap %d not above uniform expectation %.2f — locations look uncorrelated",
			common, expectedIfUniform)
	}
}

func TestModel3DataDependence(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model3, p)
	pl := seqPlacement{geom: p.Geom, units: 512, ub: 32}
	in.Prepare(pl)

	ones := make([]byte, pl.units*pl.ub)
	zeros := make([]byte, pl.units*pl.ub)
	for i := range ones {
		ones[i] = 0xff
	}
	var fOnes, fZeros int64
	const trials = 10
	for i := 0; i < trials; i++ {
		a := append([]byte(nil), ones...)
		b := append([]byte(nil), zeros...)
		fOnes += in.Inject(a, pl, rng.New(uint64(100+i)))
		fZeros += in.Inject(b, pl, rng.New(uint64(200+i)))
	}
	if fOnes <= fZeros {
		t.Errorf("with P1 > P0, all-ones data must flip more: ones=%d zeros=%d", fOnes, fZeros)
	}
}

func TestModel1ClustersOnBitlines(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model1, p)
	pl := seqPlacement{geom: p.Geom, units: int(p.Geom.TotalColumns()), ub: 32}
	in.Prepare(pl)
	img := make([]byte, pl.units*pl.ub)
	in.Inject(img, pl, rng.New(7))

	// Histogram flips by bitline (column*bits + bitInUnit): flips must be
	// confined to the weak bitlines, i.e. far fewer distinct bitlines
	// than distinct flipped bits.
	bitsPer := int64(pl.ub) * 8
	bitlines := map[int64]int{}
	flips := 0
	for bit := int64(0); bit < int64(len(img))*8; bit++ {
		if quant.GetBit(img, bit) {
			unit := bit / bitsPer
			col := int64(pl.CoordOf(int(unit)).Column)
			bl := col*bitsPer + bit%bitsPer
			bitlines[bl]++
			flips++
		}
	}
	if flips == 0 {
		t.Skip("no flips at this seed; acceptable for clustered model on a small image")
	}
	if len(bitlines) >= flips {
		t.Errorf("bitline clustering absent: %d bitlines for %d flips", len(bitlines), flips)
	}
}

func TestModel2ClustersOnWordlines(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model2, p)
	pl := seqPlacement{geom: p.Geom, units: int(p.Geom.TotalColumns()), ub: 32}
	in.Prepare(pl)
	img := make([]byte, pl.units*pl.ub)
	in.Inject(img, pl, rng.New(11))

	// Flips must concentrate densely on few (subarray, row) pairs: a weak
	// wordline fails across its whole width, so flips-per-touched-row is
	// high, unlike the uniform Model 0.
	bitsPer := int64(pl.ub) * 8
	pairs := map[[2]int]bool{}
	flips := 0
	for bit := int64(0); bit < int64(len(img))*8; bit++ {
		if quant.GetBit(img, bit) {
			c := pl.CoordOf(int(bit / bitsPer))
			pairs[[2]int{c.SubarrayOf().Linear(p.Geom), c.Row}] = true
			flips++
		}
	}
	if flips == 0 {
		t.Skip("no flips at this seed")
	}
	if flips < 20*len(pairs) {
		t.Errorf("wordline clustering absent: %d flips over %d rows", flips, len(pairs))
	}
}

func TestInjectNothingAtNominalVoltage(t *testing.T) {
	p := testProfile(t, voltscale.VNominal, DefaultSpread)
	in := NewInjector(Model0, p)
	pl := seqPlacement{geom: p.Geom, units: 128, ub: 32}
	in.Prepare(pl)
	img := make([]byte, pl.units*pl.ub)
	if n := in.Inject(img, pl, rng.New(1)); n != 0 {
		t.Fatalf("nominal voltage must inject no errors, got %d", n)
	}
}

func TestExpectedFlipsScalesWithImage(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	in := NewInjector(Model0, p)
	small := seqPlacement{geom: p.Geom, units: 100, ub: 32}
	large := seqPlacement{geom: p.Geom, units: 200, ub: 32}
	if math.Abs(in.ExpectedFlips(large)/in.ExpectedFlips(small)-2) > 1e-9 {
		t.Fatal("expected flips must scale linearly with image size")
	}
}

// TestInjectNeedsItsPreparedPlacement: Prepare is the only writer of an
// injector. Injecting before it, or into another placement than the one
// it prepared, panics with a message that names Prepare, in both
// directions of a size change.
func TestInjectNeedsItsPreparedPlacement(t *testing.T) {
	p := testProfile(t, voltscale.V1025, 0)
	small := seqPlacement{geom: p.Geom, units: 64, ub: 32}
	large := seqPlacement{geom: p.Geom, units: 2048, ub: 32}
	cases := []struct {
		name         string
		prepared, pl Placement
	}{
		{"before Prepare", nil, small},
		{"larger than prepared", small, large},
		{"smaller than prepared", large, small},
	}
	for _, tc := range cases {
		for _, record := range []bool{false, true} {
			in := NewInjector(Model0, p)
			if tc.prepared != nil {
				in.Prepare(tc.prepared)
			}
			img := make([]byte, tc.pl.Units()*tc.pl.UnitBytes())
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "Prepare") {
						t.Errorf("%s (record %v): recovered %q, want a panic naming Prepare", tc.name, record, msg)
					}
				}()
				if record {
					in.InjectRecord(img, tc.pl, rng.New(1), nil)
				} else {
					in.Inject(img, tc.pl, rng.New(1))
				}
			}()
		}
	}
}
