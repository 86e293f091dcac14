// Cross-module integration tests: each test exercises a complete path
// through several packages, asserting the invariants the SparkXD pipeline
// depends on end to end.
package sparkxd_test

import (
	"math"
	"testing"

	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/dram"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/experiments"
	"sparkxd/internal/mapping"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// The storage loop: weights -> bit image -> mapping -> injection at BER 0
// -> weights must be the exact identity across every mapping policy.
func TestIntegrationLosslessStorageLoop(t *testing.T) {
	f := core.NewFramework()
	net, err := snn.New(snn.DefaultConfig(60), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w := net.WeightsFlat()
	zero, err := errmodel.UniformProfile(f.Geom, 0, f.DeviceSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, safe := range [][]bool{nil, mapping.AllSafe(f.Geom)} {
		layout, err := f.LayoutFor(net, safe)
		if err != nil {
			t.Fatal(err)
		}
		out, flips := f.CorruptWeights(w, layout, zero, rng.New(7))
		if flips != 0 {
			t.Fatalf("%s: zero-BER injection flipped %d bits", layout.Policy, flips)
		}
		for i := range w {
			if out[i] != w[i] {
				t.Fatalf("%s: weight %d corrupted without errors", layout.Policy, i)
			}
		}
	}
}

// A full quick-mode experiment run must be reproducible: two independent
// runners with the same seed produce identical curve sets.
func TestIntegrationDeterministicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("training determinism check skipped in -short mode")
	}
	opts := experiments.BenchOptions()
	a := experiments.NewRunner(opts)
	b := experiments.NewRunner(opts)
	ca, err := a.CurveSetPublic(50, dataset.MNISTLike)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CurveSetPublic(50, dataset.MNISTLike)
	if err != nil {
		t.Fatal(err)
	}
	if ca.BaselineAcc != cb.BaselineAcc || ca.BERth != cb.BERth {
		t.Fatalf("runs diverged: %.4f/%.0e vs %.4f/%.0e",
			ca.BaselineAcc, ca.BERth, cb.BaselineAcc, cb.BERth)
	}
	for i := range ca.BERs {
		if ca.Improved[i] != cb.Improved[i] || ca.BaselineApprox[i] != cb.BaselineApprox[i] {
			t.Fatalf("curve point %d diverged", i)
		}
	}
}

// Failure injection: the pipeline must degrade gracefully, not corrupt
// state, when the device cannot satisfy the safety constraint.
func TestIntegrationInsufficientSafeCapacity(t *testing.T) {
	f := core.NewFramework()
	// A threshold no subarray satisfies at 1.025 V forces the adaptive
	// mapper to relax; the direct mapper must return the typed error.
	profile, err := f.ProfileAt(voltscale.V1025)
	if err != nil {
		t.Fatal(err)
	}
	strict := profile.SafeSubarrays(1e-15)
	nSafe := 0
	for _, s := range strict {
		if s {
			nSafe++
		}
	}
	if nSafe != 0 {
		t.Skipf("profile unexpectedly has %d ultra-safe subarrays", nSafe)
	}
	if _, err := f.LayoutForWeights(784*100, strict); err == nil {
		t.Fatal("mapping into zero safe subarrays must fail")
	}
	layout, _, effTh, err := f.MapWeightsAdaptive(784*100, voltscale.V1025, 1e-15)
	if err != nil {
		t.Fatalf("adaptive mapping must relax and succeed: %v", err)
	}
	if effTh <= 1e-15 {
		t.Fatal("adaptive mapping must report the relaxed threshold")
	}
	if err := layout.Validate(); err != nil {
		t.Fatal(err)
	}
}

// MSB corruption (the paper's Sec. VI-A label-2 observation): flipping the
// exponent MSB of weights must change them drastically, and the SNN's
// on-load sanitization must bound the damage.
func TestIntegrationMSBFlipsBoundedBySanitization(t *testing.T) {
	net, err := snn.New(snn.DefaultConfig(40), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w := net.WeightsFlat()
	img := make([]byte, quant.FP32.ImageSize(len(w), 0))
	if err := quant.Serialize(w, quant.FP32, img); err != nil {
		t.Fatal(err)
	}
	// Flip the exponent MSB (bit 30) of the first 100 weights.
	for i := 0; i < 100; i++ {
		quant.FlipBit(img, int64(i*32+30))
	}
	out := make([]float32, len(w))
	if err := quant.Deserialize(img, quant.FP32, out); err != nil {
		t.Fatal(err)
	}
	blownUp := 0
	for i := 0; i < 100; i++ {
		if math.Abs(float64(out[i])) > 1e10 || out[i] == 0 {
			blownUp++
		}
	}
	if blownUp < 50 {
		t.Fatalf("only %d/100 exponent-MSB flips changed magnitude drastically", blownUp)
	}
	if err := net.SetWeightsFlat(out); err != nil {
		t.Fatal(err)
	}
	limit := snn.LoadClampFactor * net.Cfg.WMax
	for i, v := range net.W.Data {
		if v < -limit || v > limit || math.IsNaN(float64(v)) {
			t.Fatalf("weight %d = %v escaped sanitization", i, v)
		}
	}
}

// The end-to-end voltage story: at every reduced voltage the SparkXD
// layout's energy is below baseline-at-nominal, and monotone in voltage.
func TestIntegrationEnergyMonotoneAcrossVoltages(t *testing.T) {
	f := core.NewFramework()
	base, err := f.LayoutForWeights(784*400, nil)
	if err != nil {
		t.Fatal(err)
	}
	eBase, err := f.EvaluateEnergy(base, voltscale.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	prev := eBase.TotalMJ()
	for _, v := range voltscale.ReducedVoltages() {
		layout, _, _, err := f.MapWeightsAdaptive(784*400, v, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := f.EvaluateEnergy(layout, v)
		if err != nil {
			t.Fatal(err)
		}
		if e.TotalMJ() >= prev {
			t.Fatalf("energy at %.3fV (%.4f mJ) not below previous (%.4f mJ)",
				v, e.TotalMJ(), prev)
		}
		prev = e.TotalMJ()
	}
}

// dram geometry + mapping + controller agreement: every access of any
// layout must be inside the geometry and the controller census must add up.
func TestIntegrationCensusAddsUp(t *testing.T) {
	f := core.NewFramework()
	layout, _, _, err := f.MapWeightsAdaptive(784*200, voltscale.V1100, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := memctrl.New(f.Geom, dram.NominalTiming())
	if err != nil {
		t.Fatal(err)
	}
	stats := ctl.ReplayReads(layout.AccessStream())
	if stats.Accesses() != int64(layout.Units()) {
		t.Fatalf("census %d != stream length %d", stats.Accesses(), layout.Units())
	}
	if stats.Tally.NRD != stats.Accesses() {
		t.Fatal("every read access must issue exactly one RD")
	}
	if stats.Tally.NACT < stats.Misses+stats.Conflicts {
		t.Fatal("every miss/conflict must issue an ACT")
	}
}
