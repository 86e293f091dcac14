package voltscale

import (
	"math"
	"testing"
	"testing/quick"

	"sparkxd/internal/dram"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	m := Default()
	m.TauAct = 0
	if m.Validate() == nil {
		t.Error("zero TauAct must be invalid")
	}
	m = Default()
	m.GuardbandV = m.MinV
	if m.Validate() == nil {
		t.Error("guardband <= MinV must be invalid")
	}
	m = Default()
	m.BERAtMinV = 2
	if m.Validate() == nil {
		t.Error("BER >= 1 must be invalid")
	}
}

func TestNominalTimingMatchesDatasheet(t *testing.T) {
	m := Default()
	nom := dram.NominalTiming()
	if math.Abs(m.TRCD(VNominal)-nom.TRCD) > 1e-9 {
		t.Errorf("tRCD at nominal = %v, want %v", m.TRCD(VNominal), nom.TRCD)
	}
	if math.Abs(m.TRAS(VNominal)-nom.TRAS) > 1e-9 {
		t.Errorf("tRAS at nominal = %v, want %v", m.TRAS(VNominal), nom.TRAS)
	}
	if math.Abs(m.TRP(VNominal)-nom.TRP) > 1e-9 {
		t.Errorf("tRP at nominal = %v, want %v", m.TRP(VNominal), nom.TRP)
	}
}

func TestTimingStretchesAtLowVoltage(t *testing.T) {
	m := Default()
	for _, v := range ReducedVoltages() {
		if m.TRCD(v) <= m.TRCD(VNominal) {
			t.Errorf("tRCD at %.3fV should exceed nominal", v)
		}
		if m.TRAS(v) <= m.TRAS(VNominal) {
			t.Errorf("tRAS at %.3fV should exceed nominal", v)
		}
		if m.TRP(v) <= m.TRP(VNominal) {
			t.Errorf("tRP at %.3fV should exceed nominal", v)
		}
	}
	// Stretch at the most aggressive point should be moderate (~15-25%),
	// matching the reduced-voltage characterization.
	stretch := m.TRCD(V1025) / m.TRCD(VNominal)
	if stretch < 1.10 || stretch > 1.35 {
		t.Errorf("tRCD stretch at 1.025V = %.3f, want within [1.10, 1.35]", stretch)
	}
}

func TestTimingMonotoneInVoltage(t *testing.T) {
	m := Default()
	vs := PaperVoltages() // descending
	for i := 1; i < len(vs); i++ {
		if m.TRCD(vs[i]) < m.TRCD(vs[i-1]) {
			t.Fatal("tRCD must grow as voltage decreases")
		}
	}
}

func TestActivationWaveformShape(t *testing.T) {
	m := Default()
	v := VNominal
	if got := m.ArrayVoltageActivate(v, 0); math.Abs(got-v/2) > 1e-12 {
		t.Errorf("Varray(0) = %v, want Vdd/2", got)
	}
	// Monotone rise toward v.
	prev := m.ArrayVoltageActivate(v, 0)
	for ti := 1; ti <= 80; ti++ {
		cur := m.ArrayVoltageActivate(v, float64(ti))
		if cur < prev {
			t.Fatal("activation waveform must be monotone non-decreasing")
		}
		if cur > v {
			t.Fatal("activation waveform must not overshoot Vsupply")
		}
		prev = cur
	}
	// Eventually approaches v.
	if m.ArrayVoltageActivate(v, 500) < 0.999*v {
		t.Error("activation should converge to Vsupply")
	}
}

func TestPrechargeWaveformShape(t *testing.T) {
	m := Default()
	v := VNominal
	// A PRE issued once the array is fully restored starts from Vsupply
	// and decays toward Vsupply/2.
	wf := m.ActivatePrechargeWaveform(v, 500, 500, 1000)
	if got := wf[1].Varray; got < 0.999*v || got > v {
		t.Errorf("precharge waveform must start at Vsupply, got %v", got)
	}
	if wf[2].Varray > v/2*1.001 {
		t.Error("precharge should converge to Vsupply/2")
	}
}

func TestTimingDefinitionsConsistentWithWaveform(t *testing.T) {
	m := Default()
	for _, v := range PaperVoltages() {
		// At t = tRCD the activation waveform must be at 75% of Vsupply.
		va := m.ArrayVoltageActivate(v, m.TRCD(v))
		if math.Abs(va-0.75*v) > 1e-9 {
			t.Errorf("V=%.3f: Varray(tRCD) = %v, want %v", v, va, 0.75*v)
		}
		// At t = tRP after a PRE from a fully restored array (an ACT 20
		// tRP long), the waveform must be within 2% of Vsupply/2.
		trp := m.TRP(v)
		wf := m.ActivatePrechargeWaveform(v, 20*trp, trp, 21*trp)
		vp := wf[21].Varray
		if math.Abs(vp-v/2) > 0.02*v/2+1e-9 {
			t.Errorf("V=%.3f: Varray(tRP) = %v, not within 2%% of Vdd/2", v, vp)
		}
	}
}

func TestBERZeroAtNominal(t *testing.T) {
	m := Default()
	if m.BER(VNominal) != 0 {
		t.Fatal("BER at nominal voltage must be exactly 0")
	}
	if m.BER(1.345) != 0 {
		t.Fatal("BER above guardband must be 0")
	}
}

func TestBERMonotoneDecreasingInVoltage(t *testing.T) {
	m := Default()
	prev := math.Inf(1)
	for v := 1.0; v <= 1.36; v += 0.005 {
		b := m.BER(v)
		if b > prev+1e-18 {
			t.Fatalf("BER must not increase with voltage (V=%.3f)", v)
		}
		prev = b
	}
}

func TestBERSpansPaperRange(t *testing.T) {
	m := Default()
	bMin := m.BER(V1025)
	if bMin < 1e-3 || bMin > 1e-1 {
		t.Errorf("BER at 1.025V = %.3g, want ~1e-2 (Fig. 2(c))", bMin)
	}
	b1325 := m.BER(V1325)
	if b1325 < 1e-9 || b1325 > 1e-6 {
		t.Errorf("BER at 1.325V = %.3g, want ~1e-8..1e-7", b1325)
	}
}

func TestWaveformSamplerSegments(t *testing.T) {
	m := Default()
	wf := m.ActivatePrechargeWaveform(VNominal, 40, 1, 80)
	if len(wf) != 81 {
		t.Fatalf("want 81 samples, got %d", len(wf))
	}
	// Rising before PRE, falling after.
	if wf[10].Varray <= wf[0].Varray {
		t.Error("waveform should rise after ACT")
	}
	if wf[60].Varray >= wf[41].Varray {
		t.Error("waveform should fall after PRE")
	}
	// Continuity at the PRE boundary.
	if math.Abs(wf[40].Varray-m.ArrayVoltageActivate(VNominal, 40)) > 1e-9 {
		t.Error("waveform discontinuous at PRE")
	}
}

func TestLowerVoltageLowersWaveform(t *testing.T) {
	m := Default()
	hi := m.ActivatePrechargeWaveform(VNominal, 40, 5, 80)
	lo := m.ActivatePrechargeWaveform(V1025, 40, 5, 80)
	for i := range hi {
		if lo[i].Varray > hi[i].Varray+1e-12 {
			t.Fatalf("reduced-voltage waveform must lie below nominal at t=%v", hi[i].TimeNs)
		}
	}
}

func TestTimingValidAcrossVoltages(t *testing.T) {
	m := Default()
	for _, v := range PaperVoltages() {
		if err := m.Timing(v).Validate(); err != nil {
			t.Errorf("timing at %.3fV invalid: %v", v, err)
		}
	}
}

// Property: the activation waveform never exceeds Vsupply and never drops
// below Vsupply/2 for any voltage/time in the practical range.
func TestActivationBoundsProperty(t *testing.T) {
	m := Default()
	f := func(vRaw, tRaw uint16) bool {
		v := 1.0 + float64(vRaw%400)/1000 // 1.000 .. 1.399
		tm := float64(tRaw % 2000)        // 0 .. 2000 ns
		va := m.ArrayVoltageActivate(v, tm)
		return va >= v/2-1e-12 && va <= v+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
