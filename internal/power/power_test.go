package power

import (
	"math"
	"testing"

	"sparkxd/internal/dram"
	"sparkxd/internal/voltscale"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestCurrentsValidation(t *testing.T) {
	c := Default().Currents
	c.IDD3N = c.IDD2N
	if c.Validate() == nil {
		t.Error("IDD3N <= IDD2N must be invalid")
	}
	c = Default().Currents
	c.IDD4R = c.IDD3N
	if c.Validate() == nil {
		t.Error("IDD4R <= IDD3N must be invalid")
	}
	c = Default().Currents
	c.IDD0 = 0
	if c.Validate() == nil {
		t.Error("zero current must be invalid")
	}
}

// Fig. 2(b): at nominal voltage, hit < miss < conflict, with magnitudes in
// the few-nJ range shown by the paper (axis 0..8 nJ).
func TestAccessConditionOrderingAndMagnitude(t *testing.T) {
	m := Default()
	v := voltscale.VNominal
	hit := m.AccessEnergyNJ(dram.AccessHit, v)
	miss := m.AccessEnergyNJ(dram.AccessMiss, v)
	conflict := m.AccessEnergyNJ(dram.AccessConflict, v)
	if !(hit < miss && miss < conflict) {
		t.Fatalf("ordering violated: hit=%v miss=%v conflict=%v", hit, miss, conflict)
	}
	if hit < 1 || hit > 3.5 {
		t.Errorf("hit energy = %.2f nJ, want ~2 nJ", hit)
	}
	if miss < 4 || miss > 6.5 {
		t.Errorf("miss energy = %.2f nJ, want ~5.3 nJ", miss)
	}
	if conflict < 6 || conflict > 8 {
		t.Errorf("conflict energy = %.2f nJ, want ~7.2 nJ (axis tops at 8)", conflict)
	}
}

// Fig. 2(b): reduced voltage saves 31%-42% per access across conditions.
func TestReducedVoltageSavingsRange(t *testing.T) {
	m := Default()
	for _, class := range []dram.AccessClass{dram.AccessHit, dram.AccessMiss, dram.AccessConflict} {
		s := m.AccessSavings(class, voltscale.V1025)
		if s < 0.30 || s > 0.44 {
			t.Errorf("%v savings at 1.025V = %.1f%%, want within 31-42%%", class, s*100)
		}
	}
	// Hits (no ACT/PRE stretch) must save the most.
	sHit := m.AccessSavings(dram.AccessHit, voltscale.V1025)
	sConf := m.AccessSavings(dram.AccessConflict, voltscale.V1025)
	if sHit <= sConf {
		t.Errorf("hit savings (%.3f) should exceed conflict savings (%.3f)", sHit, sConf)
	}
}

// Table I: per-access (row-hit) savings must match the paper within 0.5 pp.
func TestTableISavings(t *testing.T) {
	m := Default()
	for v, want := range PaperTableISavings() {
		got := m.AccessSavings(dram.AccessHit, v)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("per-access savings at %.3fV = %.2f%%, paper says %.2f%% (tol 0.5pp)",
				v, got*100, want*100)
		}
	}
}

func TestSavingsMonotoneInVoltage(t *testing.T) {
	m := Default()
	vs := voltscale.PaperVoltages()
	prev := -1.0
	for i := len(vs) - 1; i >= 0; i-- { // ascending voltage
		s := m.AccessSavings(dram.AccessHit, vs[i])
		if prev >= 0 && s > prev {
			t.Fatal("savings must shrink as voltage rises")
		}
		prev = s
	}
	if s := m.AccessSavings(dram.AccessHit, voltscale.VNominal); s != 0 {
		t.Errorf("savings at nominal voltage = %v, want 0", s)
	}
}

func TestCommandEnergiesPositive(t *testing.T) {
	m := Default()
	for _, v := range voltscale.PaperVoltages() {
		for name, e := range map[string]float64{
			"ACT": m.ActEnergyNJ(v),
			"PRE": m.PreEnergyNJ(v),
			"RD":  m.ReadEnergyNJ(v),
			"WR":  m.WriteEnergyNJ(v),
			"REF": m.RefreshEnergyNJ(v),
		} {
			if e <= 0 {
				t.Errorf("%s energy at %.3fV = %v, want > 0", name, v, e)
			}
		}
	}
}

func TestBackgroundPower(t *testing.T) {
	m := Default()
	v := voltscale.VNominal
	pa := m.BackgroundPowerW(true, v)
	pi := m.BackgroundPowerW(false, v)
	if pa <= pi {
		t.Error("active standby must draw more than precharge standby")
	}
	if m.BackgroundPowerW(true, voltscale.V1025) >= pa {
		t.Error("background power must drop at reduced voltage")
	}
}

func TestEnergyBreakdown(t *testing.T) {
	m := Default()
	tally := Tally{NACT: 10, NPRE: 8, NRD: 100, NWR: 5, NREF: 2, ActiveNs: 1000, IdleNs: 500}
	b := m.Energy(tally, voltscale.VNominal)
	if b.ActNJ <= 0 || b.PreNJ <= 0 || b.RdNJ <= 0 || b.WrNJ <= 0 || b.RefNJ <= 0 || b.BgNJ <= 0 {
		t.Fatalf("all components must be positive: %+v", b)
	}
	want := b.ActNJ + b.PreNJ + b.RdNJ + b.WrNJ + b.RefNJ + b.BgNJ
	if math.Abs(b.TotalNJ()-want) > 1e-12 {
		t.Error("TotalNJ must sum the components")
	}
	if math.Abs(b.TotalMJ()-b.TotalNJ()*1e-6) > 1e-18 {
		t.Error("TotalMJ conversion wrong")
	}
	// Linearity: doubling the tally doubles every component.
	double := Tally{NACT: 20, NPRE: 16, NRD: 200, NWR: 10, NREF: 4, ActiveNs: 2000, IdleNs: 1000}
	b2 := m.Energy(double, voltscale.VNominal)
	if math.Abs(b2.TotalNJ()-2*b.TotalNJ()) > 1e-9 {
		t.Error("energy must be linear in the tally")
	}
}

func TestZeroTallyZeroEnergy(t *testing.T) {
	m := Default()
	if m.Energy(Tally{}, voltscale.VNominal).TotalNJ() != 0 {
		t.Fatal("zero tally must cost zero energy")
	}
}

func TestAccessEnergyComposition(t *testing.T) {
	m := Default()
	v := voltscale.V1175
	missExtra := m.AccessEnergyNJ(dram.AccessMiss, v) - m.AccessEnergyNJ(dram.AccessHit, v)
	if math.Abs(missExtra-m.ActEnergyNJ(v)) > 1e-12 {
		t.Error("miss - hit must equal one ACT")
	}
	confExtra := m.AccessEnergyNJ(dram.AccessConflict, v) - m.AccessEnergyNJ(dram.AccessMiss, v)
	if math.Abs(confExtra-m.PreEnergyNJ(v)) > 1e-12 {
		t.Error("conflict - miss must equal one PRE")
	}
}
