// Package power is the DRAM energy model of the SparkXD reproduction.
// It stands in for the DRAMPower simulator (ref [8] of the paper): energy
// is computed at command granularity from IDD current specifications, the
// supply voltage, and the (voltage-dependent) timing parameters, exactly
// the structure of DRAMPower's equations:
//
//	E(ACT)  = (IDD0  - IDD3N) * V * tRAS
//	E(PRE)  = (IDD0  - IDD2N) * V * tRP
//	E(RD)   = (IDD4R - IDD3N) * V * tBURST + P_IO * tBURST
//	E(WR)   = (IDD4W - IDD3N) * V * tBURST + P_IO * tBURST
//	E(REF)  = (IDD5  - IDD3N) * V * tRFC
//	E(BG)   = IDD3N * V * t_active  +  IDD2N * V * t_idle
//
// Reduced-voltage operation affects the model twice, as in the paper's
// tool flow (Fig. 10): the supply voltage V itself drops and the IDD
// currents shrink with it (I ~ (V/Vnom)^CurrentExponent, fitted to the
// reduced-voltage characterization so that per-access savings reproduce
// Table I: 3.92/14.29/24.33/33.59/42.40% at 1.325..1.025 V), while the
// circuit model stretches tRCD/tRAS/tRP, which is why row misses and
// conflicts save less energy than row hits (the 31%-42% range of
// Fig. 2(b)).
package power

import (
	"errors"
	"math"

	"sparkxd/internal/dram"
	"sparkxd/internal/voltscale"
)

// Currents holds the IDD current specification in amperes at the nominal
// supply voltage. Names follow the JEDEC/DRAMPower convention.
type Currents struct {
	IDD0  float64 // one-bank ACT-PRE cycling current
	IDD2N float64 // precharge standby current
	IDD3N float64 // active standby current
	IDD4R float64 // burst read current
	IDD4W float64 // burst write current
	IDD5  float64 // refresh current
}

// Validate checks the internal ordering constraints of an IDD set.
func (c Currents) Validate() error {
	switch {
	case c.IDD0 <= 0, c.IDD2N <= 0, c.IDD3N <= 0, c.IDD4R <= 0, c.IDD4W <= 0, c.IDD5 <= 0:
		return errors.New("power: IDD currents must be positive")
	case c.IDD3N <= c.IDD2N:
		return errors.New("power: IDD3N (active standby) must exceed IDD2N")
	case c.IDD4R <= c.IDD3N, c.IDD4W <= c.IDD3N:
		return errors.New("power: burst currents must exceed active standby")
	case c.IDD0 <= c.IDD2N:
		return errors.New("power: IDD0 must exceed IDD2N")
	}
	return nil
}

// Model is a command-level DRAM energy model.
type Model struct {
	Currents Currents
	// VNom is the nominal supply voltage the currents are specified at.
	VNom float64
	// CurrentExponent is the exponent of the current-vs-voltage scaling
	// I(V) = I_nom * (V/VNom)^CurrentExponent. 1.01 fits Table I.
	CurrentExponent float64
	// IOReadPowerW / IOWritePowerW model the I/O + on-die-termination
	// power burned during a data burst (scales with V^2 like CMOS I/O).
	IOReadPowerW  float64
	IOWritePowerW float64
	// Circuit supplies the voltage-dependent timing parameters.
	Circuit voltscale.Model
}

// Default returns the LPDDR3-1600 4Gb energy model calibrated so that the
// per-condition access energies at 1.35 V match Fig. 2(b) of the paper
// (hit ~2 nJ, miss ~5.3 nJ, conflict ~7.2 nJ).
func Default() Model {
	return Model{
		Currents: Currents{
			IDD0:  0.093, // 93 mA
			IDD2N: 0.015,
			IDD3N: 0.035,
			IDD4R: 0.260,
			IDD4W: 0.240,
			IDD5:  0.180,
		},
		VNom:            voltscale.VNominal,
		CurrentExponent: 1.01,
		IOReadPowerW:    0.100,
		IOWritePowerW:   0.090,
		Circuit:         voltscale.Default(),
	}
}

// Validate reports whether the model is coherent.
func (m Model) Validate() error {
	if err := m.Currents.Validate(); err != nil {
		return err
	}
	if m.VNom <= 0 {
		return errors.New("power: nominal voltage must be positive")
	}
	if m.CurrentExponent < 0 {
		return errors.New("power: current exponent must be non-negative")
	}
	return m.Circuit.Validate()
}

// currentScale returns I(V)/I(VNom).
func (m Model) currentScale(v float64) float64 {
	return math.Pow(v/m.VNom, m.CurrentExponent)
}

// ioScale returns P_IO(V)/P_IO(VNom); I/O power is CMOS-like (~V^2 * f,
// with the same slight superlinearity as the core currents).
func (m Model) ioScale(v float64) float64 {
	return math.Pow(v/m.VNom, 1+m.CurrentExponent)
}

// deltaEnergyNJ returns (I_hi - I_lo) * V * t in nanojoules with currents
// scaled to the supply voltage v and t in nanoseconds.
func (m Model) deltaEnergyNJ(iHi, iLo, v, tNs float64) float64 {
	return (iHi - iLo) * m.currentScale(v) * v * tNs
}

// ActEnergyNJ returns the energy of one ACT command at supply voltage v.
// The row restore occupies tRAS(v), which stretches at reduced voltage.
func (m Model) ActEnergyNJ(v float64) float64 {
	t := m.Circuit.TRAS(v)
	return m.deltaEnergyNJ(m.Currents.IDD0, m.Currents.IDD3N, v, t)
}

// PreEnergyNJ returns the energy of one PRE command at supply voltage v.
func (m Model) PreEnergyNJ(v float64) float64 {
	t := m.Circuit.TRP(v)
	return m.deltaEnergyNJ(m.Currents.IDD0, m.Currents.IDD2N, v, t)
}

// ReadEnergyNJ returns the energy of one RD burst at supply voltage v.
func (m Model) ReadEnergyNJ(v float64) float64 {
	tb := dram.NominalTiming().TBURST // clock-bound, voltage-independent
	core := m.deltaEnergyNJ(m.Currents.IDD4R, m.Currents.IDD3N, v, tb)
	io := m.IOReadPowerW * m.ioScale(v) * tb
	return core + io
}

// WriteEnergyNJ returns the energy of one WR burst at supply voltage v.
func (m Model) WriteEnergyNJ(v float64) float64 {
	tb := dram.NominalTiming().TBURST
	core := m.deltaEnergyNJ(m.Currents.IDD4W, m.Currents.IDD3N, v, tb)
	io := m.IOWritePowerW * m.ioScale(v) * tb
	return core + io
}

// RefreshEnergyNJ returns the energy of one REF command at supply voltage v.
func (m Model) RefreshEnergyNJ(v float64) float64 {
	t := dram.NominalTiming().TRFC
	return m.deltaEnergyNJ(m.Currents.IDD5, m.Currents.IDD3N, v, t)
}

// BackgroundPowerW returns the standby power draw at supply voltage v:
// active standby when a row is open, precharge standby otherwise.
func (m Model) BackgroundPowerW(active bool, v float64) float64 {
	i := m.Currents.IDD2N
	if active {
		i = m.Currents.IDD3N
	}
	return i * m.currentScale(v) * v
}

// AccessEnergyNJ returns the energy of one column read access under the
// given row-buffer outcome (Fig. 2(b) of the paper):
//
//	hit      = RD
//	miss     = ACT + RD
//	conflict = PRE + ACT + RD
func (m Model) AccessEnergyNJ(class dram.AccessClass, v float64) float64 {
	e := m.ReadEnergyNJ(v)
	switch class {
	case dram.AccessHit:
	case dram.AccessMiss:
		e += m.ActEnergyNJ(v)
	case dram.AccessConflict:
		e += m.PreEnergyNJ(v) + m.ActEnergyNJ(v)
	default:
		panic("power: unknown access class")
	}
	return e
}

// AccessSavings returns the fractional energy-per-access saving of
// operating at voltage v relative to the nominal voltage, for the given
// access class: 1 - E(v)/E(VNom).
func (m Model) AccessSavings(class dram.AccessClass, v float64) float64 {
	return 1 - m.AccessEnergyNJ(class, v)/m.AccessEnergyNJ(class, m.VNom)
}

// Tally counts commands and state residency for a simulation interval.
// It is produced by the memory controller and consumed by Energy.
type Tally struct {
	NACT, NPRE, NRD, NWR, NREF int64
	// ActiveNs / IdleNs is time spent with at least one row open vs all
	// banks precharged, for background energy.
	ActiveNs, IdleNs float64
}

// Breakdown is the energy decomposition of a simulation interval, in nJ.
type Breakdown struct {
	ActNJ, PreNJ, RdNJ, WrNJ, RefNJ, BgNJ float64
}

// TotalNJ returns the sum of all components.
func (b Breakdown) TotalNJ() float64 {
	return b.ActNJ + b.PreNJ + b.RdNJ + b.WrNJ + b.RefNJ + b.BgNJ
}

// TotalMJ returns the total in millijoules (the unit of Fig. 12(a)).
func (b Breakdown) TotalMJ() float64 { return b.TotalNJ() * 1e-6 }

// Energy evaluates the full DRAMPower-style energy of a command tally at
// supply voltage v.
func (m Model) Energy(t Tally, v float64) Breakdown {
	return Breakdown{
		ActNJ: float64(t.NACT) * m.ActEnergyNJ(v),
		PreNJ: float64(t.NPRE) * m.PreEnergyNJ(v),
		RdNJ:  float64(t.NRD) * m.ReadEnergyNJ(v),
		WrNJ:  float64(t.NWR) * m.WriteEnergyNJ(v),
		RefNJ: float64(t.NREF) * m.RefreshEnergyNJ(v),
		BgNJ:  m.backgroundNJ(t, v),
	}
}

// backgroundNJ computes background energy: P[W] * t[ns] = nJ directly.
func (m Model) backgroundNJ(t Tally, v float64) float64 {
	return m.BackgroundPowerW(true, v)*t.ActiveNs + m.BackgroundPowerW(false, v)*t.IdleNs
}

// PaperTableISavings returns the per-access energy savings reported in
// Table I of the paper, used as the calibration reference by tests and by
// EXPERIMENTS.md comparisons. Keys are supply voltages.
func PaperTableISavings() map[float64]float64 {
	return map[float64]float64{
		voltscale.V1325: 0.0392,
		voltscale.V1250: 0.1429,
		voltscale.V1175: 0.2433,
		voltscale.V1100: 0.3359,
		voltscale.V1025: 0.4240,
	}
}
