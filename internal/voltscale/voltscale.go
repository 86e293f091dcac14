// Package voltscale is the reduced-voltage DRAM circuit model of the
// SparkXD reproduction. It stands in for the SPICE simulations the paper
// runs on the DRAM circuit model of Chang et al. (POMACS 2017, ref [10]):
// it produces (1) the DRAM array-voltage waveform Varray(t) during
// activation and precharge, (2) the voltage-dependent timing parameters
// tRCD / tRAS / tRP, and (3) the bit-error-rate curve BER(Vsupply).
//
// Circuit model. During activation the sense amplifier restores the cell
// and bitline from the precharge level Vsupply/2 toward Vsupply along a
// first-order RC charging curve; during precharge the bitline is equalized
// back to Vsupply/2 along an RC discharge curve. The paper's own timing
// definitions (Sec. II-B2) are applied verbatim:
//
//   - ready-to-access    : Varray reaches 75% of Vsupply      -> minimum tRCD
//   - ready-to-precharge : Varray reaches 98% of Vsupply      -> minimum tRAS
//   - ready-to-activate  : Varray within 2% of Vsupply/2      -> minimum tRP
//
// At reduced supply voltage the sense-amplifier drive current shrinks, so
// the effective RC constant grows; we model tau(V) = tau_nom * (Vnom/V)^Gamma
// with Gamma fitted so the timing stretch at 1.025 V matches the reported
// reduced-voltage characterization (~20% slower restore at -24% Vdd).
//
// Error model. Below a guardband voltage, cells begin to fail with a rate
// that grows exponentially as the supply drops (Fig. 2(c) of the paper):
// log10 BER is linear in V, spanning ~1e-8 near 1.325 V to ~1e-2 near
// 1.025 V, and is exactly zero at or above the guardband (1.34 V).
package voltscale

import (
	"errors"
	"math"

	"sparkxd/internal/dram"
)

// Supply voltages evaluated throughout the paper.
const (
	VNominal = 1.350 // accurate DRAM
	V1325    = 1.325
	V1250    = 1.250
	V1175    = 1.175
	V1100    = 1.100
	V1025    = 1.025 // most aggressive approximate DRAM point
)

// PaperVoltages returns the supply-voltage sweep used by Figs. 6, 12 and
// Table I, from nominal down to the most aggressive point.
func PaperVoltages() []float64 {
	return []float64{VNominal, V1325, V1250, V1175, V1100, V1025}
}

// ReducedVoltages returns only the approximate-DRAM points.
func ReducedVoltages() []float64 {
	return []float64{V1325, V1250, V1175, V1100, V1025}
}

// Model holds the calibrated circuit-model parameters.
type Model struct {
	// VNom is the nominal supply voltage (1.35 V for LPDDR3).
	VNom float64
	// TauAct is the nominal activation RC constant in ns, calibrated so
	// that tRCD(VNom) equals the datasheet 18 ns (tau = tRCD/ln 2).
	TauAct float64
	// TauRestore is the nominal full-restore RC constant in ns, calibrated
	// so that tRAS(VNom) equals the datasheet 42 ns (tau = tRAS/ln 50).
	TauRestore float64
	// TauPre is the nominal precharge RC constant in ns, calibrated so
	// that tRP(VNom) equals the datasheet 18 ns (tau = tRP/ln 50).
	TauPre float64
	// Gamma is the exponent of the tau(V) voltage dependence.
	Gamma float64
	// GuardbandV is the voltage at or above which no bit errors occur.
	GuardbandV float64
	// BERAtMinV is the bit error rate at MinV (the curve's anchor point).
	BERAtMinV float64
	// MinV is the lowest characterized supply voltage.
	MinV float64
	// LogSlope is d(log10 BER)/dV; negative (errors grow as V drops).
	LogSlope float64
}

// Thresholds of the paper's timing definitions.
const (
	readyToAccessFrac    = 0.75 // of Vsupply          -> tRCD
	readyToPrechargeFrac = 0.98 // of Vsupply          -> tRAS
	readyToActivateFrac  = 0.02 // within 2% of Vdd/2  -> tRP
)

// Default returns the calibrated model for LPDDR3-1600 at 1.35 V nominal.
func Default() Model {
	nom := dram.NominalTiming()
	return Model{
		VNom:       VNominal,
		TauAct:     nom.TRCD / math.Log(2),                    // 75% from half-swing: ln((1-0.5)/(1-0.75)) = ln 2
		TauRestore: nom.TRAS / math.Log(25),                   // 98%: ln(0.5/0.02) = ln 25
		TauPre:     nom.TRP / math.Log(1/readyToActivateFrac), // within 2%: ln 50
		Gamma:      0.65,
		GuardbandV: 1.340,
		BERAtMinV:  1e-2,
		MinV:       V1025,
		LogSlope:   -20, // spans 1e-2 @1.025V to 1e-8 @1.325V, ~5e-9 at the guardband
	}
}

// Validate reports whether the model parameters are coherent.
func (m Model) Validate() error {
	switch {
	case m.VNom <= 0, m.TauAct <= 0, m.TauRestore <= 0, m.TauPre <= 0:
		return errors.New("voltscale: nominal parameters must be positive")
	case m.Gamma < 0:
		return errors.New("voltscale: Gamma must be non-negative")
	case m.GuardbandV <= m.MinV:
		return errors.New("voltscale: guardband must exceed MinV")
	case m.BERAtMinV <= 0 || m.BERAtMinV >= 1:
		return errors.New("voltscale: BERAtMinV must be in (0,1)")
	}
	return nil
}

// tauScale returns the RC slowdown factor at supply voltage v.
func (m Model) tauScale(v float64) float64 {
	if v <= 0 {
		panic("voltscale: non-positive supply voltage")
	}
	return math.Pow(m.VNom/v, m.Gamma)
}

// ArrayVoltageActivate returns Varray at time t (ns) after an ACT command
// at supply voltage v: an RC rise from v/2 toward v.
func (m Model) ArrayVoltageActivate(v, t float64) float64 {
	if t <= 0 {
		return v / 2
	}
	tau := m.TauAct * m.tauScale(v)
	return v - (v/2)*math.Exp(-t/tau)
}

// TRCD returns the minimum reliable tRCD (ns) at supply voltage v:
// the time for Varray to rise from v/2 to 75% of v.
func (m Model) TRCD(v float64) float64 {
	// Solve v - (v/2) e^{-t/tau} = 0.75 v  =>  e^{-t/tau} = 0.5  (per unit v)
	tau := m.TauAct * m.tauScale(v)
	return tau * math.Log((1-0.5)/(1-readyToAccessFrac))
}

// TRAS returns the minimum reliable tRAS (ns) at supply voltage v:
// the time for Varray to rise from v/2 to 98% of v.
func (m Model) TRAS(v float64) float64 {
	tau := m.TauRestore * m.tauScale(v)
	return tau * math.Log(0.5/(1-readyToPrechargeFrac))
}

// TRP returns the minimum reliable tRP (ns) at supply voltage v:
// the time for Varray to fall from v to within 2% of v/2.
func (m Model) TRP(v float64) float64 {
	tau := m.TauPre * m.tauScale(v)
	return tau * math.Log(1/readyToActivateFrac)
}

// Timing returns the full DRAM timing set at supply voltage v: the three
// voltage-sensitive parameters come from the circuit model, everything
// else (clock-bound parameters) is inherited from the nominal set.
func (m Model) Timing(v float64) dram.Timing {
	t := dram.NominalTiming()
	t.TRCD = m.TRCD(v)
	t.TRAS = m.TRAS(v)
	t.TRP = m.TRP(v)
	return t
}

// BER returns the raw bit error rate of cells operated at supply voltage v
// (uniform across the device; per-subarray variation is added by package
// errmodel). It is exactly 0 at or above the guardband voltage.
func (m Model) BER(v float64) float64 {
	if v >= m.GuardbandV {
		return 0
	}
	// log10 BER is linear in V, anchored at (MinV, BERAtMinV).
	log10 := math.Log10(m.BERAtMinV) + m.LogSlope*(v-m.MinV)
	ber := math.Pow(10, log10)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// WaveformPoint is one sample of a Varray(t) waveform.
type WaveformPoint struct {
	TimeNs float64
	Varray float64
}

// ActivatePrechargeWaveform samples the Fig. 2(d) / Fig. 6 experiment:
// an ACT at t=0 followed by a PRE at t=preAt, sampled every dt ns until
// total ns. The precharge segment decays from whatever level activation
// reached, which reproduces the incomplete-restore behaviour visible at
// very low supply voltages.
func (m Model) ActivatePrechargeWaveform(v, preAt, dt, total float64) []WaveformPoint {
	if dt <= 0 || total <= 0 {
		panic("voltscale: waveform sampling step and span must be positive")
	}
	var out []WaveformPoint
	vAtPre := m.ArrayVoltageActivate(v, preAt)
	tauPre := m.TauPre * m.tauScale(v)
	for t := 0.0; t <= total+1e-9; t += dt {
		var va float64
		if t < preAt {
			va = m.ArrayVoltageActivate(v, t)
		} else {
			// decay from the level reached at preAt toward v/2
			va = v/2 + (vAtPre-v/2)*math.Exp(-(t-preAt)/tauPre)
		}
		out = append(out, WaveformPoint{TimeNs: t, Varray: va})
	}
	return out
}
