package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"sparkxd"
)

// The sweep workload is the design-space explorer: one warm System,
// trained once in set-up, then a closed loop of Pipeline.Sweep calls over
// seed-drawn 40-scenario grids. The engine and the kernels do the work.
const (
	sweepNeurons = 200
	sweepTrainN  = 200
	sweepTestN   = 128
)

// sweepSetup builds and trains the warm System and runs the warm-up
// grids.
func sweepSetup(rc *runCtx) (*sparkxd.Pipeline, error) {
	sys, err := sparkxd.New(
		sparkxd.WithNeurons(sweepNeurons),
		sparkxd.WithSampleBudget(sweepTrainN, sweepTestN),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithSweepWorkers(runtime.GOMAXPROCS(0)),
	)
	if err != nil {
		return nil, err
	}
	p := sys.Pipeline()
	ctx := context.Background()
	if err := rc.tr.do("sdk.train", -1, func() error { _, err := p.Train(ctx); return err }); err != nil {
		return nil, err
	}
	if err := rc.tr.do("sdk.improve", -1, func() error { _, err := p.ImproveTolerance(ctx); return err }); err != nil {
		return nil, err
	}
	for _, warm := range sweepWarmups() {
		if err := rc.tr.do("sdk.sweep", -1, func() error { _, err := p.Sweep(ctx, warm); return err }); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkSweep validates one report against its grid.
func checkSweep(rep *sparkxd.SweepReport) error {
	if len(rep.Points) != sweepGridSize {
		return fmt.Errorf("%d points, want %d", len(rep.Points), sweepGridSize)
	}
	for i, pt := range rep.Points {
		if i > 0 && pt.Key <= rep.Points[i-1].Key {
			return fmt.Errorf("keys not unique and sorted at %q", pt.Key)
		}
		if pt.Accuracy < 0 || pt.Accuracy > 1 {
			return fmt.Errorf("%s: accuracy %v outside [0,1]", pt.Key, pt.Accuracy)
		}
		if !(pt.EnergyMJ > 0) {
			return fmt.Errorf("%s: energy %v mJ not positive", pt.Key, pt.EnergyMJ)
		}
		if pt.FlippedBits < 0 {
			return fmt.Errorf("%s: negative flipped bits", pt.Key)
		}
	}
	return nil
}

// sweepMix counts what the timed loop asked of each kernel, so probe
// times can be weighted by the workload's own scenario mix.
type sweepMix struct {
	encoders, kinds, bits counter // timed scenarios per encoder / error model / bitwidth
	maps                  counter // SparkXD placements the timed loop derived, per threshold
	prepares              float64 // injector preparations the timed loop derived
	seen                  map[string]bool
	voltage, ber          float64 // a device point and threshold of the mix, for the probe
}

func newSweepMix() *sweepMix {
	return &sweepMix{encoders: counter{}, kinds: counter{}, bits: counter{}, maps: counter{}, seen: map[string]bool{}}
}

// add records one grid. The engine caches placements per (device point,
// policy, threshold, bitwidth); a key the mix has not seen is a
// derivation the engine performed.
func (m *sweepMix) add(spec sparkxd.SweepSpec, timed bool) {
	n := float64(sweepGridSize)
	newKey := func(k string) bool {
		if m.seen[k] {
			return false
		}
		m.seen[k] = true
		return timed
	}
	if timed {
		for _, e := range spec.Encoders {
			m.encoders[string(e)] += n / float64(len(spec.Encoders))
		}
		for _, k := range spec.ErrorModels {
			m.kinds[k.String()] += n / float64(len(spec.ErrorModels))
		}
		for _, b := range spec.Bitwidths {
			m.bits[fmt.Sprint(b)] += n / float64(len(spec.Bitwidths))
		}
		m.voltage, m.ber = spec.Voltages[0], spec.BERs[0]
	}
	for _, v := range spec.Voltages {
		for _, k := range spec.ErrorModels {
			for _, b := range spec.Bitwidths {
				if newKey(fmt.Sprintf("base/%v/%v/%d", v, k, b)) {
					m.prepares++
				}
				for _, ber := range spec.BERs {
					if newKey(fmt.Sprintf("spark/%v/%v/%d/%v", v, k, b, ber)) {
						m.prepares++
						m.maps[strconv.FormatFloat(ber, 'g', -1, 64)]++
					}
				}
			}
		}
	}
}

func runSweep(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	var p *sparkxd.Pipeline
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if p, err = sweepSetup(rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	mix := newSweepMix()
	for _, warm := range sweepWarmups() {
		mix.add(warm, false)
	}
	hits0, misses0 := p.System().SweepCacheStats()

	gen := newSweepGen(rc.seed)
	ctx := context.Background()
	start := time.Now()
	var end time.Time
	for op := 0; time.Since(start) < rc.seconds; op++ {
		spec := gen.next()
		mix.add(spec, true)
		var rep *sparkxd.SweepReport
		t0 := time.Now()
		err := rc.tr.do("op", op, func() error {
			return rc.tr.do("sdk.sweep", op, func() error {
				var err error
				rep, err = p.Sweep(ctx, spec)
				return err
			})
		})
		end = time.Now()
		out.attempted++
		if err == nil {
			err = checkSweep(rep)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "sweep op %d: %v\n", op, err)
			continue
		}
		out.latS = append(out.latS, end.Sub(t0).Seconds())
		out.units += float64(len(rep.Points))
	}
	out.wallS = end.Sub(start).Seconds()
	if rc.tr == nil {
		return out, nil
	}
	hits, misses := p.System().SweepCacheStats()
	layers, err := sweepLayers(rc, p, mix, out, float64(misses0), float64(hits-hits0), float64(misses-misses0))
	if err != nil {
		return nil, err
	}
	out.layers = layers
	return out, nil
}

// sweepLayers derives the sweep workload's per-layer metrics: SDK stage
// spans, the engine's per-scenario time and cache ratio, and the kernel
// probe weighted by the timed loop's mix. Kernel metrics are ms per sweep
// call, except encoding and profiling, which set-up does for the whole
// run and which are ms per set-up.
func sweepLayers(rc *runCtx, p *sparkxd.Pipeline, mix *sweepMix, out *outcome, setupProfiles, hits, misses float64) (map[string]float64, error) {
	L := map[string]float64{}
	ops := float64(out.attempted)
	sweepMS := median(rc.tr.durations("sdk.sweep", true))
	L["sdk.train_s"] = median(rc.tr.durations("sdk.train", false)) / 1e3
	L["sdk.improve_s"] = median(rc.tr.durations("sdk.improve", false)) / 1e3
	L["sdk.sweep_s"] = sweepMS / 1e3
	L["sdk.residual_ms"] = median(residuals(rc.tr, "op", "sdk.sweep"))
	if err := conserved(L["sdk.residual_ms"], sweepMS); err != nil {
		return nil, err
	}
	L["engine.scenario_ms"] = sweepMS / sweepGridSize
	L["engine.profile_hit_ratio"] = ratio(hits, hits+misses)

	pr, err := newProbe(p.Improved, sweepTrainN, sweepTestN)
	if err != nil {
		return nil, err
	}
	var encode, evaluate, inject, prepare, roundtrip float64
	for _, e := range sparkxd.EncoderNames() {
		encMS, es, err := pr.encodeMS(sparkxd.Encoder(e))
		if err != nil {
			return nil, err
		}
		encode += encMS
		if mix.encoders[e] == 0 {
			continue
		}
		evMS, err := pr.evaluateMS(sparkxd.Encoder(e), es)
		if err != nil {
			return nil, err
		}
		evaluate += evMS * mix.encoders[e]
	}
	profMS, prof, err := pr.profileMS(mix.voltage)
	if err != nil {
		return nil, err
	}
	_, layout, err := pr.mapMS(32, prof, mix.ber)
	if err != nil {
		return nil, err
	}
	var mapping float64
	for _, b := range mix.maps.keys() {
		ber, err := strconv.ParseFloat(b, 64)
		if err != nil {
			return nil, err
		}
		ms, _, err := pr.mapMS(32, prof, ber)
		if err != nil {
			return nil, err
		}
		mapping += ms * mix.maps[b]
	}
	for _, k := range mix.kinds.keys() {
		m, err := sparkxd.ParseErrorModel(k)
		if err != nil {
			return nil, err
		}
		prepMS, injMS, err := pr.injectMS(kindOf(m), 32, prof, layout)
		if err != nil {
			return nil, err
		}
		inject += injMS * mix.kinds[k]
		prepare += prepMS * mix.prepares * mix.kinds[k] / (ops * sweepGridSize)
	}
	for _, b := range mix.bits.keys() {
		bits := 32
		if b == "16" {
			bits = 16
		}
		ms, err := pr.roundtripMS(bits)
		if err != nil {
			return nil, err
		}
		roundtrip += ms * mix.bits[b]
	}
	energyMS, err := pr.energyMS(layout, mix.voltage)
	if err != nil {
		return nil, err
	}
	energy := energyMS * ops * sweepGridSize
	L["snn.encode_ms"] = encode
	L["errmodel.profile_ms"] = profMS * setupProfiles
	L["snn.evaluate_ms"] = evaluate / ops
	L["errmodel.inject_ms"] = inject / ops
	L["errmodel.prepare_ms"] = prepare / ops
	L["mapping.sparkxd_ms"] = mapping / ops
	L["quant.roundtrip_ms"] = roundtrip / ops
	L["memctrl.energy_ms"] = energy / ops
	// Scenario kernels run on every sweep worker at once.
	workers := float64(runtime.GOMAXPROCS(0))
	kernels := (evaluate + inject + prepare + mapping + roundtrip + energy + profMS*misses) / workers
	L["engine.residual_ms"] = L["engine.scenario_ms"] - kernels/ops/sweepGridSize
	return L, nil
}

// residuals is, per timed operation, the "op" span minus the SDK spans
// inside it (ms): the conservation gap of the traced run.
func residuals(tr *tracer, op string, parts ...string) []float64 {
	whole := tr.byOp(op)
	inside := tr.byOp(parts...)
	var out []float64
	for i, ms := range whole {
		out = append(out, ms-inside[i])
	}
	return out
}

// conserved checks that the SDK spans of an operation account for its
// wall time: the median gap may be at most 1 ms plus 1% of the median
// operation.
func conserved(residualMS, opMS float64) error {
	if residualMS > 1+0.01*opMS {
		return fmt.Errorf("conservation: %.2f ms of a %.2f ms operation is outside the SDK spans", residualMS, opMS)
	}
	return nil
}
