package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"sparkxd"
)

// The pipeline workload is the deployer: every operation builds a fresh
// System with a seed-drawn WithSeed and runs the whole Fig. 7 flow. STDP
// and fault-aware training dominate; nothing is shared across operations.
const (
	pipeNeurons = 100
	pipeTrainN  = 100
	pipeTestN   = 64
)

// stageCounts tallies the kernel-level events one pipeline reported
// through the public observer hook.
type stageCounts struct {
	epochs, analyzeRates atomic.Int64
}

func (c *stageCounts) observe(ev sparkxd.Event) {
	if ev.Phase != "progress" {
		return
	}
	switch ev.Stage {
	case "train", "improve":
		c.epochs.Add(1)
	case "analyze":
		c.analyzeRates.Add(1)
	}
}

// pipelineStages runs the six stages in order, each inside its SDK span.
func pipelineStages(rc *runCtx, op int, p *sparkxd.Pipeline) error {
	ctx := context.Background()
	stages := []struct {
		name string
		run  func() error
	}{
		{"sdk.train", func() error { _, err := p.Train(ctx); return err }},
		{"sdk.improve", func() error { _, err := p.ImproveTolerance(ctx); return err }},
		{"sdk.analyze", func() error { _, err := p.AnalyzeTolerance(ctx); return err }},
		{"sdk.map", func() error { _, err := p.MapAdaptive(ctx); return err }},
		{"sdk.evaluate", func() error { _, err := p.EvaluateUnderErrors(ctx); return err }},
		{"sdk.energy", func() error { _, err := p.EnergyReport(ctx); return err }},
	}
	for _, st := range stages {
		if err := rc.tr.do(st.name, op, st.run); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return nil
}

func newPipelineSystem(seed uint64, counts *stageCounts) (*sparkxd.System, error) {
	return sparkxd.New(
		sparkxd.WithNeurons(pipeNeurons),
		sparkxd.WithSampleBudget(pipeTrainN, pipeTestN),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithSeed(seed),
		sparkxd.WithSweepWorkers(runtime.GOMAXPROCS(0)),
		sparkxd.WithObserver(counts.observe),
	)
}

// checkPipeline validates every artifact of one finished pipeline.
func checkPipeline(p *sparkxd.Pipeline) error {
	switch {
	case p.Baseline == nil || p.Improved == nil || p.Tolerance == nil ||
		p.Placement == nil || p.Evaluation == nil || p.Energy == nil:
		return fmt.Errorf("a stage returned no artifact")
	case p.Placement.WeightCount != p.Improved.WeightCount() || p.Placement.WeightCount <= 0:
		return fmt.Errorf("placement holds %d weights, model has %d", p.Placement.WeightCount, p.Improved.WeightCount())
	}
	for _, acc := range []float64{p.Improved.BaselineAcc, p.Tolerance.BaselineAcc, p.Evaluation.Accuracy} {
		if acc < 0 || acc > 1 {
			return fmt.Errorf("accuracy %v outside [0,1]", acc)
		}
	}
	if math.IsNaN(p.Energy.Savings) || math.IsInf(p.Energy.Savings, 0) {
		return fmt.Errorf("energy savings %v not finite", p.Energy.Savings)
	}
	return nil
}

func runPipeline(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	// Set-up warms the process (heap, code paths) by training one System,
	// fault-aware training included, on a seed the timed loop does not
	// use.
	warm := newRand(rc.seed, 2)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		sys, err := newPipelineSystem(nextPipelineSeed(warm), &stageCounts{})
		if err == nil {
			p := sys.Pipeline()
			err = rc.tr.do("sdk.train", -1, func() error { _, err := p.Train(context.Background()); return err })
			if err == nil {
				err = rc.tr.do("sdk.improve", -1, func() error { _, err := p.ImproveTolerance(context.Background()); return err })
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	r := newRand(rc.seed, 1)
	var counts stageCounts
	var last *sparkxd.Pipeline
	start := time.Now()
	var end time.Time
	for op := 0; time.Since(start) < rc.seconds; op++ {
		seed := nextPipelineSeed(r)
		var p *sparkxd.Pipeline
		t0 := time.Now()
		err := rc.tr.do("op", op, func() error {
			sys, err := newPipelineSystem(seed, &counts)
			if err != nil {
				return err
			}
			p = sys.Pipeline()
			return pipelineStages(rc, op, p)
		})
		end = time.Now()
		out.attempted++
		if err == nil {
			err = checkPipeline(p)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "pipeline op %d: %v\n", op, err)
			continue
		}
		out.latS = append(out.latS, end.Sub(t0).Seconds())
		out.units++
		last = p
	}
	out.wallS = end.Sub(start).Seconds()
	if rc.tr == nil || last == nil {
		return out, nil
	}
	layers, err := pipelineLayers(rc, last, &counts, float64(out.attempted))
	if err != nil {
		return nil, err
	}
	out.layers = layers
	return out, nil
}

// pipelineLayers derives the pipeline workload's per-layer metrics: the
// six SDK stage spans and the kernel probe weighted by the calls one
// pipeline makes (kernel metrics are ms per pipeline). Per pipeline with
// R schedule rates: 1+R training epochs; 2R+2 evaluations (baseline,
// R fault-aware, R analysis points, the final one), each encoding its
// trains except the analysis, which encodes once; 3R+1 weight
// corruptions, each a quantization round trip plus a fresh injector
// (prepare and inject); one profile and one placement; three energy
// replays.
func pipelineLayers(rc *runCtx, last *sparkxd.Pipeline, c *stageCounts, ops float64) (map[string]float64, error) {
	L := map[string]float64{}
	for _, st := range []string{"train", "improve", "analyze", "map", "evaluate", "energy"} {
		L["sdk."+st+"_s"] = median(rc.tr.durations("sdk."+st, true)) / 1e3
	}
	L["sdk.residual_ms"] = median(residuals(rc.tr, "op",
		"sdk.train", "sdk.improve", "sdk.analyze", "sdk.map", "sdk.evaluate", "sdk.energy"))
	if err := conserved(L["sdk.residual_ms"], median(rc.tr.durations("op", true))); err != nil {
		return nil, err
	}

	pr, err := newProbe(last.Improved, pipeTrainN, pipeTestN)
	if err != nil {
		return nil, err
	}
	epochs := float64(c.epochs.Load()) / ops
	rates := float64(c.analyzeRates.Load()) / ops
	evals := 2*rates + 2
	encodes := rates + 3
	corruptions := 3*rates + 1

	trainMS, err := pr.trainEpochMS()
	if err != nil {
		return nil, err
	}
	encMS, es, err := pr.encodeMS(sparkxd.EncoderRate)
	if err != nil {
		return nil, err
	}
	evMS, err := pr.evaluateMS(sparkxd.EncoderRate, es)
	if err != nil {
		return nil, err
	}
	v := last.Placement.Voltage
	profMS, prof, err := pr.profileMS(v)
	if err != nil {
		return nil, err
	}
	mapMS, layout, err := pr.mapMS(32, prof, last.Tolerance.BERth)
	if err != nil {
		return nil, err
	}
	prepMS, injMS, err := pr.injectMS(kindOf(sparkxd.ErrorModelUniform), 32, prof, layout)
	if err != nil {
		return nil, err
	}
	rtMS, err := pr.roundtripMS(32)
	if err != nil {
		return nil, err
	}
	energyMS, err := pr.energyMS(layout, v)
	if err != nil {
		return nil, err
	}
	L["snn.train_epoch_ms"] = trainMS * epochs
	L["snn.encode_ms"] = encMS * encodes
	L["snn.evaluate_ms"] = evMS * evals
	L["errmodel.inject_ms"] = injMS * corruptions
	L["errmodel.prepare_ms"] = prepMS * corruptions
	L["quant.roundtrip_ms"] = rtMS * corruptions
	L["errmodel.profile_ms"] = profMS
	L["mapping.sparkxd_ms"] = mapMS
	L["memctrl.energy_ms"] = energyMS * 3
	return L, nil
}
