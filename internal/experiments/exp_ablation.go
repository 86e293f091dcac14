package experiments

import (
	"context"
	"fmt"
	"io"

	"sparkxd/internal/coding"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/mapping"
	"sparkxd/internal/report"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// The ablations below cover the design choices DESIGN.md calls out beyond
// the paper's own figures: which EDEN error model is used (the paper
// argues Model 0 approximates the others), how much of the mapping gain
// comes from bank interleaving vs the safety filter, and how the spike
// coding scheme interacts with error tolerance.

func init() {
	register(Entry{Name: "ablation-errmodels", Seq: 130, Cost: 4,
		Desc: "EDEN error models 0-3 at a fixed BER",
		Run:  func(r *Runner) (Result, error) { return r.AblationErrModels(1e-3) }})
	register(Entry{Name: "ablation-mapping", Seq: 140, Cost: 1,
		Desc: "mapping policy decomposition (interleaving vs safety)",
		Run:  func(r *Runner) (Result, error) { return r.AblationMapping() }})
	register(Entry{Name: "ablation-coding", Seq: 150, Cost: 5,
		Desc: "spike coding schemes under error injection",
		Run:  func(r *Runner) (Result, error) { return r.AblationCoding() }})
}

// AblationErrModelResult compares the accuracy impact of EDEN error
// models 0-3 at a fixed BER.
type AblationErrModelResult struct {
	BER      float64
	Models   []string
	Accuracy []float64
	CleanAcc float64
}

// AblationErrModels injects errors with each EDEN model into the same
// trained network and measures accuracy (paper Sec. III: Model 0 is a
// reasonable approximation of the others).
func (r *Runner) AblationErrModels(ber float64) (AblationErrModelResult, error) {
	size := 100
	if !r.Opts.Quick {
		size = 400
	}
	pair, err := r.Pair(size, dataset.MNISTLike)
	if err != nil {
		return AblationErrModelResult{}, err
	}
	_, test, err := r.Data(dataset.MNISTLike)
	if err != nil {
		return AblationErrModelResult{}, err
	}
	layout, err := r.F.LayoutFor(pair.Baseline, nil)
	if err != nil {
		return AblationErrModelResult{}, err
	}
	res := AblationErrModelResult{BER: ber}
	evalSeed := rng.New(r.Opts.Seed).Derive("ablation-eval").Uint64()
	zero, err := errmodel.UniformProfile(r.F.Geom, 0, r.F.DeviceSeed)
	if err != nil {
		return res, err
	}
	ctx := context.Background()
	if res.CleanAcc, err = r.F.EvaluateUnderErrorsCtx(ctx, pair.Baseline, test, layout, zero, 1, evalSeed); err != nil {
		return res, err
	}
	for _, kind := range []errmodel.Kind{errmodel.Model0, errmodel.Model1, errmodel.Model2, errmodel.Model3} {
		profile, err := errmodel.UniformProfile(r.F.Geom, ber, r.F.DeviceSeed)
		if err != nil {
			return res, err
		}
		fw := *r.F // shallow copy with a different error model kind
		fw.ErrKind = kind
		acc, err := fw.EvaluateUnderErrorsCtx(ctx, pair.Baseline, test, layout, profile, 7, evalSeed)
		if err != nil {
			return res, err
		}
		res.Models = append(res.Models, kind.String())
		res.Accuracy = append(res.Accuracy, acc)
	}
	return res, nil
}

// Render writes the comparison.
func (res AblationErrModelResult) Render(w io.Writer) {
	tb := report.NewTable(
		fmt.Sprintf("ablation: EDEN error models at BER %.0e (clean %.1f%%)",
			res.BER, res.CleanAcc*100),
		"error model", "accuracy", "delta vs clean")
	for i := range res.Models {
		tb.AddRow(res.Models[i], report.Pct(res.Accuracy[i]),
			fmt.Sprintf("%+.1f pp", (res.Accuracy[i]-res.CleanAcc)*100))
	}
	tb.Render(w)
}

// AblationMappingResult decomposes the mapping gain: baseline sequential,
// bank-interleaved without a safety filter, and full SparkXD.
type AblationMappingResult struct {
	Policies  []string
	HitRate   []float64
	Makespan  []float64 // ns
	EnergyMJ  []float64
	UnsafeHit []int64 // accesses landing in unsafe subarrays
}

// AblationMapping compares the three layouts at 1.025 V for an N900
// image, counting how many accesses land in subarrays whose error rate
// exceeds the threshold (the safety property Algorithm 2 buys).
func (r *Runner) AblationMapping() (AblationMappingResult, error) {
	const weights = 784 * 900
	const berTh = 1e-3
	v := voltscale.V1025
	profile, err := r.F.ProfileAt(v)
	if err != nil {
		return AblationMappingResult{}, err
	}
	safe := profile.SafeSubarrays(berTh)

	base, err := r.F.LayoutForWeights(weights, nil)
	if err != nil {
		return AblationMappingResult{}, err
	}
	inter, err := r.F.LayoutForWeights(weights, mapping.AllSafe(r.F.Geom))
	if err != nil {
		return AblationMappingResult{}, err
	}
	spark, _, _, err := r.F.MapWeightsAdaptive(weights, v, berTh)
	if err != nil {
		return AblationMappingResult{}, err
	}

	res := AblationMappingResult{}
	layouts := []struct {
		name string
		l    *mapping.Layout
	}{
		{"baseline (sequential)", base},
		{"interleaved (no safety)", inter},
		{"sparkxd (Algorithm 2)", spark},
	}
	for _, it := range layouts {
		e, err := r.F.EvaluateEnergy(it.l, v)
		if err != nil {
			return res, err
		}
		var unsafeHits int64
		for _, c := range it.l.AccessStream() {
			if !safe[c.SubarrayOf().Linear(r.F.Geom)] {
				unsafeHits++
			}
		}
		res.Policies = append(res.Policies, it.name)
		res.HitRate = append(res.HitRate, e.Stats.HitRate())
		res.Makespan = append(res.Makespan, e.Stats.TotalNs)
		res.EnergyMJ = append(res.EnergyMJ, e.TotalMJ())
		res.UnsafeHit = append(res.UnsafeHit, unsafeHits)
	}
	return res, nil
}

// Render writes the decomposition table.
func (res AblationMappingResult) Render(w io.Writer) {
	tb := report.NewTable("ablation: mapping policy decomposition (N900 @ 1.025V, BERth 1e-3)",
		"policy", "hit rate", "makespan [us]", "energy [mJ]", "accesses in unsafe subarrays")
	for i := range res.Policies {
		tb.AddRow(res.Policies[i], report.Pct(res.HitRate[i]),
			res.Makespan[i]/1000, res.EnergyMJ[i], res.UnsafeHit[i])
	}
	tb.Render(w)
}

// AblationCodingResult compares spike encodings under error injection.
type AblationCodingResult struct {
	Encoders []string
	CleanAcc []float64
	ErrAcc   []float64 // at BER 1e-3
}

// AblationCoding trains a small network with each of the paper's surveyed
// coding schemes and measures clean and corrupted accuracy.
func (r *Runner) AblationCoding() (AblationCodingResult, error) {
	train, test, err := r.Data(dataset.MNISTLike)
	if err != nil {
		return AblationCodingResult{}, err
	}
	// The labels are fixed, not the coders' names, which carry every
	// parameter.
	labels := []string{"rate-poisson(p=0.12)", "rate-deterministic", "time-to-first-spike", "rank-order", "burst"}
	encoders := []coding.Encoder{
		coding.NewRate(),
		coding.NewDeterministicRate(),
		coding.TTFS{Threshold: 20},
		coding.NewRankOrder(),
		coding.NewBurst(),
	}
	res := AblationCodingResult{
		Encoders: make([]string, len(encoders)),
		CleanAcc: make([]float64, len(encoders)),
		ErrAcc:   make([]float64, len(encoders)),
	}
	profile, err := errmodel.UniformProfile(r.F.Geom, 1e-3, r.F.DeviceSeed)
	if err != nil {
		return res, err
	}
	err = r.parallelFor(len(encoders), func(i int) error {
		cfg := snn.DefaultConfig(80)
		cfg.Encoder = encoders[i]
		net, err := snn.New(cfg, rng.New(r.Opts.Seed))
		if err != nil {
			return err
		}
		root := rng.New(r.Opts.Seed).DeriveIndex("coding", i)
		ctx := context.Background()
		if err := net.Train(ctx, train, trainPlan(root, 2)); err != nil {
			return err
		}
		layout, err := r.F.LayoutFor(net, nil)
		if err != nil {
			return err
		}
		evalSeed := root.Derive("eval").Uint64()
		zero, err := errmodel.UniformProfile(r.F.Geom, 0, r.F.DeviceSeed)
		if err != nil {
			return err
		}
		res.Encoders[i] = labels[i]
		if res.CleanAcc[i], err = r.F.EvaluateUnderErrorsCtx(ctx, net, test, layout, zero, 1, evalSeed); err != nil {
			return err
		}
		res.ErrAcc[i], err = r.F.EvaluateUnderErrorsCtx(ctx, net, test, layout, profile, 9, evalSeed)
		return err
	})
	return res, err
}

// Render writes the coding comparison.
func (res AblationCodingResult) Render(w io.Writer) {
	tb := report.NewTable("ablation: spike coding schemes (N80, clean vs BER 1e-3)",
		"encoder", "clean accuracy", "accuracy @1e-3")
	for i := range res.Encoders {
		tb.AddRow(res.Encoders[i], report.Pct(res.CleanAcc[i]), report.Pct(res.ErrAcc[i]))
	}
	tb.Render(w)
}
