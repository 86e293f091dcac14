package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"sparkxd/internal/dataset"
	"sparkxd/internal/dram"
	"sparkxd/internal/prune"
	"sparkxd/internal/report"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

func log10(x float64) float64 { return math.Log10(x) }

func formatV(v float64) string { return fmt.Sprintf("%.3fV", v) }

func init() {
	register(Entry{Name: "fig1a", Seq: 10, Cost: 3,
		Desc: "accuracy of small vs large SNN (motivation)",
		Run:  func(r *Runner) (Result, error) { return r.Fig1a() }})
	register(Entry{Name: "fig1b", Seq: 20, Cost: 0.1,
		Desc: "energy breakdown of SNN hardware platforms",
		Run:  func(r *Runner) (Result, error) { return r.Fig1b(), nil }})
	register(Entry{Name: "fig2a", Seq: 30, Cost: 2,
		Desc: "normalized DRAM energy: pruning x approximate DRAM",
		Run:  func(r *Runner) (Result, error) { return r.Fig2a() }})
	register(Entry{Name: "fig2b", Seq: 40, Cost: 0.1,
		Desc: "DRAM access energy per access condition",
		Run:  func(r *Runner) (Result, error) { return r.Fig2b(), nil }})
}

// Fig1aResult compares the accuracy of a small and a large SNN
// (Fig. 1(a): 200 neurons ~1 MB vs 9800 neurons ~200 MB on MNIST).
type Fig1aResult struct {
	Neurons  []int
	SizeMB   []float64
	Accuracy []float64
}

// Fig1a trains networks of the two sizes on the MNIST flavour.
// Quick mode shrinks the sizes (the trend, small < large, is the claim).
func (r *Runner) Fig1a() (Fig1aResult, error) {
	sizes := []int{200, 9800}
	if r.Opts.Quick {
		sizes = []int{50, 400}
	}
	if len(r.Opts.OverrideSizes) >= 2 {
		sizes = r.Opts.OverrideSizes[:2]
	}
	train, test, err := r.Data(dataset.MNISTLike)
	if err != nil {
		return Fig1aResult{}, err
	}
	res := Fig1aResult{}
	accs := make([]float64, len(sizes))
	err = r.parallelFor(len(sizes), func(i int) error {
		n, err := snn.New(snn.DefaultConfig(sizes[i]), rng.New(r.Opts.Seed))
		if err != nil {
			return err
		}
		root := rng.New(r.Opts.Seed).DeriveIndex("fig1a", i)
		ctx := context.Background()
		for e := 0; e < r.Opts.BaseEpochs(); e++ {
			if err := n.TrainEpochCtx(ctx, train, root.DeriveIndex("epoch", e)); err != nil {
				return err
			}
		}
		if err := n.AssignLabelsCtx(ctx, train, root.Derive("assign")); err != nil {
			return err
		}
		accs[i], err = n.EvaluateCtx(ctx, test, root.Derive("eval"))
		return err
	})
	if err != nil {
		return res, err
	}
	for i, s := range sizes {
		res.Neurons = append(res.Neurons, s)
		res.SizeMB = append(res.SizeMB, float64(s)*dataset.Pixels*4/(1<<20))
		res.Accuracy = append(res.Accuracy, accs[i])
	}
	return res, nil
}

// Render writes the accuracy-vs-size table.
func (res Fig1aResult) Render(w io.Writer) {
	tb := report.NewTable("Fig. 1(a): accuracy of small vs large SNN (MNIST flavour)",
		"neurons", "model size [MB]", "accuracy")
	for i := range res.Neurons {
		tb.AddRow(res.Neurons[i], res.SizeMB[i], report.Pct(res.Accuracy[i]))
	}
	tb.Render(w)
}

// Platform describes one SNN hardware platform for the Fig. 1(b) energy
// breakdown. Compute and communication energies per spike-event are
// platform constants taken from the cited studies; memory energy comes
// from our DRAM access-energy model, which is why the breakdown is a
// re-derivation rather than a copy of the bar chart.
type Platform struct {
	Name string
	// ComputeNJPerEvent / CommNJPerEvent are per-synaptic-event energies.
	ComputeNJPerEvent float64
	CommNJPerEvent    float64
	// MemBytesPerEvent is how many weight bytes each event fetches
	// (platforms with small on-chip buffers refetch more).
	MemBytesPerEvent float64
}

// Fig1bResult is the energy breakdown per platform.
type Fig1bResult struct {
	Platforms []string
	// Fractions[i] = {compute, communication, memory} of platform i.
	Fractions [][3]float64
}

// Fig1b reconstructs the energy breakdown of TrueNorth, PEASE, and SNNAP
// processing one inference, with the memory column driven by our DRAM
// energy-per-access model (row-miss dominated streaming).
func (r *Runner) Fig1b() Fig1bResult {
	platforms := []Platform{
		// Constants chosen from the ISLPED'19 study [5] the paper adapts:
		// memory dominates at 50-75% across platforms.
		{Name: "TrueNorth", ComputeNJPerEvent: 0.30, CommNJPerEvent: 0.50, MemBytesPerEvent: 12},
		{Name: "PEASE", ComputeNJPerEvent: 0.55, CommNJPerEvent: 0.40, MemBytesPerEvent: 16},
		{Name: "SNNAP", ComputeNJPerEvent: 0.70, CommNJPerEvent: 0.25, MemBytesPerEvent: 10},
	}
	perByte := r.F.Power.AccessEnergyNJ(dram.AccessMiss, voltscale.VNominal) /
		float64(r.F.Geom.ColumnBytes)
	res := Fig1bResult{}
	for _, p := range platforms {
		mem := p.MemBytesPerEvent * perByte
		total := p.ComputeNJPerEvent + p.CommNJPerEvent + mem
		res.Platforms = append(res.Platforms, p.Name)
		res.Fractions = append(res.Fractions, [3]float64{
			p.ComputeNJPerEvent / total,
			p.CommNJPerEvent / total,
			mem / total,
		})
	}
	return res
}

// Render writes the breakdown table.
func (res Fig1bResult) Render(w io.Writer) {
	tb := report.NewTable("Fig. 1(b): energy breakdown of SNN hardware platforms",
		"platform", "computation", "communication", "memory accesses")
	for i, p := range res.Platforms {
		f := res.Fractions[i]
		tb.AddRow(p, report.Pct(f[0]), report.Pct(f[1]), report.Pct(f[2]))
	}
	tb.Render(w)
}

// Fig2aResult combines weight pruning with approximate DRAM (Fig. 2(a)):
// normalized DRAM energy across connectivity for accurate (1.35 V,
// baseline mapping) and approximate (1.025 V, SparkXD mapping) DRAM.
type Fig2aResult struct {
	Connectivity []float64
	Accurate     []float64 // normalized to accurate @ 100%
	Approximate  []float64
}

// Fig2a sweeps connectivity 100%..50% for a 4900-neuron network
// (quick: 900) and evaluates the DRAM energy of streaming the surviving
// weights.
func (r *Runner) Fig2a() (Fig2aResult, error) {
	neurons := 4900
	if r.Opts.Quick {
		neurons = 900
	}
	weights := make([]float32, dataset.Pixels*neurons)
	wr := rng.New(r.Opts.Seed).Derive("fig2a")
	for i := range weights {
		weights[i] = wr.Float32()
	}
	res := Fig2aResult{}
	var baseNorm float64
	for _, conn := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		wcopy := append([]float32(nil), weights...)
		pr, err := prune.ByMagnitude(wcopy, conn)
		if err != nil {
			return res, err
		}
		kept := pr.Kept

		// Accurate DRAM: baseline mapping at nominal voltage.
		baseLayout, err := r.F.LayoutForWeights(kept, nil)
		if err != nil {
			return res, err
		}
		eAcc, err := r.F.EvaluateEnergy(baseLayout, voltscale.VNominal)
		if err != nil {
			return res, err
		}
		// Approximate DRAM: SparkXD mapping at 1.025 V.
		sparkLayout, _, _, err := r.F.MapWeightsAdaptive(kept, voltscale.V1025, 1e-3)
		if err != nil {
			return res, err
		}
		eApp, err := r.F.EvaluateEnergy(sparkLayout, voltscale.V1025)
		if err != nil {
			return res, err
		}
		if baseNorm == 0 {
			baseNorm = eAcc.TotalMJ()
		}
		res.Connectivity = append(res.Connectivity, conn)
		res.Accurate = append(res.Accurate, eAcc.TotalMJ()/baseNorm)
		res.Approximate = append(res.Approximate, eApp.TotalMJ()/baseNorm)
	}
	return res, nil
}

// Render writes the normalized-energy table and chart.
func (res Fig2aResult) Render(w io.Writer) {
	tb := report.NewTable("Fig. 2(a): normalized DRAM energy — pruning x approximate DRAM",
		"connectivity", "accurate DRAM (1.35V)", "approximate DRAM (1.025V)")
	for i := range res.Connectivity {
		tb.AddRow(report.Pct(res.Connectivity[i]), res.Accurate[i], res.Approximate[i])
	}
	tb.Render(w)
	ch := report.NewChart("combined benefit of pruning + approximate DRAM",
		"connectivity", "normalized DRAM energy")
	ch.Add("accurate 1.35V", res.Connectivity, res.Accurate)
	ch.Add("approx 1.025V", res.Connectivity, res.Approximate)
	ch.Render(w)
}

// Fig2bResult is the DRAM access energy per row-buffer condition
// (Fig. 2(b)) at nominal and reduced voltage.
type Fig2bResult struct {
	Conditions []string
	At1350     []float64
	At1025     []float64
	Savings    []float64
}

// Fig2b evaluates the access-condition energies.
func (r *Runner) Fig2b() Fig2bResult {
	res := Fig2bResult{}
	for _, c := range []dram.AccessClass{dram.AccessHit, dram.AccessMiss, dram.AccessConflict} {
		hi := r.F.Power.AccessEnergyNJ(c, voltscale.VNominal)
		lo := r.F.Power.AccessEnergyNJ(c, voltscale.V1025)
		res.Conditions = append(res.Conditions, c.String())
		res.At1350 = append(res.At1350, hi)
		res.At1025 = append(res.At1025, lo)
		res.Savings = append(res.Savings, 1-lo/hi)
	}
	return res
}

// Render writes the per-condition energy table.
func (res Fig2bResult) Render(w io.Writer) {
	tb := report.NewTable("Fig. 2(b): DRAM access energy per access condition",
		"condition", "1.350V [nJ]", "1.025V [nJ]", "saving")
	for i := range res.Conditions {
		tb.AddRow(res.Conditions[i], res.At1350[i], res.At1025[i], report.Pct(res.Savings[i]))
	}
	tb.Render(w)
}
