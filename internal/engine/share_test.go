package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/mapping"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
	"sparkxd/internal/voltscale"
)

// shareFixture is a briefly trained network — labelled neurons, so that
// storage format, pruning and encoder each move the accuracy of an
// otherwise unperturbed network — and its test set. Short presentations
// keep the 128 isolated runs cheap; the seed is one whose accuracies
// split along every axis, which the test asserts.
func shareFixture(t testing.TB) (*snn.Network, *dataset.Dataset) {
	t.Helper()
	netCfg := snn.DefaultConfig(20)
	netCfg.Steps = 30
	net, err := snn.New(netCfg, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = 40, 30
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.TrainEpoch(train, rng.New(5))
	net.AssignLabels(train, rng.New(6))
	return net, test
}

// TestSharedWorkMatchesIsolatedScenarios is the exactness contract of
// every cache the engine shares work through: a grid run must be
// byte-identical to running each of its scenarios as a one-scenario Run
// on a fresh engine, where nothing can be shared. The grid holds several
// groups of zero-flip scenarios whose accuracies differ along each axis
// of the zero-flip evaluation key, so a key that dropped an axis would
// hand one group another's accuracy and fail here.
func TestSharedWorkMatchesIsolatedScenarios(t *testing.T) {
	net, test := shareFixture(t)
	ctx := context.Background()
	// 128 scenarios in which sharing has something to do: nominal voltage
	// flips no bit at all, and every storage point (bitwidth, prune level)
	// and encoder splits the zero-flip scenarios into groups of their own.
	spec := Spec{
		Voltages:    []float64{voltscale.VNominal, voltscale.V1100},
		BERs:        []float64{1e-5, 1e-4},
		Kinds:       []errmodel.Kind{errmodel.Model0, errmodel.Model2},
		Policies:    []string{PolicyBaseline, PolicySparkXD},
		Bitwidths:   []int{0, 16},
		PruneLevels: []float64{0, 0.5},
		Encoders:    []EncoderAxis{{}, {Name: "ttfs", Coder: coding.TTFS{}}},
		Seed:        11,
		EvalSeed:    17,
		Workers:     4,
	}
	grid, err := New(core.NewFramework()).Run(ctx, net, test, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 128 {
		t.Fatalf("got %d results, want 128", len(grid))
	}

	scenarios := spec.Scenarios()
	byKey := make(map[string]Scenario, len(scenarios))
	for _, sc := range scenarios {
		byKey[sc.Key()] = sc
	}
	for _, got := range grid {
		sc := byKey[got.Key]
		one := spec
		one.Voltages, one.BERs = []float64{sc.Voltage}, []float64{sc.BER}
		one.Kinds, one.Policies = []errmodel.Kind{sc.Kind}, []string{sc.Policy}
		one.Bitwidths, one.PruneLevels = []int{sc.Bits}, []float64{sc.Prune}
		one.Encoders = []EncoderAxis{sc.Encoder}
		one.Workers = 1
		alone, err := New(core.NewFramework()).Run(ctx, net, test, one)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(alone[0])
		if string(a) != string(b) {
			t.Fatalf("shared and isolated runs diverge:\n%s\n---\n%s", a, b)
		}
	}

	// The zero-flip groups must be told apart by every axis of the key:
	// for each axis, some two groups differing in that axis alone have
	// different accuracies.
	type group struct {
		enc   string
		bits  int
		prune float64
	}
	acc := map[group]float64{}
	flipping := 0
	for _, r := range grid {
		if r.FlippedBits == 0 {
			acc[group{r.Encoder, r.Bitwidth, r.PruneLevel}] = r.Accuracy
		} else {
			flipping++
		}
	}
	if flipping == 0 {
		t.Fatal("no scenario flipped a bit; the grid must exercise unshared evaluations too")
	}
	if len(acc) != 8 {
		t.Fatalf("grid has %d zero-flip groups, want 8 (2 encoders x 2 bitwidths x 2 prune levels)", len(acc))
	}
	axes := map[string]func(group) group{
		"encoder":  func(g group) group { g.enc = map[string]string{"": "ttfs", "ttfs": ""}[g.enc]; return g },
		"bitwidth": func(g group) group { g.bits = 16 - g.bits; return g },
		"prune":    func(g group) group { g.prune = 0.5 - g.prune; return g },
	}
	for name, flip := range axes {
		split := false
		for g, a := range acc {
			if acc[flip(g)] != a {
				split = true
			}
		}
		if !split {
			t.Errorf("no two zero-flip groups differing only in %s have different accuracies: %v", name, acc)
		}
	}
}

// TestPlacementsAndEnergyShared: prep entries of different error models
// at one (voltage, policy, threshold, bitwidth) point hold the same
// layout, the placement cache holds one entry per distinct placement,
// and a scenario's energy is the replay of its layout at its voltage.
func TestPlacementsAndEnergyShared(t *testing.T) {
	net, test := testFixture(t)
	fw := core.NewFramework()
	e := New(fw)
	spec := gridSpec(4)
	res, err := e.Run(context.Background(), net, test, spec)
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline placement + 2 voltages x 3 thresholds of sparkxd ones;
	// preps stay per kind: 2 voltages x 2 kinds x (1 baseline + 3 sparkxd).
	if got := e.layouts.Len(); got != 7 {
		t.Errorf("layout cache holds %d entries, want 7: %v", got, e.layouts.Keys())
	}
	if got := e.prepared.Len(); got != 16 {
		t.Errorf("prep cache holds %d entries, want 16", got)
	}

	n := net.WeightCount()
	for _, pol := range spec.Policies {
		for _, bits := range []int{0, 16} {
			var layouts []*mapping.Layout
			for _, k := range spec.Kinds {
				sc := Scenario{Voltage: voltscale.V1100, BER: 1e-5, Kind: k, Policy: pol, Bits: bits}
				format, err := formatForBits(bits, fw.Format)
				if err != nil {
					t.Fatal(err)
				}
				profile, key, err := e.profileFor(sc, spec)
				if err != nil {
					t.Fatal(err)
				}
				p, err := e.prepFor(sc, spec, key, profile, n, format)
				if err != nil {
					t.Fatal(err)
				}
				layouts = append(layouts, p.layout)
			}
			if layouts[0] != layouts[1] {
				t.Errorf("%s/bw%d: error models hold different layouts", pol, bits)
			}
		}
	}

	for _, r := range res {
		var want core.EnergyResult
		switch r.Policy {
		case PolicyBaseline:
			layout, err := fw.LayoutForWeightsIn(quant.FP32, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = fw.EvaluateEnergy(layout, r.Voltage); err != nil {
				t.Fatal(err)
			}
		case PolicySparkXD:
			profile, err := fw.ProfileAt(r.Voltage)
			if err != nil {
				t.Fatal(err)
			}
			layout, _, err := fw.MapAdaptiveWithProfileIn(quant.FP32, profile, n, r.BER)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = fw.EvaluateEnergy(layout, r.Voltage); err != nil {
				t.Fatal(err)
			}
		}
		got := fmt.Sprint(r.EnergyMJ, r.HitRate)
		if exp := fmt.Sprint(want.TotalMJ(), want.Stats.HitRate()); got != exp {
			t.Errorf("%s: energy, hit rate = %s, replay gives %s", r.Key, got, exp)
		}
	}
}
