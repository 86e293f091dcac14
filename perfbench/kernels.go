package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sparkxd"
	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/mapping"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
)

// The kernel probe runs after a traced workload's timed loop. It times
// each public kernel call once more, in isolation, on the workload's own
// model and test set, and the workload multiplies the per-call times by
// the call counts it performed. Nothing inside the program is
// instrumented: the probe rebuilds what the SDK hides (the network from
// the model's checkpoint, the synthetic datasets, a framework with the
// SDK's defaults) from public functions.

// probe holds one workload's model and data, rebuilt from public APIs.
type probe struct {
	net         *snn.Network
	train, test *dataset.Dataset
	fw          *core.Framework
	weights     []float32
}

func newProbe(m *sparkxd.TrainedModel, trainN, testN int) (*probe, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("probe: encode model: %w", err)
	}
	var raw struct {
		Checkpoint *snn.Checkpoint `json:"checkpoint"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("probe: decode model: %w", err)
	}
	net, err := snn.FromCheckpoint(raw.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	// The SDK generates its synthetic sets from the flavour defaults with
	// only the sample budgets overridden; so does the probe.
	dcfg := dataset.DefaultConfig(dataset.MNISTLike)
	dcfg.Train, dcfg.Test = trainN, testN
	train, test, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	fw := core.NewFramework()
	fw.EvalWorkers = runtime.GOMAXPROCS(0)
	return &probe{net: net, train: train, test: test, fw: fw, weights: net.WeightsFlat()}, nil
}

// timeMS is the median wall time of f in milliseconds over at least
// three calls and at most 50, stopping once 200 ms have been spent.
func timeMS(f func() error) (float64, error) {
	var ds []float64
	var spent time.Duration
	for len(ds) < 3 || (spent < 200*time.Millisecond && len(ds) < 50) {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		spent += d
		ds = append(ds, float64(d)/1e6)
	}
	return median(ds), nil
}

// coderFor maps an SDK encoder name to its internal/coding encoder with
// default parameters (nil = the network's own rate encoder).
func coderFor(name sparkxd.Encoder) coding.Encoder {
	switch name {
	case sparkxd.EncoderRateDet:
		return coding.NewDeterministicRate()
	case sparkxd.EncoderTTFS:
		return coding.TTFS{}
	case sparkxd.EncoderRankOrder:
		return coding.NewRankOrder()
	case sparkxd.EncoderPhase:
		return coding.Phase{}
	case sparkxd.EncoderBurst:
		return coding.NewBurst()
	}
	return nil
}

func kindOf(m sparkxd.ErrorModel) errmodel.Kind {
	return []errmodel.Kind{errmodel.Model0, errmodel.Model1, errmodel.Model2, errmodel.Model3}[m]
}

func formatOf(bits int) quant.Format {
	if bits == 16 {
		return quant.FP16
	}
	return quant.FP32
}

// encodeMS times Network.EncodeDatasetWith on the test set with every
// worker, as the engine encodes; it also returns the encoded set.
func (p *probe) encodeMS(enc sparkxd.Encoder) (float64, *snn.EncodedSet, error) {
	var es *snn.EncodedSet
	ms, err := timeMS(func() error {
		var err error
		es, err = p.net.EncodeDatasetWith(context.Background(), p.test, coderFor(enc), rng.New(1), runtime.GOMAXPROCS(0))
		return err
	})
	return ms, es, err
}

// evaluateMS times one single-worker Evaluator.EvaluateWeightsEncoded
// (Phase A drive accumulation plus Phase B), as one sweep scenario runs.
func (p *probe) evaluateMS(enc sparkxd.Encoder, es *snn.EncodedSet) (float64, error) {
	ev := snn.NewEvaluatorWorkers(p.net, 1)
	ev.SetEncoder(coderFor(enc))
	return timeMS(func() error {
		_, err := ev.EvaluateWeightsEncoded(context.Background(), es, p.weights)
		return err
	})
}

// trainEpochMS times one Network.TrainEpochCtx on the training set.
func (p *probe) trainEpochMS() (float64, error) {
	net := p.net.Clone()
	i := 0
	return timeMS(func() error {
		i++
		return net.TrainEpochCtx(context.Background(), p.train, rng.New(uint64(i)))
	})
}

func (p *probe) profileMS(v float64) (float64, *errmodel.Profile, error) {
	var prof *errmodel.Profile
	ms, err := timeMS(func() error {
		var err error
		prof, err = p.fw.ProfileAt(v)
		return err
	})
	return ms, prof, err
}

func (p *probe) mapMS(bits int, prof *errmodel.Profile, ber float64) (float64, *mapping.Layout, error) {
	var layout *mapping.Layout
	ms, err := timeMS(func() error {
		var err error
		layout, _, err = p.fw.MapAdaptiveWithProfileIn(formatOf(bits), prof, len(p.weights), ber)
		return err
	})
	return ms, layout, err
}

// injectMS times Injector.Prepare and Injector.Inject for one error
// model on a layout holding the weight image in the given bitwidth.
func (p *probe) injectMS(kind errmodel.Kind, bits int, prof *errmodel.Profile, layout *mapping.Layout) (prepMS, injMS float64, err error) {
	format := formatOf(bits)
	img := make([]byte, format.ImageSize(len(p.weights), layout.UnitBytes()))
	if err := quant.Serialize(p.weights, format, img); err != nil {
		return 0, 0, err
	}
	inj := errmodel.NewInjector(kind, prof)
	if prepMS, err = timeMS(func() error { inj.Prepare(layout); return nil }); err != nil {
		return 0, 0, err
	}
	r := rng.New(9)
	injMS, err = timeMS(func() error { inj.Inject(img, layout, r); return nil })
	return prepMS, injMS, err
}

// roundtripMS times quant.Serialize plus quant.Deserialize of the weights.
func (p *probe) roundtripMS(bits int) (float64, error) {
	format := formatOf(bits)
	img := make([]byte, format.ImageSize(len(p.weights), p.fw.Geom.ColumnBytes))
	out := make([]float32, len(p.weights))
	return timeMS(func() error {
		if err := quant.Serialize(p.weights, format, img); err != nil {
			return err
		}
		return quant.Deserialize(img, format, out)
	})
}

func (p *probe) energyMS(layout *mapping.Layout, v float64) (float64, error) {
	return timeMS(func() error {
		_, err := p.fw.EvaluateEnergy(layout, v)
		return err
	})
}

// counter tallies kernel calls by key (an encoder, error model or
// bitwidth) so probe times can be weighted by the workload's own mix.
type counter map[string]float64

func (c counter) keys() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
