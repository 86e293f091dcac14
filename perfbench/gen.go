package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"sparkxd"
)

// The seed is the only source of inputs: every workload draws its
// operations from a PCG stream seeded by --seed, so the same seed gives
// the same operation list and send schedule on every machine.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// berPool is the finite pool of tolerance thresholds grids draw from:
// eight log-spaced BERs, 1e-9 .. 1e-2.
func berPool() []float64 {
	out := make([]float64, 8)
	for i := range out {
		out[i] = math.Pow(10, float64(i-9))
	}
	return out
}

// pick draws k distinct elements of pool, in pool order.
func pick[T any](r *rand.Rand, pool []T, k int) []T {
	idx := r.Perm(len(pool))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// sweepGridSize is the fixed scenario count of every generated grid:
// 1 voltage x 2 BERs x 2 error models x 2 policies x 5 encoders, at one
// bitwidth and one prune level.
const sweepGridSize = 40

// sweepEncoders is the timed encoder pool; every grid sweeps all of it,
// so encoders, whose costs differ by half, weigh the same in every
// operation. Phase coding is left out: its bit-plane trains make a
// scenario about six times dearer than any other encoder's. Set-up still
// encodes the test set with it.
func sweepEncoders() []sparkxd.Encoder {
	return []sparkxd.Encoder{sparkxd.EncoderRate, sparkxd.EncoderRateDet, sparkxd.EncoderTTFS,
		sparkxd.EncoderRankOrder, sparkxd.EncoderBurst}
}

// storage is one (bitwidth, prune level) point of a grid.
type storage struct {
	bits  int
	prune float64
}

// sweepGen draws sweep grids. The storage point is stratified: each
// block of four consecutive grids visits {32, 16} x {0, 0.5} once, in a
// seed-drawn order. Voltage, BERs and error models are drawn per grid
// from the paper's pools.
type sweepGen struct {
	r     *rand.Rand
	block []storage
}

func newSweepGen(seed uint64) *sweepGen { return &sweepGen{r: newRand(seed, 1)} }

func (g *sweepGen) next() sparkxd.SweepSpec {
	if len(g.block) == 0 {
		g.block = []storage{{32, 0}, {32, 0.5}, {16, 0}, {16, 0.5}}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	st := g.block[0]
	g.block = g.block[1:]
	models := []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelBitline,
		sparkxd.ErrorModelWordline, sparkxd.ErrorModelDataDependent}
	return sparkxd.SweepSpec{
		Voltages:    pick(g.r, sparkxd.PaperVoltages(), 1),
		BERs:        pick(g.r, berPool(), 2),
		ErrorModels: pick(g.r, models, 2),
		Policies:    []sparkxd.Policy{sparkxd.PolicyBaseline, sparkxd.PolicySparkXD},
		Bitwidths:   []int{st.bits},
		PruneLevels: []float64{st.prune},
		Encoders:    sweepEncoders(),
	}
}

// sweepWarmups are the set-up grids of the sweep workload: one encodes
// the test set with every encoder, one derives the device profile and
// baseline placement of every (voltage, error model, bitwidth) point.
// The timed loop then reuses those and derives only SparkXD placements.
func sweepWarmups() []sparkxd.SweepSpec {
	var encoders []sparkxd.Encoder
	for _, n := range sparkxd.EncoderNames() {
		encoders = append(encoders, sparkxd.Encoder(n))
	}
	return []sparkxd.SweepSpec{
		{
			Voltages: []float64{sparkxd.V1025},
			BERs:     []float64{1e-5},
			Policies: []sparkxd.Policy{sparkxd.PolicyBaseline},
			Encoders: encoders,
		},
		{
			Voltages: sparkxd.PaperVoltages(),
			BERs:     []float64{1e-5},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelBitline,
				sparkxd.ErrorModelWordline, sparkxd.ErrorModelDataDependent},
			Policies:  []sparkxd.Policy{sparkxd.PolicyBaseline},
			Bitwidths: []int{32, 16},
		},
	}
}

// nextPipelineSeed draws the WithSeed value of one pipeline operation.
func nextPipelineSeed(r *rand.Rand) uint64 { return r.Uint64() | 1 }

// Job classes of the service mix.
const (
	classDistinct = "distinct" // a fresh configuration: warm-System miss
	classReuse    = "reuse"    // one of reusePool fingerprints: warm-System hit
	classDup      = "dup"      // an earlier spec resubmitted: idempotent dedup
)

// Target shares of the service mix; the rest is classDistinct.
const (
	dupShare   = 0.10
	reuseShare = 1.0 / 3
	reusePool  = 4
)

// jobOp is one scheduled submission of the open-loop service generator.
type jobOp struct {
	Due   time.Duration
	Spec  sparkxd.JobSpec
	Class string
	// ID is the content-addressed job ID the service must answer with; a
	// dup carries the ID of the spec it repeats.
	ID string
}

// tinyConfig is loadgen's job shape: small enough that admission,
// queueing, dispatch and the store take a visible share of each job.
func tinyConfig(seed uint64) sparkxd.ConfigSpec {
	return sparkxd.ConfigSpec{
		Neurons:      20,
		TrainSamples: 20,
		TestSamples:  10,
		BaseEpochs:   1,
		BERSchedule:  []float64{1e-5},
		Seed:         seed,
	}
}

// tinyJob builds a pipeline-train job (one in three) or a 1-4 scenario
// sweep job. A sweep job trains first, so it takes about three times as
// long; with an even split the median job would sit in the gap between
// the two kinds and jump between them from run to run.
func tinyJob(r *rand.Rand, cfg sparkxd.ConfigSpec) sparkxd.JobSpec {
	if r.IntN(3) == 0 {
		return sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: cfg}
	}
	return sparkxd.JobSpec{Kind: sparkxd.JobSweep, Config: cfg, Sweep: &sparkxd.SweepSpec{
		Voltages:    pick(r, sparkxd.ReducedVoltages(), 1),
		BERs:        pick(r, berPool(), 1+r.IntN(4)),
		ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
		Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
	}}
}

// distinctSeed draws a configuration seed outside the reuse pool.
func distinctSeed(r *rand.Rand) uint64 { return r.Uint64() | 1<<63 }

// serviceSchedule draws n = rate x window open-loop submissions. Send
// times are the order statistics of n uniform draws over the window,
// which is a Poisson process conditioned on n arrivals: the offered rate
// is exact while the gaps stay exponential.
func serviceSchedule(seed uint64, rate float64, window time.Duration) ([]jobOp, error) {
	r := newRand(seed, 3)
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = r.Float64() * float64(window)
	}
	sort.Float64s(dues)
	ops := make([]jobOp, 0, n)
	used := make(map[string]bool)
	var originals []int
	for i := 0; i < n; i++ {
		op := jobOp{Due: time.Duration(dues[i])}
		u := r.Float64()
		switch {
		case u < dupShare && len(originals) > 0:
			orig := ops[originals[r.IntN(len(originals))]]
			op.Spec, op.ID, op.Class = orig.Spec, orig.ID, classDup
			ops = append(ops, op)
			continue
		case u < dupShare+reuseShare:
			op.Class = classReuse
			op.Spec = tinyJob(r, tinyConfig(uint64(1+r.IntN(reusePool))))
		default:
			op.Class = classDistinct
			op.Spec = tinyJob(r, tinyConfig(distinctSeed(r)))
		}
		// A fresh draw must be a new job: a reused fingerprint can repeat
		// a job, so the priority (part of the job ID, not of the
		// fingerprint) is redrawn until the ID is unused; a fingerprint
		// whose jobs are all taken yields a distinct job instead.
		for attempt := 0; ; attempt++ {
			if attempt == 64 {
				op.Class = classDistinct
				op.Spec = tinyJob(r, tinyConfig(distinctSeed(r)))
			}
			id, err := op.Spec.ID()
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			if !used[id] {
				used[id], op.ID = true, id
				break
			}
			op.Spec.Priority = r.IntN(sparkxd.MaxPriority-sparkxd.MinPriority+1) + sparkxd.MinPriority
		}
		originals = append(originals, len(ops))
		ops = append(ops, op)
	}
	return ops, nil
}

// warmupJobs are the set-up jobs, run one at a time before the timed
// schedule: four of each kind, on configurations the schedule never uses.
func warmupJobs(seed uint64) []sparkxd.JobSpec {
	r := newRand(seed, 4)
	var out []sparkxd.JobSpec
	for i := 0; i < 4; i++ {
		cfg := tinyConfig(distinctSeed(r))
		out = append(out,
			sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: cfg},
			sparkxd.JobSpec{Kind: sparkxd.JobSweep, Config: cfg, Sweep: &sparkxd.SweepSpec{
				Voltages: []float64{sparkxd.V1100}, BERs: []float64{1e-5},
			}})
	}
	return out
}
