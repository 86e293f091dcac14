package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"sparkxd"
)

func TestSweepGridsFollowTheSeed(t *testing.T) {
	a, b, c := newSweepGen(1), newSweepGen(1), newSweepGen(2)
	differ := false
	for i := 0; i < 8; i++ {
		ga, gb, gc := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("grid %d differs for one seed:\n%+v\n%+v", i, ga, gb)
		}
		differ = differ || !reflect.DeepEqual(ga, gc)
		n := len(ga.Voltages) * len(ga.BERs) * len(ga.ErrorModels) * len(ga.Policies) *
			len(ga.Bitwidths) * len(ga.PruneLevels) * len(ga.Encoders)
		if n != sweepGridSize {
			t.Fatalf("grid %d has %d scenarios, want %d", i, n, sweepGridSize)
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 drew the same grids")
	}
}

func TestPipelineSeedsFollowTheSeed(t *testing.T) {
	a, b, c := newRand(5, 1), newRand(5, 1), newRand(6, 1)
	for i := 0; i < 8; i++ {
		if x, y, z := nextPipelineSeed(a), nextPipelineSeed(b), nextPipelineSeed(c); x != y || x == z {
			t.Fatalf("op %d: seeds %d, %d (same run seed), %d (other run seed)", i, x, y, z)
		}
	}
}

func TestScheduleFollowsTheSeed(t *testing.T) {
	window := 20 * time.Second
	a, err := serviceSchedule(3, 4.5, window)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serviceSchedule(3, 4.5, window)
	c, _ := serviceSchedule(4, 4.5, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) != 90 {
		t.Fatalf("%d submissions, want 4.5/s x 20 s = 90", len(a))
	}
	for i, op := range a {
		if op.Due < 0 || op.Due >= window || (i > 0 && op.Due < a[i-1].Due) {
			t.Fatalf("submission %d due at %v: outside the window or out of order", i, op.Due)
		}
	}
}

// TestScheduleShares checks the mix of a long schedule against its
// targets: a third reused fingerprints and a tenth exact resubmissions
// (each within 0.04), a third pipeline jobs (within 0.04), every fresh
// job new, and every resubmission a copy of an earlier job.
func TestScheduleShares(t *testing.T) {
	ops, err := serviceSchedule(9, 150, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]float64{}
	seen := map[string]sparkxd.JobSpec{}
	pipelines := 0.0
	for i, op := range ops {
		count[op.Class]++
		if op.Spec.Kind == sparkxd.JobPipeline {
			pipelines++
		}
		id, err := op.Spec.ID()
		if err != nil || id != op.ID {
			t.Fatalf("op %d: ID %q, spec hashes to %q (%v)", i, op.ID, id, err)
		}
		orig, ok := seen[id]
		switch {
		case op.Class == classDup && (!ok || !reflect.DeepEqual(orig, op.Spec)):
			t.Fatalf("op %d resubmits a spec no earlier op submitted", i)
		case op.Class != classDup && ok:
			t.Fatalf("op %d (%s) repeats an earlier job", i, op.Class)
		}
		seen[id] = op.Spec
	}
	n := float64(len(ops))
	for _, c := range []struct {
		name       string
		got, share float64
	}{
		{classDup, count[classDup] / n, dupShare},
		{classReuse, count[classReuse] / n, reuseShare},
		{"pipeline", pipelines / n, 1.0 / 3},
	} {
		if math.Abs(c.got-c.share) > 0.04 {
			t.Errorf("%s share %.3f, want %.3f +- 0.04", c.name, c.got, c.share)
		}
	}
}

func digest(t *testing.T, v any) [32]byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestSweepOutputFollowsTheSeed runs a seed's first grid on two fresh
// small Systems and compares the reports byte for byte.
func TestSweepOutputFollowsTheSeed(t *testing.T) {
	ctx := context.Background()
	run := func() [32]byte {
		sys, err := sparkxd.New(sparkxd.WithNeurons(20), sparkxd.WithSampleBudget(40, 16),
			sparkxd.WithBaseEpochs(1), sparkxd.WithBERSchedule(1e-6, 1e-4))
		if err != nil {
			t.Fatal(err)
		}
		p := sys.Pipeline()
		if _, err := p.Train(ctx); err != nil {
			t.Fatal(err)
		}
		rep, err := p.Sweep(ctx, newSweepGen(7).next())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSweep(rep); err != nil {
			t.Fatal(err)
		}
		return digest(t, rep)
	}
	if run() != run() {
		t.Fatal("one seed gave two sweep reports")
	}
}

// TestPipelineOutputFollowsTheSeed runs a seed's first pipeline twice,
// at a small size, and compares every artifact byte for byte.
func TestPipelineOutputFollowsTheSeed(t *testing.T) {
	run := func() [32]byte {
		sys, err := sparkxd.New(sparkxd.WithNeurons(20), sparkxd.WithSampleBudget(40, 16),
			sparkxd.WithBaseEpochs(1), sparkxd.WithSeed(nextPipelineSeed(newRand(7, 1))))
		if err != nil {
			t.Fatal(err)
		}
		p := sys.Pipeline()
		if err := pipelineStages(&runCtx{}, 0, p); err != nil {
			t.Fatal(err)
		}
		if err := checkPipeline(p); err != nil {
			t.Fatal(err)
		}
		return digest(t, []any{p.Baseline, p.Improved, p.Tolerance, p.Placement, p.Evaluation, p.Energy})
	}
	if run() != run() {
		t.Fatal("one seed gave two pipelines")
	}
}
