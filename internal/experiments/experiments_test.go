package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sparkxd/internal/dataset"
	"sparkxd/internal/sched"
)

// tinyRunner returns a runner with deliberately minimal budgets for tests.
func tinyRunner() *Runner {
	r := NewRunner(Options{Quick: true, Seed: 5})
	return r
}

func TestOptionsScaling(t *testing.T) {
	q := Options{Quick: true}
	f := Options{Quick: false}
	if len(q.Sizes()) >= len(f.Sizes()) {
		t.Error("quick mode must sweep fewer sizes")
	}
	if len(f.Sizes()) != 5 {
		t.Error("full mode must use the paper's five sizes")
	}
	if q.TrainN() >= f.TrainN() {
		t.Error("quick mode must train on fewer samples")
	}
	if len(f.BERs()) != 7 {
		t.Error("full mode must sweep seven BER decades")
	}
}

func TestDataCaching(t *testing.T) {
	r := tinyRunner()
	a1, b1, err := r.Data(dataset.MNISTLike)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, _ := r.Data(dataset.MNISTLike)
	if a1 != a2 || b1 != b2 {
		t.Error("datasets must be cached (same pointers)")
	}
	if a1.Len() != r.Opts.TrainN() || b1.Len() != r.Opts.TestN() {
		t.Error("dataset sizes must follow the options")
	}
}

func TestFig2bShape(t *testing.T) {
	r := tinyRunner()
	res := r.Fig2b()
	if len(res.Conditions) != 3 {
		t.Fatal("Fig 2(b) must cover hit/miss/conflict")
	}
	if !(res.At1350[0] < res.At1350[1] && res.At1350[1] < res.At1350[2]) {
		t.Error("hit < miss < conflict ordering violated")
	}
	for i, s := range res.Savings {
		if s < 0.30 || s > 0.44 {
			t.Errorf("condition %s saving %.1f%% outside the paper's 31-42%% band",
				res.Conditions[i], s*100)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "conflict") {
		t.Error("render missing rows")
	}
}

func TestFig2cShape(t *testing.T) {
	r := tinyRunner()
	res := r.Fig2c()
	if len(res.Voltage) < 10 {
		t.Fatal("sweep too sparse")
	}
	// Monotone non-increasing BER as voltage rises.
	for i := 1; i < len(res.BER); i++ {
		if res.BER[i] > res.BER[i-1]+1e-18 {
			t.Fatal("BER must fall as voltage rises")
		}
	}
	if res.BER[0] < 1e-3 {
		t.Error("BER at 1.025V should be ~1e-2")
	}
	if res.BER[len(res.BER)-1] != 0 {
		t.Error("BER at 1.35V must be 0")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("render empty")
	}
}

func TestFig2dShape(t *testing.T) {
	r := tinyRunner()
	res := r.Fig2d()
	if len(res.TimeNs) != len(res.VNominal) || len(res.TimeNs) != len(res.VReduced) {
		t.Fatal("waveform lengths mismatch")
	}
	for i := range res.TimeNs {
		if res.VReduced[i] > res.VNominal[i]+1e-12 {
			t.Fatal("reduced-voltage waveform must lie below nominal")
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "1.025V") {
		t.Error("render missing legend")
	}
}

func TestFig6Shape(t *testing.T) {
	r := tinyRunner()
	res := r.Fig6()
	if len(res.Voltages) != 6 {
		t.Fatal("Fig 6 must cover the six paper voltages")
	}
	// Timing grows as voltage falls (voltages are descending).
	for i := 1; i < len(res.Voltages); i++ {
		if res.TRCD[i] < res.TRCD[i-1] {
			t.Fatal("tRCD must grow as voltage falls")
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "tRCD") {
		t.Error("render missing timing table")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	r := tinyRunner()
	res := r.TableI()
	if len(res.Voltages) != 5 {
		t.Fatal("Table I must cover five voltages")
	}
	for i := range res.Voltages {
		if math.Abs(res.Model[i]-res.Paper[i]) > 0.005 {
			t.Errorf("at %.3fV: model %.2f%% vs paper %.2f%% (tol 0.5pp)",
				res.Voltages[i], res.Model[i]*100, res.Paper[i]*100)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render missing title")
	}
}

func TestFig1bShape(t *testing.T) {
	r := tinyRunner()
	res := r.Fig1b()
	if len(res.Platforms) != 3 {
		t.Fatal("Fig 1(b) must cover three platforms")
	}
	for i, p := range res.Platforms {
		f := res.Fractions[i]
		sum := f[0] + f[1] + f[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: fractions sum to %v", p, sum)
		}
		if f[2] < 0.50 || f[2] > 0.75 {
			t.Errorf("%s: memory share %.1f%% outside the 50-75%% band", p, f[2]*100)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "TrueNorth") {
		t.Error("render missing platforms")
	}
}

func TestFig12aShape(t *testing.T) {
	r := tinyRunner()
	res, err := r.Fig12a()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != len(r.Opts.Sizes()) || len(res.Voltages) != 5 {
		t.Fatal("matrix shape wrong")
	}
	for i := range res.Sizes {
		// Energy falls monotonically with voltage for every size.
		prev := res.BaselineMJ[i]
		for j := range res.Voltages {
			if res.SparkXDMJ[i][j] >= prev {
				t.Fatalf("N%d: energy must fall with voltage", res.Sizes[i])
			}
			prev = res.SparkXDMJ[i][j]
		}
	}
	// Larger networks must cost more energy.
	for i := 1; i < len(res.Sizes); i++ {
		if res.BaselineMJ[i] <= res.BaselineMJ[i-1] {
			t.Error("baseline energy must grow with network size")
		}
	}
	// Mean savings within a few points of the paper's (the calibration
	// claim of Fig. 12(a): ~39.5% at 1.025V).
	for j := range res.Voltages {
		if math.Abs(res.MeanSavings[j]-res.PaperMeanSavings[j]) > 0.06 {
			t.Errorf("at %.3fV: savings %.1f%% vs paper %.1f%% (tol 6pp)",
				res.Voltages[j], res.MeanSavings[j]*100, res.PaperMeanSavings[j]*100)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 12(a)") {
		t.Error("render missing title")
	}
}

func TestFig12bShape(t *testing.T) {
	r := tinyRunner()
	res, err := r.Fig12b()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Speedup {
		if s < 0.99 {
			t.Errorf("N%d: SparkXD mapping slower than baseline (%.3fx)", res.Sizes[i], s)
		}
		if s > 1.5 {
			t.Errorf("N%d: speed-up %.3fx implausibly high (paper: ~1.02x)", res.Sizes[i], s)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "speed-up") {
		t.Error("render missing")
	}
}

func TestFig2aShape(t *testing.T) {
	r := tinyRunner()
	res, err := r.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Connectivity) != 6 {
		t.Fatal("connectivity sweep must have 6 points")
	}
	if math.Abs(res.Accurate[0]-1) > 1e-9 {
		t.Error("accurate @100% must normalize to 1")
	}
	for i := range res.Connectivity {
		// Approximate DRAM always beats accurate at equal connectivity.
		if res.Approximate[i] >= res.Accurate[i] {
			t.Errorf("at %.0f%%: approx (%.3f) must beat accurate (%.3f)",
				res.Connectivity[i]*100, res.Approximate[i], res.Accurate[i])
		}
		// Energy falls with connectivity.
		if i > 0 && res.Accurate[i] >= res.Accurate[i-1] {
			t.Error("pruning must reduce energy")
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("render empty")
	}
}

func TestFig1aTrendAndFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments skipped in -short mode")
	}
	r := tinyRunner()
	res, err := r.Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neurons) != 2 {
		t.Fatal("Fig 1(a) must compare two sizes")
	}
	if res.Accuracy[1] < res.Accuracy[0]-0.05 {
		t.Errorf("large net (%.2f) should not be much worse than small (%.2f)",
			res.Accuracy[1], res.Accuracy[0])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "neurons") {
		t.Error("render missing")
	}
}

func TestCurveSetAndFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments skipped in -short mode")
	}
	// Use a truly tiny configuration to keep the test fast.
	r := NewRunner(Options{Quick: true, Seed: 5})
	cs, err := r.curveSet(60, dataset.MNISTLike)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.BaselineApprox) != len(cs.BERs) || len(cs.Improved) != len(cs.BERs) {
		t.Fatal("curve lengths wrong")
	}
	if cs.BaselineAcc < 0.3 {
		t.Errorf("baseline accuracy %.2f too low for the MNIST flavour", cs.BaselineAcc)
	}
	var buf bytes.Buffer
	cs.Render(&buf)
	if !strings.Contains(buf.String(), "SparkXD") {
		t.Error("render missing")
	}
}

func TestPairCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	r := tinyRunner()
	a, err := r.Pair(60, dataset.MNISTLike)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Pair(60, dataset.MNISTLike)
	if a != b {
		t.Error("pairs must be cached")
	}
}

func TestParallelFor(t *testing.T) {
	r := tinyRunner()
	n := 50
	hit := make([]bool, n)
	err := r.parallelFor(n, func(i int) error {
		hit[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d not visited", i)
		}
	}
	sentinel := r.parallelFor(10, func(i int) error {
		if i == 3 {
			return errSentinel
		}
		return nil
	})
	if sentinel != errSentinel {
		t.Errorf("lowest-index error must propagate, got %v", sentinel)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig2a", "fig2b", "fig2c", "fig2d",
		"fig6", "fig8", "fig11", "fig12a", "fig12b", "table1",
		"ablation-errmodels", "ablation-mapping", "ablation-coding"}
	entries := Entries()
	if len(entries) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Errorf("entry %d = %q, want %q (suite order)", i, e.Name, want[i])
		}
		if e.Cost <= 0 {
			t.Errorf("entry %q has no cost hint", e.Name)
		}
		if e.Desc == "" {
			t.Errorf("entry %q has no description", e.Name)
		}
		if _, ok := Lookup(e.Name); !ok {
			t.Errorf("Lookup(%q) failed", e.Name)
		}
	}
	r := tinyRunner()
	if jobs := r.Jobs(); len(jobs) != len(entries) {
		t.Fatalf("Jobs() wraps %d jobs, want %d", len(jobs), len(entries))
	}
}

// The non-training experiment jobs must render byte-identically whether
// the scheduler runs them on one worker or eight (the training-heavy
// jobs are covered by the CI determinism cross-check, which diffs the
// full suite's JSON records across worker counts).
func TestScheduledJobsDeterministicAcrossWorkers(t *testing.T) {
	cheap := map[string]bool{"fig1b": true, "fig2b": true, "fig2c": true,
		"fig2d": true, "fig6": true, "table1": true, "ablation-mapping": true}
	render := func(workers int) map[string]string {
		r := NewRunner(Options{Quick: true, Seed: 5, Workers: workers})
		s, err := sched.New(sched.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range r.Jobs() {
			if cheap[j.Name] {
				if err := s.Add(j); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(reports))
		for _, rep := range reports {
			var buf bytes.Buffer
			rep.Value.(Result).Render(&buf)
			out[rep.Name] = buf.String()
		}
		return out
	}
	serial := render(1)
	if len(serial) != len(cheap) {
		t.Fatalf("ran %d jobs, want %d", len(serial), len(cheap))
	}
	parallel := render(8)
	for name, text := range serial {
		if parallel[name] != text {
			t.Errorf("job %q rendered differently at workers=8", name)
		}
	}
}

func TestCacheAccounting(t *testing.T) {
	r := tinyRunner()
	if _, _, err := r.Data(dataset.MNISTLike); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Data(dataset.MNISTLike); err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("after two identical Data calls: hits=%d misses=%d, want 1/1", hits, misses)
	}
}
