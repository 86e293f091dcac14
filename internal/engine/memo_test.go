package engine

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/sched"
	"sparkxd/internal/snn"
)

// memoSpec is a small uniform grid with zero-flip scenarios (BER 0),
// whose accuracies come from the memo, and flipped ones, on two storage
// points so that the memo holds a pruned master and two clean sets.
func memoSpec() Spec {
	return Spec{
		Uniform:     true,
		BERs:        []float64{0, 1e-3},
		Kinds:       []errmodel.Kind{errmodel.Model0},
		Policies:    []string{PolicyBaseline},
		PruneLevels: []float64{0, 0.5},
		Seed:        3,
		EvalSeed:    5,
		Workers:     2,
	}
}

// runReport runs spec on e and returns the report as JSON.
func runReport(t *testing.T, e *Engine, net *snn.Network, test *dataset.Dataset, spec Spec) string {
	t.Helper()
	res, err := e.Run(context.Background(), net, test, spec)
	if err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, res)
}

func reportJSON(t *testing.T, res []Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// zeroFlipJSON is the JSON of a report's zero-flip results, whose
// accuracies the memo keeps.
func zeroFlipJSON(t *testing.T, report string) string {
	t.Helper()
	var res, zero []Result
	if err := json.Unmarshal([]byte(report), &res); err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.FlippedBits == 0 {
			zero = append(zero, r)
		}
	}
	return reportJSON(t, zero)
}

// TestMemoFollowsInPlaceChanges changes what a warm engine's memo
// entries were built from, in place, and checks every report equals a
// fresh engine's. The engine sweeps twice before the change, so that
// the second-sight rule keeps the model's entries; a memo key that did
// not follow the change would then serve the old model's or test set's
// work.
func TestMemoFollowsInPlaceChanges(t *testing.T) {
	cases := []struct {
		name   string
		change func(net *snn.Network, test *dataset.Dataset, spec *Spec)
	}{
		{"weight", func(net *snn.Network, test *dataset.Dataset, _ *Spec) { net.W.Data[heavyWeight(net, test)] = 2 }},
		{"threshold", func(net *snn.Network, _ *dataset.Dataset, _ *Spec) {
			net.Pool.Theta[busiestNeuron(net)] = -net.Cfg.LIF.VTh // fires at every step
		}},
		{"assignment", func(net *snn.Network, _ *dataset.Dataset, _ *Spec) {
			j := busiestNeuron(net)
			net.Assign[j] = (net.Assign[j] + 1) % dataset.NumClasses
		}},
		{"test labels", func(_ *snn.Network, test *dataset.Dataset, _ *Spec) {
			for i, c := range test.Labels {
				test.Labels[i] = (c + 1) % dataset.NumClasses
			}
		}},
		{"test image", func(_ *snn.Network, test *dataset.Dataset, _ *Spec) {
			for i := range test.Images[0] {
				test.Images[0][i] = 255 - test.Images[0][i]
			}
		}},
		{"EvalSeed", func(_ *snn.Network, _ *dataset.Dataset, spec *Spec) { spec.EvalSeed++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, test := shareFixture(t)
			spec := memoSpec()
			e := New(core.NewFramework())
			before := runReport(t, e, net, test, spec)
			runReport(t, e, net, test, spec)
			tc.change(net, test, &spec)
			want := runReport(t, New(core.NewFramework()), net, test, spec)
			if zeroFlipJSON(t, want) == zeroFlipJSON(t, before) {
				t.Fatal("the change leaves every zero-flip accuracy as it was, so a stale entry could not show")
			}
			if got := runReport(t, e, net, test, spec); got != want {
				t.Errorf("warm engine after the change:\n%s\nfresh engine:\n%s", got, want)
			}
		})
	}
}

// TestMemoEncodedSetOutlivesItsDataset: encoded sets are keyed by the
// test set's content, so a Run on an equal copy of a test set reuses the
// sets another Run built from the original; changing the original
// afterwards must not change what the copy's Run evaluates.
func TestMemoEncodedSetOutlivesItsDataset(t *testing.T) {
	net, test := shareFixture(t)
	spec := memoSpec()
	twin := &dataset.Dataset{Name: test.Name, Images: test.Images, Labels: append([]uint8(nil), test.Labels...)}
	want := runReport(t, New(core.NewFramework()), net, twin, spec)
	e := New(core.NewFramework())
	runReport(t, e, net, test, spec)
	for i, c := range test.Labels {
		test.Labels[i] = (c + 1) % dataset.NumClasses
	}
	if runReport(t, New(core.NewFramework()), net, test, spec) == want {
		t.Fatal("shifting the labels leaves the report as it was")
	}
	if got := runReport(t, e, net, twin, spec); got != want {
		t.Errorf("the copy's Run read the changed original:\n%s\nwant\n%s", got, want)
	}
}

// heavyWeight returns the index of the weight from the test set's
// brightest pixel to the quietest neuron, so that raising it moves the
// report.
func heavyWeight(net *snn.Network, test *dataset.Dataset) int {
	sums := make([]int, net.Cfg.Inputs)
	for _, img := range test.Images {
		for i, v := range img {
			sums[i] += int(v)
		}
	}
	pixel := 0
	for i, s := range sums {
		if s > sums[pixel] {
			pixel = i
		}
	}
	quiet := 0
	for j, th := range net.Pool.Theta {
		if th < net.Pool.Theta[quiet] {
			quiet = j
		}
	}
	return pixel*net.Cfg.Neurons + quiet
}

// busiestNeuron returns the neuron with the largest adaptive threshold,
// the one that fired most in training.
func busiestNeuron(net *snn.Network) int {
	best := 0
	for j, th := range net.Pool.Theta {
		if th > net.Pool.Theta[best] {
			best = j
		}
	}
	return best
}

// TestMemoEvictionKeepsReportsIdentical forces evictions with a budget
// that holds about one clean set: reports stay byte-identical whether
// the grid runs cold, warm, or over entries the budget evicted.
func TestMemoEvictionKeepsReportsIdentical(t *testing.T) {
	net, test := shareFixture(t)
	spec := memoSpec()
	spec.Encoders = []EncoderAxis{{}, {Name: "ttfs", Coder: coding.TTFS{}}}
	cold := runReport(t, New(core.NewFramework()), net, test, spec)

	warm := New(core.NewFramework())
	tiny := New(core.NewFramework())
	oneClean := 8 * int64(net.WeightCount()) // an FP32 image and its load
	tiny.memo = sched.NewBudgetCache(oneClean+oneClean/4, memoBytes)
	for i := 0; i < 3; i++ {
		if got := runReport(t, warm, net, test, spec); got != cold {
			t.Fatalf("warm run %d differs from the cold run:\n%s\n%s", i, got, cold)
		}
		if got := runReport(t, tiny, net, test, spec); got != cold {
			t.Fatalf("run %d under a tiny budget differs from the cold run:\n%s\n%s", i, got, cold)
		}
	}
	if _, _, ev := tiny.MemoStats(); ev == 0 {
		t.Fatal("the tiny budget evicted nothing")
	}
	if _, _, ev := warm.MemoStats(); ev != 0 {
		t.Fatalf("the default budget evicted %d values of a small grid", ev)
	}
}

// TestMemoSecondSight: a model's first Run keeps none of its per-model
// entries (only the test set's encoded sets stay), its second Run keeps
// them, and its third computes nothing new.
func TestMemoSecondSight(t *testing.T) {
	net, test := shareFixture(t)
	spec := memoSpec()
	e := New(core.NewFramework())
	model := modelDigest(net)
	perModel := func() (keys []string) {
		for _, k := range e.memo.Keys() {
			if strings.HasPrefix(k, model+"/") {
				keys = append(keys, k)
			}
		}
		return keys
	}

	runReport(t, e, net, test, spec)
	if keys := perModel(); len(keys) != 0 {
		t.Fatalf("after the model's first Run the memo keeps %v", keys)
	}
	for _, k := range e.memo.Keys() {
		v, err := e.memo.GetOrCompute(k, func() (any, error) { panic("entry " + k + " vanished") })
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(*snn.EncodedSet); !ok {
			t.Fatalf("after the model's first Run the memo keeps %q, a %T", k, v)
		}
	}

	runReport(t, e, net, test, spec)
	if len(perModel()) == 0 {
		t.Fatal("after the model's second Run the memo keeps none of its entries")
	}
	_, misses, _ := e.MemoStats()
	runReport(t, e, net, test, spec)
	if _, m, _ := e.MemoStats(); m != misses {
		t.Fatalf("the model's third Run missed the memo %d times", m-misses)
	}
}

// TestMemoConcurrentRuns sweeps two models on one engine from several
// goroutines at once, so Runs share in-flight entries and one Run's
// second-sight drop lands while another Run of the same model is
// working: every report must still equal a fresh engine's.
func TestMemoConcurrentRuns(t *testing.T) {
	net, test := shareFixture(t)
	other := net.Clone()
	other.Pool.Theta[busiestNeuron(other)] = -other.Cfg.LIF.VTh
	spec := memoSpec()
	nets := []*snn.Network{net, other}
	want := []string{
		runReport(t, New(core.NewFramework()), net, test, spec),
		runReport(t, New(core.NewFramework()), other, test, spec),
	}
	e := New(core.NewFramework())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m := (g + i) % 2
				res, err := e.Run(context.Background(), nets[m], test, spec)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Error(err)
					return
				}
				if string(b) != want[m] {
					t.Errorf("goroutine %d, Run %d: model %d's report differs from a fresh engine's", g, i, m)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoWaiterOutlivesAnotherRunsCancellation: a Run waiting on an
// entry that another Run's cancelled context failed computes it under
// its own live context instead of failing.
func TestMemoWaiterOutlivesAnotherRunsCancellation(t *testing.T) {
	e := New(core.NewFramework())
	cancelled, cancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = e.memoGet(cancelled, "k", func() (any, error) {
			close(started)
			<-release
			return nil, cancelled.Err()
		})
	}()
	<-started
	type result struct {
		v   any
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := e.memoGet(context.Background(), "k", func() (any, error) { return 0.5, nil })
		got <- result{v, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if hits, _, _ := e.MemoStats(); hits == 1 {
			break // the second caller waits on the first one's entry
		}
		if time.Now().After(deadline) {
			t.Fatal("the second caller never joined the in-flight entry")
		}
	}
	cancel()
	close(release)
	wg.Wait()
	if r := <-got; r.err != nil || r.v != 0.5 {
		t.Fatalf("waiter got %v, %v; want 0.5 computed under its own context", r.v, r.err)
	}
}

// TestMemoTellsRateCodersApart: two networks that differ only in their
// rate coder's MaxProb, by less than three significant digits, must not
// share encoded test sets or zero-flip accuracies. Each is swept twice on
// one warm engine, and every report must equal a fresh engine's.
func TestMemoTellsRateCodersApart(t *testing.T) {
	base, test := shareFixture(t)
	spec := memoSpec()
	var nets []*snn.Network
	for _, p := range []float64{0.12, 0.1204} {
		net := base.Clone()
		net.Cfg.Encoder = coding.Rate{MaxProb: p}
		nets = append(nets, net)
	}
	want := make([]string, len(nets))
	for i, net := range nets {
		want[i] = runReport(t, New(core.NewFramework()), net, test, spec)
	}
	if want[0] == want[1] {
		t.Fatal("the two coders give one report, so a shared entry could not show")
	}
	e := New(core.NewFramework())
	for pass := 0; pass < 2; pass++ {
		for i, net := range nets {
			if got := runReport(t, e, net, test, spec); got != want[i] {
				t.Errorf("pass %d, MaxProb %v: warm engine\n%s\nfresh engine\n%s", pass, net.Cfg.Encoder.(coding.Rate).MaxProb, got, want[i])
			}
		}
	}
}
