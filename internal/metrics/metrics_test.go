package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "jobs")
	g := r.NewGauge("queue_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	out := render(t, r)
	want := "# HELP jobs_total jobs\n# TYPE jobs_total counter\njobs_total 5\n" +
		"# HELP queue_depth depth\n# TYPE queue_depth gauge\nqueue_depth 5\n"
	if out != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", out, want)
	}
}

// TestDeterministicOrdering pins the sort contract: families by name,
// series by label values — two scrapes of the same state are
// byte-identical.
func TestDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("ops_total", "ops", "op", "outcome")
	// Create children in a deliberately scrambled order.
	v.With("put", "ok").Add(2)
	v.With("get", "err").Inc()
	v.With("get", "ok").Add(9)
	r.NewGauge("a_first", "sorts before ops_total")
	out1 := render(t, r)
	out2 := render(t, r)
	if out1 != out2 {
		t.Fatalf("two scrapes differ:\n%s\nvs\n%s", out1, out2)
	}
	want := "# HELP a_first sorts before ops_total\n# TYPE a_first gauge\na_first 0\n" +
		"# HELP ops_total ops\n# TYPE ops_total counter\n" +
		`ops_total{op="get",outcome="err"} 1` + "\n" +
		`ops_total{op="get",outcome="ok"} 9` + "\n" +
		`ops_total{op="put",outcome="ok"} 2` + "\n"
	if out1 != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", out1, want)
	}
}

// Several registries render as one exposition, families sorted by name
// across all of them (a coordinator plus its in-process worker).
func TestMergedRegistriesSortAcross(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.NewGauge("c_gauge", "")
	b.NewGauge("b_gauge", "")
	a.NewGauge("a_gauge", "")
	var sb strings.Builder
	if err := WritePrometheus(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_gauge gauge\na_gauge 0\n# TYPE b_gauge gauge\nb_gauge 0\n# TYPE c_gauge gauge\nc_gauge 0\n"
	if got := sb.String(); got != want {
		t.Fatalf("merged exposition:\n got: %q\nwant: %q", got, want)
	}
}

func TestVecReturnsSameChild(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("x_total", "", "k")
	a, b := v.With("v"), v.With("v")
	if a != b {
		t.Fatal("With with equal labels returned distinct counters")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("lat_seconds", "latency", []float64{0.1, 1, 10}, "route").With("submit")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	out := render(t, r)
	want := "# HELP lat_seconds latency\n# TYPE lat_seconds histogram\n" +
		`lat_seconds_bucket{route="submit",le="0.1"} 1` + "\n" +
		`lat_seconds_bucket{route="submit",le="1"} 3` + "\n" +
		`lat_seconds_bucket{route="submit",le="10"} 4` + "\n" +
		`lat_seconds_bucket{route="submit",le="+Inf"} 5` + "\n" +
		`lat_seconds_sum{route="submit"} 56.05` + "\n" +
		`lat_seconds_count{route="submit"} 5` + "\n"
	if out != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", out, want)
	}
}

func TestHistogramVecSharesBuckets(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("stage_seconds", "", []float64{1}, "stage")
	v.With("train").Observe(0.5)
	v.With("sweep").Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`stage_seconds_bucket{stage="sweep",le="1"} 0`,
		`stage_seconds_bucket{stage="train",le="1"} 1`,
		`stage_seconds_count{stage="sweep"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	depth := 3
	r.NewGaugeFunc("depth", "", func() float64 { return float64(depth) })
	hits := uint64(41)
	r.NewCounterFunc("hits_total", "", func() uint64 { return hits })
	out := render(t, r)
	if !strings.Contains(out, "depth 3\n") || !strings.Contains(out, "hits_total 41\n") {
		t.Fatalf("func instruments not read at scrape time:\n%s", out)
	}
	depth, hits = 5, 42
	out = render(t, r)
	if !strings.Contains(out, "depth 5\n") || !strings.Contains(out, "hits_total 42\n") {
		t.Fatalf("func instruments stale:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("esc_total", "", "msg")
	v.With("a\"b\\c\nd").Inc()
	out := render(t, r)
	want := `esc_total{msg="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaping mismatch: want %q in:\n%s", want, out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup", "")
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "ok_total 1") {
		t.Fatalf("body missing series:\n%s", b)
	}
}

// TestConcurrentUse drives every instrument from many goroutines while
// scraping; run under -race this pins the locking discipline.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogramVec("h_seconds", "", DefLatencyBuckets, "k").With("a")
	v := r.NewCounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				v.With([]string{"a", "b"}[i%2]).Inc()
				if j%100 == 0 {
					_ = WritePrometheus(io.Discard, r)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count())
	}
	if v.With("a").Value()+v.With("b").Value() != 4000 {
		t.Fatalf("vec sum = %d, want 4000", v.With("a").Value()+v.With("b").Value())
	}
}
