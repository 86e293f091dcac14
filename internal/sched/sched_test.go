package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// suiteNames builds a deterministic set of job names for shard tests.
func suiteNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("job-%02d", i)
	}
	return names
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		want Shard
		err  bool
	}{
		{"", Shard{}, false},
		{"1/1", Shard{1, 1}, false},
		{"2/4", Shard{2, 4}, false},
		{"0/4", Shard{}, true},
		{"5/4", Shard{}, true},
		{"x/y", Shard{}, true},
		{"3", Shard{}, true},
		{"1/2x", Shard{}, true},
		{"1x/2", Shard{}, true},
		{" 1/2", Shard{}, true},
		{"1/2/3", Shard{}, true},
	}
	for _, c := range cases {
		got, err := ParseShard(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseShard(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShard(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseShard(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunsAllJobsAndReportsInNameOrder(t *testing.T) {
	s, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ran sync.Map
	// Register in reverse order to prove reports come back name-sorted.
	names := suiteNames(20)
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		if err := s.Add(Job{Name: name, Run: func() (any, error) {
			ran.Store(name, true)
			return name + "-value", nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(names) {
		t.Fatalf("got %d reports, want %d", len(reports), len(names))
	}
	for i, rep := range reports {
		if rep.Name != names[i] {
			t.Errorf("report %d = %q, want %q (name order)", i, rep.Name, names[i])
		}
		if rep.Value != rep.Name+"-value" {
			t.Errorf("report %q carries value %v", rep.Name, rep.Value)
		}
		if _, ok := ran.Load(rep.Name); !ok {
			t.Errorf("job %q never ran", rep.Name)
		}
	}
}

// Shard union: 1/m .. m/m together cover the full suite exactly once.
func TestShardUnionCompleteness(t *testing.T) {
	names := suiteNames(17)
	for _, m := range []int{2, 3, 5} {
		seen := make(map[string]int)
		for i := 1; i <= m; i++ {
			s, err := New(Config{Workers: 2, Shard: Shard{Index: i, Count: m}})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if err := s.Add(Job{Name: name, Run: func() (any, error) { return nil, nil }}); err != nil {
					t.Fatal(err)
				}
			}
			members := s.Members()
			reports, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(members) {
				t.Fatalf("shard %d/%d: %d reports vs %d members", i, m, len(reports), len(members))
			}
			for _, n := range members {
				seen[n]++
			}
		}
		if len(seen) != len(names) {
			t.Fatalf("m=%d: union covers %d jobs, want %d", m, len(seen), len(names))
		}
		for n, count := range seen {
			if count != 1 {
				t.Errorf("m=%d: job %q assigned to %d shards", m, n, count)
			}
		}
	}
}

// Shard assignment must not depend on registration order.
func TestShardAssignmentOrderIndependent(t *testing.T) {
	names := suiteNames(9)
	reversed := append([]string(nil), names...)
	sort.Sort(sort.Reverse(sort.StringSlice(reversed)))
	for _, order := range [][]string{names, reversed} {
		s, err := New(Config{Shard: Shard{Index: 2, Count: 3}})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range order {
			if err := s.Add(Job{Name: n, Run: func() (any, error) { return nil, nil }}); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Members()
		want := []string{"job-01", "job-04", "job-07"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("members for order %v = %v, want %v", order[:2], got, want)
		}
	}
}

func TestCacheHitAccountingAndSingleFlight(t *testing.T) {
	c := NewCache()
	var computes atomic.Int64
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCompute("model/N60", func() (any, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return 99, nil
			})
			if err != nil || v.(int) != 99 {
				t.Errorf("GetOrCompute = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want single-flight 1", n)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}
	if c.Len() != 1 || len(c.Keys()) != 1 {
		t.Fatal("cache must hold exactly one key")
	}
	// Errors are cached too.
	sentinel := errors.New("boom")
	if _, err := c.GetOrCompute("bad", func() (any, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatal("error not returned")
	}
	if _, err := c.GetOrCompute("bad", func() (any, error) {
		t.Error("error entry recomputed")
		return nil, nil
	}); !errors.Is(err, sentinel) {
		t.Fatal("cached error not returned")
	}
}

func TestCachePanicContainment(t *testing.T) {
	c := NewCache()
	_, err := c.GetOrCompute("explodes", func() (any, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic must surface as error, got %v", err)
	}
}

// A failing or panicking job must not take down the run: every other
// job still runs and reports, the panic surfaces as that job's error, and
// the run's error names the first failing job in name order.
func TestFailingJobsDoNotStopTheRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var survivors atomic.Int64
		jobs := []Job{
			{Name: "bomber", Cost: 9, Run: func() (any, error) { panic("fuse lit") }},
			{Name: "failer", Cost: 9, Run: func() (any, error) { return nil, errors.New("plain failure") }},
		}
		for i := 0; i < 6; i++ {
			jobs = append(jobs, Job{Name: fmt.Sprintf("survivor-%d", i), Run: func() (any, error) {
				survivors.Add(1)
				return "ok", nil
			}})
		}
		if err := s.Add(jobs...); err != nil {
			t.Fatal(err)
		}
		reports, err := s.Run()
		if err == nil || !strings.Contains(err.Error(), `"bomber"`) {
			t.Fatalf("workers=%d: run error = %v, want the first failing job by name", workers, err)
		}
		if survivors.Load() != 6 {
			t.Fatalf("workers=%d: %d survivors ran, want 6", workers, survivors.Load())
		}
		if len(reports) != len(jobs) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(reports), len(jobs))
		}
		byName := make(map[string]Report)
		for _, rep := range reports {
			byName[rep.Name] = rep
		}
		if rep := byName["bomber"]; rep.Err == nil || !strings.Contains(rep.Err.Error(), "fuse lit") {
			t.Errorf("workers=%d: bomber error = %v, want contained panic", workers, rep.Err)
		}
		if rep := byName["failer"]; rep.Err == nil || rep.Err.Error() != "plain failure" {
			t.Errorf("workers=%d: failer error = %v, want its own error", workers, rep.Err)
		}
		for i := 0; i < 6; i++ {
			if rep := byName[fmt.Sprintf("survivor-%d", i)]; rep.Err != nil || rep.Value != "ok" {
				t.Errorf("workers=%d: survivor-%d reported %v, %v", workers, i, rep.Value, rep.Err)
			}
		}
	}
}

// One worker starts jobs largest cost first, ties broken by name, while
// reports still come back in name order.
func TestJobsStartLargestCostFirst(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var started []string
	for _, j := range []struct {
		name string
		cost float64
	}{{"a", 1}, {"b", 5}, {"c", 0}, {"d", 5}, {"e", 2}, {"f", 0}} {
		name := j.name
		if err := s.Add(Job{Name: name, Cost: j.cost, Run: func() (any, error) {
			started = append(started, name)
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(started), "[b d e a c f]"; got != want {
		t.Errorf("start order = %s, want %s", got, want)
	}
	var names []string
	for _, rep := range reports {
		names = append(names, rep.Name)
	}
	if got, want := fmt.Sprint(names), "[a b c d e f]"; got != want {
		t.Errorf("report order = %s, want %s", got, want)
	}
}

func TestAddValidation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Job{Name: "", Run: func() (any, error) { return nil, nil }}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := s.Add(Job{Name: "x"}); err == nil {
		t.Error("nil Run must be rejected")
	}
	if err := s.Add(Job{Name: "x", Run: func() (any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Job{Name: "x", Run: func() (any, error) { return nil, nil }}); err == nil {
		t.Error("duplicate name must be rejected")
	}
	if _, err := New(Config{Shard: Shard{Index: 9, Count: 2}}); err == nil {
		t.Error("invalid shard must be rejected")
	}
}

func TestParallelForBasics(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		n := 37
		hit := make([]atomic.Bool, n)
		if err := ParallelFor(workers, n, func(_, i int) error {
			hit[i].Store(true)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hit {
			if !hit[i].Load() {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
	if err := ParallelFor(4, 0, func(int, int) error { t.Error("no iterations expected"); return nil }); err != nil {
		t.Fatal(err)
	}
	// The lowest failing index wins regardless of worker count.
	for _, workers := range []int{1, 8} {
		err := ParallelFor(workers, 40, func(_, i int) error {
			if i == 11 || i == 30 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-11" {
			t.Errorf("workers=%d: error = %v, want fail-11", workers, err)
		}
	}
	// Panics are contained.
	err := ParallelFor(4, 8, func(_, i int) error {
		if i == 2 {
			panic("loop bomb")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "loop bomb") {
		t.Errorf("panic must surface as error, got %v", err)
	}
}

// ParallelFor hands each iteration a pool slot in [0, workers), never
// runs two iterations on one slot at once, and hands indices out in
// increasing order: when iteration i starts, every lower index has been
// handed out, and at most workers-1 of them can still be on their way
// into fn.
func TestParallelForSlots(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 64
		busy := make([]atomic.Bool, workers)
		var mu sync.Mutex
		started := make([]bool, n)
		err := ParallelFor(workers, n, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("slot %d outside [0, %d)", w, workers)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("slot %d ran two iterations at once", w)
			}
			defer busy[w].Store(false)
			mu.Lock()
			if started[i] {
				mu.Unlock()
				return fmt.Errorf("index %d ran twice", i)
			}
			started[i] = true
			below := 0
			for j := 0; j < i; j++ {
				if started[j] {
					below++
				}
			}
			mu.Unlock()
			if below < i-(workers-1) {
				return fmt.Errorf("index %d started with only %d of the %d lower indices started", i, below, i)
			}
			time.Sleep(100 * time.Microsecond) // widen the overlap window
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, ok := range started {
			if !ok {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}
