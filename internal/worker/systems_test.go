package worker

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
)

// tinyConfig is a laptop-fast configuration for tests that build real
// engines; distinct seeds produce distinct fingerprints.
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

func mustAcquire(t *testing.T, c *systems, fp string, cfg sparkxd.ConfigSpec) (*sparkxd.System, func()) {
	t.Helper()
	sys, _, release, err := c.Acquire(fp, cfg)
	if err != nil {
		t.Fatalf("Acquire(%s): %v", fp, err)
	}
	return sys, release
}

func assertStats(t *testing.T, c *systems, hits, misses, evictions uint64) {
	t.Helper()
	h, m, e := c.Stats()
	if h != hits || m != misses || e != evictions {
		t.Fatalf("stats = (hits=%d misses=%d evictions=%d), want (%d %d %d)", h, m, e, hits, misses, evictions)
	}
}

// TestLRUEvictionOrder pins the eviction policy: least recently
// acquired goes first, and a hit refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := newSystems(1, 2, nil)
	cfg := tinyConfig(1)

	_, relA := mustAcquire(t, c, "A", cfg)
	relA()
	_, relB := mustAcquire(t, c, "B", cfg)
	relB()
	assertStats(t, c, 0, 2, 0)

	// Touch A so B becomes the LRU entry.
	_, relA = mustAcquire(t, c, "A", cfg)
	relA()
	assertStats(t, c, 1, 2, 0)

	// A third fingerprint evicts B (the LRU), not A.
	_, relC := mustAcquire(t, c, "C", cfg)
	relC()
	assertStats(t, c, 1, 3, 1)
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}

	// A is still warm (hit); B was evicted (miss + another eviction).
	_, relA = mustAcquire(t, c, "A", cfg)
	relA()
	assertStats(t, c, 2, 3, 1)
	_, relB = mustAcquire(t, c, "B", cfg)
	relB()
	assertStats(t, c, 2, 4, 2)
}

// TestPinnedEntriesSurviveEviction pins the pin-while-running contract:
// an entry with a live Acquire is never evicted even when the cache is
// over its bound; the bound is restored on release.
func TestPinnedEntriesSurviveEviction(t *testing.T) {
	c := newSystems(1, 1, nil)
	cfg := tinyConfig(1)

	sysA, relA := mustAcquire(t, c, "A", cfg)
	// B arrives while A is pinned: the cache exceeds its bound rather
	// than dropping either in-use engine.
	_, relB := mustAcquire(t, c, "B", cfg)
	if n := c.Len(); n != 2 {
		t.Fatalf("Len with pinned overflow = %d, want 2", n)
	}
	assertStats(t, c, 0, 2, 0)

	// A must still be the same engine while pinned.
	sysA2, relA2 := mustAcquire(t, c, "A", cfg)
	if sysA2 != sysA {
		t.Fatal("pinned entry was replaced while held")
	}
	relA2()

	// Unpinning B lets the bound reassert itself: B (the only unpinned
	// entry) is evicted; still-pinned A survives.
	relB()
	if n := c.Len(); n != 1 {
		t.Fatalf("Len after releasing B = %d, want 1", n)
	}
	_, _, evictions := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	sysA3, relA3 := mustAcquire(t, c, "A", cfg)
	if sysA3 != sysA {
		t.Fatal("A was evicted while pinned")
	}
	relA3()
	relA()
	// Double release is a no-op (pins never go negative, no spurious
	// eviction of a later pin's entry).
	relA()
	if n := c.Len(); n != 1 {
		t.Fatalf("Len after double release = %d, want 1", n)
	}
}

// TestEvictedFingerprintRebuildsIdentically is the safety property that
// makes eviction legal at all: rebuilding an evicted fingerprint from
// its ConfigSpec yields a System whose artifacts are byte-identical to
// the first build's.
func TestEvictedFingerprintRebuildsIdentically(t *testing.T) {
	c := newSystems(1, 1, nil)
	cfg := tinyConfig(7)
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: cfg, Stage: "train"}
	spec, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	produce := func() map[string][]byte {
		sys, _, release, err := c.Acquire(fp, spec.Config)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		defer release()
		out, err := produce(context.Background(), sys, spec, nil)
		if err != nil {
			t.Fatalf("produce: %v", err)
		}
		enc := make(map[string][]byte, len(out))
		for role, v := range out {
			_, b, err := store.Encode(role, v)
			if err != nil {
				t.Fatalf("Encode(%s): %v", role, err)
			}
			enc[role] = b
		}
		return enc
	}

	first := produce()
	// Force the entry out with a different fingerprint, then rebuild.
	_, relOther := mustAcquire(t, c, "other", tinyConfig(8))
	relOther()
	_, _, evictions := c.Stats()
	if evictions == 0 {
		t.Fatal("expected the first fingerprint to be evicted")
	}

	second := produce()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("artifact sets differ: %d vs %d", len(first), len(second))
	}
	for role, b := range first {
		if !bytes.Equal(b, second[role]) {
			t.Fatalf("artifact %q differs between original and rebuilt System", role)
		}
	}
}

// TestUnboundedKeepsEverything pins the default (-max-warm-systems 0)
// behavior: no evictions, ever.
func TestUnboundedKeepsEverything(t *testing.T) {
	c := newSystems(1, 0, nil)
	cfg := tinyConfig(1)
	for _, fp := range []string{"A", "B", "C", "D"} {
		_, rel := mustAcquire(t, c, fp, cfg)
		rel()
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	assertStats(t, c, 0, 4, 0)
}

// TestProduceStageObserver checks the per-stage timing callback fires
// once per executed stage, in order.
func TestProduceStageObserver(t *testing.T) {
	c := newSystems(1, 0, nil)
	cfg := tinyConfig(3)
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: cfg, Stage: "improve"}
	spec, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sys, _, release, err := c.Acquire(fp, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	var stages []string
	observe := func(stage string, d time.Duration) {
		if d < 0 {
			t.Fatalf("negative duration for %s", stage)
		}
		stages = append(stages, stage)
	}
	if _, err := produce(context.Background(), sys, spec, observe); err != nil {
		t.Fatal(err)
	}
	want := []string{"train", "improve"}
	if len(stages) != len(want) {
		t.Fatalf("observed stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("observed stages %v, want %v", stages, want)
		}
	}
}

// TestSweepMemoMetrics pins the sparkxd_sweep_memo_* and
// sparkxd_sweep_profile_cache_* series to the sums of the cached
// engines' SweepMemoStats and SweepCacheStats after two sweeps of one
// model.
func TestSweepMemoMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	c := newSystems(1, 0, nil)
	m := newWorkerMetrics(&Worker{systems: c})
	cfg := tinyConfig(4)
	spec, err := sparkxd.JobSpec{Kind: sparkxd.JobSweep, Config: cfg, Sweep: &sparkxd.SweepSpec{
		BERs: []float64{1e-5, 1e-4}, PruneLevels: []float64{0, 0.5},
	}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sys, release := mustAcquire(t, c, fp, spec.Config)
	defer release()
	for i := 0; i < 2; i++ {
		if _, err := produce(context.Background(), sys, spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, evictions := sys.SweepMemoStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("memo hits %d, misses %d after two sweeps", hits, misses)
	}
	profileHits, profileMisses := sys.SweepCacheStats()
	rec := httptest.NewRecorder()
	m.reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("sparkxd_sweep_memo_hits_total %d\n", hits),
		fmt.Sprintf("sparkxd_sweep_memo_misses_total %d\n", misses),
		fmt.Sprintf("sparkxd_sweep_memo_evictions_total %d\n", evictions),
		fmt.Sprintf("sparkxd_sweep_profile_cache_hits_total %d\n", profileHits),
		fmt.Sprintf("sparkxd_sweep_profile_cache_misses_total %d\n", profileMisses),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, rec.Body.String())
		}
	}
}
