package sched

import (
	"errors"
	"reflect"
	"testing"
)

// sizedInt charges an int value its own value in bytes.
func sizedInt(v any) int64 { return int64(v.(int)) }

func put(t *testing.T, c *Cache, key string, v int) {
	t.Helper()
	got, err := c.GetOrCompute(key, func() (any, error) { return v, nil })
	if err != nil || got.(int) != v {
		t.Fatalf("GetOrCompute(%q) = %v, %v", key, got, err)
	}
}

// A budgeted cache evicts its least recently used values until the kept
// bytes fit, and a hit refreshes recency.
func TestBudgetCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewBudgetCache(10, sizedInt)
	put(t, c, "a", 4)
	put(t, c, "b", 4)
	put(t, c, "a", 4) // a hit: b is now the least recently used
	put(t, c, "c", 4)
	if got, want := c.Keys(), []string{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if c.bytes != 8 || c.Evictions() != 1 {
		t.Fatalf("bytes = %d, evictions = %d, want 8 and 1", c.bytes, c.Evictions())
	}
	// A value larger than the whole budget is returned but not kept.
	put(t, c, "huge", 11)
	if got, want := c.Keys(), []string{"a", "c"}; !reflect.DeepEqual(got, want) || c.Evictions() != 2 {
		t.Fatalf("after an oversized value: keys = %v, evictions = %d", got, c.Evictions())
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("hits = %d, misses = %d, want 1 and 4", hits, misses)
	}
}

// A budgeted cache returns an error to its computation's callers but
// keeps no error: the next caller computes again.
func TestBudgetCacheKeepsNoError(t *testing.T) {
	c := NewBudgetCache(10, sizedInt)
	sentinel := errors.New("cancelled")
	if _, err := c.GetOrCompute("k", func() (any, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the computation's error", err)
	}
	if c.Len() != 0 {
		t.Fatalf("the error was kept: keys %v", c.Keys())
	}
	put(t, c, "k", 3)
}

// Values still being computed are never evicted, and DropPrefix leaves
// them too; DropPrefix is not an eviction.
func TestBudgetCacheSparesInFlightEntries(t *testing.T) {
	c := NewBudgetCache(10, sizedInt)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.GetOrCompute("m/slow", func() (any, error) {
			close(started)
			<-release
			return 2, nil
		})
	}()
	<-started
	put(t, c, "m/a", 6)
	put(t, c, "m/b", 6) // evicts m/a, never the in-flight m/slow
	c.DropPrefix("m/")
	if got, want := c.Keys(), []string{"m/slow"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if c.bytes != 0 || c.Evictions() != 1 {
		t.Fatalf("bytes = %d, evictions = %d, want 0 and 1", c.bytes, c.Evictions())
	}
	close(release)
	<-done
	put(t, c, "x/c", 5)
	c.DropPrefix("m/")
	if got, want := c.Keys(), []string{"x/c"}; !reflect.DeepEqual(got, want) || c.bytes != 5 {
		t.Fatalf("keys = %v, bytes = %d, want %v and 5", got, c.bytes, want)
	}
}
