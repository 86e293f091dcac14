package sched

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// Cache is a concurrency-safe memoizing cache for expensive shared
// artifacts (generated datasets, trained model pairs). Computation is
// single-flight: when several jobs ask for the same key at once, exactly
// one computes and the rest block on its result, so e.g. the Fig. 8,
// Fig. 11, and ablation jobs never re-train the same network.
//
// A cache from NewCache keeps every entry, errors included: the suite is
// deterministic, so a failed computation would fail identically on
// retry. A cache from NewBudgetCache keeps at most a byte budget of
// values and evicts the least recently used ones first. Entries still
// being computed are never evicted, a value larger than the whole budget
// is returned to its callers but not kept, and an error is returned to
// the callers that shared its computation but not kept, so the next
// caller computes again.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    uint64
	misses  uint64

	// budget is the byte bound of a NewBudgetCache cache (0: unbounded);
	// size reports a value's bytes, bytes sums the kept values' sizes,
	// and lru orders the kept entries, most recently used first.
	budget    int64
	size      func(any) int64
	bytes     int64
	lru       list.List
	evictions uint64
}

type cacheEntry struct {
	key   string
	done  chan struct{}
	val   any
	err   error
	bytes int64
	elem  *list.Element // position in lru; nil while computing, or when unbounded
}

// NewCache returns an empty cache without a bound.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// NewBudgetCache returns an empty cache that keeps at most budget bytes
// of values, as size reports them. budget must be positive.
func NewBudgetCache(budget int64, size func(any) int64) *Cache {
	if budget <= 0 {
		panic(fmt.Sprintf("sched: cache budget %d is not positive", budget))
	}
	return &Cache{entries: make(map[string]*cacheEntry), budget: budget, size: size}
}

// GetOrCompute returns the cached value for key, computing it with fn on
// first use. Concurrent callers of the same key share one computation
// (the waiters count as hits). Panics inside fn are contained and
// returned as errors to every caller.
func (c *Cache) GetOrCompute(key string, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.val, e.err = runProtected(key, func() (any, error) {
		v, err := fn()
		if err == nil && c.budget > 0 {
			e.bytes = c.size(v)
		}
		return v, err
	})
	if c.budget > 0 {
		c.keep(e)
	}
	close(e.done)
	return e.val, e.err
}

// keep charges a computed entry to the budget: it drops an error or a
// value larger than the budget, and otherwise evicts least recently used
// entries until the kept values fit.
func (c *Cache) keep(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		delete(c.entries, e.key)
		return
	}
	if e.bytes > c.budget {
		delete(c.entries, e.key)
		c.evictions++
		return
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget {
		c.remove(c.lru.Back().Value.(*cacheEntry))
		c.evictions++
	}
}

// remove forgets a kept entry. The caller holds c.mu.
func (c *Cache) remove(e *cacheEntry) {
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.bytes -= e.bytes
	}
	delete(c.entries, e.key)
}

// DropPrefix forgets every computed entry whose key starts with prefix;
// entries still being computed stay. Dropped entries do not count as
// evictions.
func (c *Cache) DropPrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		select {
		case <-e.done:
			c.remove(e)
		default:
		}
	}
}

// runProtected invokes fn with panic containment.
func runProtected(key string, fn func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("sched: panic computing cache key %q: %v\n%s", key, r, debug.Stack())
		}
	}()
	return fn()
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many computed values the budget did not keep:
// least recently used entries evicted to make room, and values larger
// than the whole budget. It is 0 for an unbounded cache.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Keys returns the sorted cached keys, in-flight ones included
// (diagnostics).
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
