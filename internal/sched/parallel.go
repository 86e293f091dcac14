package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ParallelFor runs fn(w, i) for i in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the error of the
// lowest-failing index, which makes the returned error independent of
// scheduling order. w is the pool slot running the iteration, in
// [0, workers): one slot never runs two iterations at once, so a caller
// can keep per-slot scratch in a slice indexed by w. Indices are handed
// out in increasing order. Panics inside fn are contained and reported
// as errors. Remaining iterations are abandoned once any iteration
// fails; every index below the lowest failing one has run by then.
func ParallelFor(workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := runIteration(0, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   = 0
		errAt  = n // lowest failing index
		outErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if errAt < n || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := runIteration(w, i, fn); err != nil {
					mu.Lock()
					if i < errAt {
						errAt, outErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return outErr
}

// runIteration invokes fn(w, i) with panic containment.
func runIteration(w, i int, fn func(w, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: panic in parallel iteration %d: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(w, i)
}
