// Package pool is the repository's single bounded worker-pool
// abstraction. Everything that fans out — the camera pairs of
// association and training, the cells of coverage precomputation, the
// independent experiment points of the harness — does so through
// pool.Do (or Run, its form for a workspace that brings its own work),
// so the execution model documented in docs/CONCURRENCY.md is
// implemented in exactly one place.
//
// The contract callers rely on:
//
//   - fn(i) runs exactly once for every i in [0, n), regardless of
//     worker count (the parallel path never short-circuits; see Do for
//     the error rule);
//   - workers == 1 degenerates to a plain inline loop on the calling
//     goroutine — the deterministic sequential reference path;
//   - the returned error is the lowest-index failure, so error
//     reporting is independent of goroutine interleaving.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0) (use the hardware), and the result is capped at
// n, the number of independent work items.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do runs fn(0), ..., fn(n-1) on at most Workers(workers, n) goroutines
// and returns the error of the lowest failing index, or nil.
//
// With one worker the calls run inline, in index order, and stop at the
// first error — byte-for-byte the behaviour of the loop it replaces.
// With more workers all n calls are executed (work items must therefore
// tolerate siblings failing); indices are handed out in order but may
// complete in any order, so fn must confine its writes to per-index
// state and leave shared merging to the caller.
func Do(workers, n int, fn func(i int) error) error {
	return Run(workers, n, funcItems(fn))
}

// Items is a fan-out's work for Run: Item(worker, i) does work item i on
// the worker with index worker, in [0, Workers(workers, n)), so that each
// worker can use scratch of its own. One worker runs one item at a time.
type Items interface {
	Item(worker, i int) error
}

// funcItems adapts Do's function to Items.
type funcItems func(i int) error

func (f funcItems) Item(_, i int) error { return f(i) }

// Run is Do over work.Item(worker, 0), ..., work.Item(worker, n-1), with
// Do's rules. A closure handed to Do is allocated on every call, because
// the worker goroutines may hold it; a pointer to a workspace that
// implements Items is passed as it is, so a caller that keeps each call's
// inputs in its own workspace fans out without allocating at width 1.
func Run(workers, n int, work Items) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := work.Item(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = work.Item(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
