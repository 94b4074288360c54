package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	cases := []struct{ workers, n, wantMax int }{
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2},   // capped at item count
		{0, 0, 1},   // never below one
		{-3, 5, 5},  // <=0 means GOMAXPROCS, capped at n
		{100, 3, 3}, // capped at n
	}
	for _, c := range cases {
		got := Workers(c.workers, c.n)
		if got < 1 || got > c.wantMax {
			t.Errorf("Workers(%d, %d) = %d, want in [1, %d]", c.workers, c.n, got, c.wantMax)
		}
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 100
		counts := make([]atomic.Int32, n)
		err := Do(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: fn(%d) ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoEmpty(t *testing.T) {
	if err := Do(4, 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatal(err)
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{2, 5} {
		err := Do(workers, 20, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("workers=%d: err = %v, want fail-3", workers, err)
		}
	}
}

func TestDoSequentialStopsAtFirstError(t *testing.T) {
	var ran int
	err := Do(1, 10, func(i int) error {
		ran++
		if i == 4 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran != 5 {
		t.Fatalf("sequential path ran %d items after an error, want 5", ran)
	}
}

func TestDoParallelRunsAllDespiteError(t *testing.T) {
	var ran atomic.Int32
	err := Do(4, 10, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("parallel path ran %d items, want all 10", got)
	}
}

// TestDoConcurrentWrites verifies that per-index writes from worker
// goroutines are safe without extra synchronization (exercised by the
// -race CI run).
func TestDoConcurrentWrites(t *testing.T) {
	const n = 1000
	out := make([]int, n)
	if err := Do(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// perWorker is Items that checks Run's worker contract: every item runs
// once, on a worker index below Workers(workers, n), and a worker's
// scratch — here a plain, unsynchronized counter — is never used by two
// goroutines at once (the -race CI run catches a shared one).
type perWorker struct {
	max     int
	runs    []atomic.Int32
	scratch []int
}

func (p *perWorker) Item(worker, i int) error {
	if worker < 0 || worker >= p.max {
		return fmt.Errorf("item %d on worker %d, want below %d", i, worker, p.max)
	}
	p.scratch[worker]++
	p.runs[i].Add(1)
	return nil
}

func TestRunGivesEachWorkerItsOwnIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 500
		w := Workers(workers, n)
		p := &perWorker{max: w, runs: make([]atomic.Int32, n), scratch: make([]int, w)}
		if err := Run(workers, n, p); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, c := range p.scratch {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: workers counted %d items, want %d", workers, total, n)
		}
		for i := range p.runs {
			if got := p.runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}
