package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachOptsFailFastSerial(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	errs := NewPool(1).EachOpts(10, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	}, Options{FailFast: true})
	if got := ran.Load(); got != 4 {
		t.Fatalf("serial fail-fast ran %d tasks, want 4", got)
	}
	if errs[3] != boom {
		t.Fatalf("errs[3] = %v", errs[3])
	}
	for i := 4; i < 10; i++ {
		if errs[i] != ErrSkipped {
			t.Fatalf("errs[%d] = %v, want ErrSkipped", i, errs[i])
		}
	}
	if FirstError(errs) != boom {
		t.Fatalf("FirstError must report the failure, not the skips: %v", FirstError(errs))
	}
}

// Parallel fail-fast stops the pool at the first failure. Tasks after
// task 0 wait until the pool has stored its stop flag (the
// failFastStopped hook opens their gate), so the schedule cannot
// outrun the stop: while task 0 runs, the other worker holds task 1,
// and every later task is claimed after the stop and skipped. A pool
// that ignored FailFast never opens the gate; the timer opens it
// instead, every task runs, and the test fails.
func TestEachOptsFailFastParallel(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	failFastStopped = open
	defer func() { failFastStopped = nil }()
	timer := time.AfterFunc(10*time.Second, open)
	defer timer.Stop()

	var ran atomic.Int32
	errs := NewPool(2).EachOpts(200, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		<-gate
		return nil
	}, Options{FailFast: true})
	skipped := 0
	for _, err := range errs {
		if err == ErrSkipped {
			skipped++
		}
	}
	if skipped < 197 {
		t.Fatalf("parallel fail-fast skipped %d of 200 tasks (ran %d), want at least 197", skipped, ran.Load())
	}
	if int(ran.Load())+skipped != 200 {
		t.Fatalf("ran %d + skipped %d != 200", ran.Load(), skipped)
	}
}

func TestEachDefaultRunsEverything(t *testing.T) {
	// The historical contract is unchanged by default: every index runs
	// even when earlier ones fail.
	var ran atomic.Int32
	errs := NewPool(4).Each(50, func(i int) error {
		ran.Add(1)
		if i%7 == 0 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if got := ran.Load(); got != 50 {
		t.Fatalf("default Each ran %d/50 tasks", got)
	}
	for i, err := range errs {
		if err == ErrSkipped {
			t.Fatalf("default Each skipped task %d", i)
		}
	}
}

// TestEachNoFaultAllocationBounds pins the no-fault hot path: a call
// allocates the caller-visible error slice and, with more than one
// worker, a fixed set of shared state and goroutines, never anything
// per task — so threading resilience options through every layer costs
// nothing when no injector or policy is configured. Counted with the
// collector off.
func TestEachNoFaultAllocationBounds(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn := func(i int) error { return nil }
	for _, tc := range []struct{ workers, bound int }{{1, 1}, {2, 6}, {4, 8}} {
		pool := NewPool(tc.workers)
		count := func(n int) int {
			return int(testing.AllocsPerRun(20, func() { pool.EachOpts(n, fn, Options{}) }))
		}
		small, large := count(100), count(10000)
		if small != large || large > tc.bound {
			t.Errorf("%d workers: EachOpts allocates %d/call for 100 tasks and %d for 10,000, want the same count, at most %d",
				tc.workers, small, large, tc.bound)
		}
	}
}
