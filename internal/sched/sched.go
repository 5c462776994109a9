// Package sched implements the concurrent fan-out engine behind the
// Popper toolchain's parameter sweeps: a bounded worker pool with
// deterministic result ordering, the parameter-matrix expansion that
// turns sweep axes into concrete configurations, and the chunking
// helper row-parallel evaluators use.
//
// The pool is deliberately tiny and dependency-free so every layer of
// the stack (core sweeps, Aver validation, orchestration forks) can
// share it without import cycles. Determinism is the design constraint
// the paper's re-execution story imposes: results are always delivered
// in submission (index) order, never completion order, so a parallel
// sweep journals identically to a serial one. The pool has no
// dispatcher: its workers, the calling goroutine among them, claim
// indexes in ascending order from one shared counter, and a fail-fast
// stop marks every index claimed after it skipped, so every unclaimed
// one ends skipped.
package sched

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a requested worker count: values <= 0 mean "one
// worker per available CPU" (GOMAXPROCS).
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a bounded worker pool. The zero value is not usable; create
// one with NewPool. A Pool is stateless between calls and safe for
// concurrent use.
type Pool struct {
	workers int
}

// NewPool creates a pool with the given concurrency bound (<= 0 means
// GOMAXPROCS).
func NewPool(workers int) *Pool { return &Pool{workers: Jobs(workers)} }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// ErrSkipped marks a task the pool never ran because it stopped early
// (FailFast after a failure). A skipped slot is distinguishable
// from success so collect-and-report callers can tell "ran and passed"
// from "never ran".
var ErrSkipped = errors.New("sched: task skipped (pool stopped early)")

// Options tunes Each. The zero value preserves the historical
// semantics: every index runs even when earlier ones fail.
type Options struct {
	// FailFast stops the pool running further tasks after the first
	// non-nil error. In-flight tasks finish; a worker that claims an
	// index after the stop marks it ErrSkipped, and so every unclaimed
	// slot ends ErrSkipped. Which tasks were already in flight when the
	// failure landed depends on scheduling, so FailFast trades the
	// deterministic all-indexes-ran contract for earlier termination —
	// callers that journal results should keep the default.
	FailFast bool
}

// Each runs fn(0) .. fn(n-1) across the pool and returns one error slot
// per index (nil on success). Every index runs even when earlier ones
// fail — sweep semantics are collect-and-report, not fail-fast (see
// Options.FailFast for the opt-in alternative). Slot i of any
// caller-owned result slice is exclusively owned by call i, so workers
// need no synchronization to deposit results.
func (p *Pool) Each(n int, fn func(i int) error) []error {
	return p.EachOpts(n, fn, Options{})
}

// failFastStopped, when set, runs on the worker whose task failed,
// right after a parallel fail-fast EachOpts stores its stop flag. Tests
// hook it to order their tasks after the stop.
var failFastStopped func()

// EachOpts is Each with options (fail-fast). With more than one worker
// it starts workers-1 goroutines and the caller works as the last one:
// each worker claims the next index from a shared counter until none is
// left, so no task waits on a handoff. It returns once every claimed
// task has finished.
func (p *Pool) EachOpts(n int, fn func(i int) error, opts Options) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		stopped := false
		for i := 0; i < n; i++ {
			if stopped {
				errs[i] = ErrSkipped
				continue
			}
			errs[i] = fn(i)
			if errs[i] != nil && opts.FailFast {
				stopped = true
			}
		}
		return errs
	}
	var (
		wg      sync.WaitGroup
		claimed atomic.Int64 // indexes claimed so far, by every worker
		stopped atomic.Bool
	)
	work := func() {
		for i := int(claimed.Add(1) - 1); i < n; i = int(claimed.Add(1) - 1) {
			if stopped.Load() {
				errs[i] = ErrSkipped
				continue
			}
			errs[i] = fn(i)
			if errs[i] != nil && opts.FailFast {
				stopped.Store(true)
				if failFastStopped != nil {
					failFastStopped()
				}
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errs
}

// FirstError returns the lowest-index non-nil error, or nil. Using the
// lowest index (not completion order) keeps parallel error reporting
// identical to serial execution.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Axis is one swept parameter: a name and its candidate values.
type Axis struct {
	Name   string
	Values []string
}

// Matrix expands axes into their cross product of parameter overrides.
// Axes are ordered by name and the last axis varies fastest, so the
// configuration order is deterministic regardless of input order. An
// empty axis list yields a single empty configuration; an axis with no
// values yields no configurations.
func Matrix(axes []Axis) []map[string]string {
	sorted := append([]Axis(nil), axes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	configs := []map[string]string{{}}
	for _, ax := range sorted {
		if len(ax.Values) == 0 {
			return nil
		}
		grown := make([]map[string]string, 0, len(configs)*len(ax.Values))
		for _, base := range configs {
			for _, v := range ax.Values {
				cfg := make(map[string]string, len(base)+1)
				for k, bv := range base {
					cfg[k] = bv
				}
				cfg[ax.Name] = v
				grown = append(grown, cfg)
			}
		}
		configs = grown
	}
	return configs
}

// MatrixFromMap is Matrix over a name -> values mapping.
func MatrixFromMap(axes map[string][]string) []map[string]string {
	list := make([]Axis, 0, len(axes))
	for name, values := range axes {
		list = append(list, Axis{Name: name, Values: values})
	}
	return Matrix(list)
}

// Span is a half-open index range [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// Chunks splits n items into at most parts contiguous spans of
// near-equal size, in index order. Useful for chunked row-parallel
// scans that must report the same first failure a serial scan would.
func Chunks(n, parts int) []Span {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Span, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}
