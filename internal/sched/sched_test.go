package sched

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestJobs(t *testing.T) {
	if Jobs(4) != 4 {
		t.Fatal("explicit job count must pass through")
	}
	if Jobs(0) < 1 || Jobs(-3) < 1 {
		t.Fatal("non-positive job counts must normalize to >= 1")
	}
}

func TestEachOrderingAndErrors(t *testing.T) {
	p := NewPool(4)
	out := make([]int, 100)
	errs := p.Each(100, func(i int) error {
		out[i] = i * i
		if i%7 == 3 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		if out[i] != i*i {
			t.Fatalf("slot %d = %d, want %d", i, out[i], i*i)
		}
		wantErr := i%7 == 3
		if (errs[i] != nil) != wantErr {
			t.Fatalf("errs[%d] = %v", i, errs[i])
		}
	}
	if err := FirstError(errs); err == nil || err.Error() != "boom 3" {
		t.Fatalf("FirstError = %v, want boom 3", err)
	}
	if err := FirstError(make([]error, 5)); err != nil {
		t.Fatalf("FirstError over nils = %v", err)
	}
}

// TestEachRunsEveryIndexOnce runs near-empty tasks across 1–8 workers
// and several task counts (under -race in `make race`): every index
// runs exactly once, and each error lands in its own index's slot.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			runs := make([]atomic.Int32, n)
			errs := NewPool(workers).Each(n, func(i int) error {
				runs[i].Add(1)
				return fmt.Errorf("task %d", i)
			})
			if len(errs) != n {
				t.Fatalf("workers=%d n=%d: %d error slots", workers, n, len(errs))
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
				if want := fmt.Sprintf("task %d", i); errs[i] == nil || errs[i].Error() != want {
					t.Fatalf("workers=%d n=%d: errs[%d] = %v, want %s", workers, n, i, errs[i], want)
				}
			}
		}
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	var mu sync.Mutex
	p := NewPool(workers)
	p.Each(64, func(i int) error {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		for j := 0; j < 1000; j++ {
			_ = j * j
		}
		atomic.AddInt64(&inFlight, -1)
		return nil
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent workers, bound is %d", peak, workers)
	}
}

func TestEachZeroAndSerial(t *testing.T) {
	p := NewPool(1)
	if errs := p.Each(0, func(int) error { return nil }); len(errs) != 0 {
		t.Fatal("n=0 must return empty error slice")
	}
	var order []int
	p.Each(5, func(i int) error { order = append(order, i); return nil })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("serial pool must preserve submission order, got %v", order)
	}
}

func TestMatrixDeterministicOrder(t *testing.T) {
	// Axis order in the input must not matter.
	a := Matrix([]Axis{
		{Name: "b", Values: []string{"1", "2"}},
		{Name: "a", Values: []string{"x", "y", "z"}},
	})
	b := Matrix([]Axis{
		{Name: "a", Values: []string{"x", "y", "z"}},
		{Name: "b", Values: []string{"1", "2"}},
	})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("matrix order depends on axis order:\n%v\n%v", a, b)
	}
	if len(a) != 6 {
		t.Fatalf("cross product size = %d, want 6", len(a))
	}
	// a sorts before b, so a varies slowest, b fastest.
	want := []map[string]string{
		{"a": "x", "b": "1"}, {"a": "x", "b": "2"},
		{"a": "y", "b": "1"}, {"a": "y", "b": "2"},
		{"a": "z", "b": "1"}, {"a": "z", "b": "2"},
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("matrix = %v", a)
	}
}

func TestMatrixEdgeCases(t *testing.T) {
	if got := Matrix(nil); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty axes must yield one empty config, got %v", got)
	}
	if got := Matrix([]Axis{{Name: "a"}}); got != nil {
		t.Fatalf("axis without values must yield no configs, got %v", got)
	}
	got := MatrixFromMap(map[string][]string{"n": {"1", "2"}})
	if len(got) != 2 || got[0]["n"] != "1" || got[1]["n"] != "2" {
		t.Fatalf("MatrixFromMap = %v", got)
	}
}

func TestChunks(t *testing.T) {
	spans := Chunks(10, 3)
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	covered := 0
	prev := 0
	for _, s := range spans {
		if s.Lo != prev || s.Hi <= s.Lo {
			t.Fatalf("non-contiguous spans: %v", spans)
		}
		covered += s.Hi - s.Lo
		prev = s.Hi
	}
	if covered != 10 || prev != 10 {
		t.Fatalf("spans do not cover range: %v", spans)
	}
	if got := Chunks(2, 8); len(got) != 2 {
		t.Fatalf("more parts than items must clamp: %v", got)
	}
	if Chunks(0, 3) != nil || Chunks(5, 0) != nil {
		t.Fatal("degenerate chunk inputs must return nil")
	}
}
