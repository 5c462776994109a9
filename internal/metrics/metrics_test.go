package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"popper/internal/table"
)

func TestObserveAndSeries(t *testing.T) {
	r := NewRegistry(Labels{"machine": "m0"}, nil)
	r.Observe("time", 10)
	r.Observe("time", 20)
	r.Observe("other", 5)
	got := r.Series("time", nil)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("series = %v", got)
	}
	if n := r.Len(); n != 3 {
		t.Fatalf("len = %d", n)
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry(nil, nil)
	r.Add("ops", 3)
	r.Add("ops", 4)
	if v := r.Counter("ops"); v != 7 {
		t.Fatalf("counter = %v", v)
	}
	series := r.Series("ops", nil)
	if len(series) != 2 || series[1] != 7 {
		t.Fatalf("counter series = %v", series)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry(nil, nil)
	r.Set("mem", 100)
	r.Set("mem", 50)
	if v := r.Gauge("mem"); v != 50 {
		t.Fatalf("gauge = %v", v)
	}
	if v := r.Gauge("absent"); v != 0 {
		t.Fatalf("absent gauge = %v", v)
	}
}

func TestLabelsAndViews(t *testing.T) {
	r := NewRegistry(Labels{"exp": "gassyfs"}, nil)
	v := r.WithLabels(Labels{"machine": "n1"})
	v.Observe("time", 42)
	v2 := v.WithLabels(Labels{"run": "3"})
	v2.Observe("time", 43)

	if got := r.Series("time", Labels{"machine": "n1"}); len(got) != 2 {
		t.Fatalf("machine series = %v", got)
	}
	if got := r.Series("time", Labels{"run": "3"}); len(got) != 1 || got[0] != 43 {
		t.Fatalf("run series = %v", got)
	}
	if got := r.Series("time", Labels{"run": "9"}); len(got) != 0 {
		t.Fatalf("mismatched filter should be empty, got %v", got)
	}
	// base labels present on everything
	if got := r.Series("time", Labels{"exp": "gassyfs"}); len(got) != 2 {
		t.Fatalf("base label series = %v", got)
	}
}

func TestViewLabelsDoNotLeak(t *testing.T) {
	r := NewRegistry(nil, nil)
	v := r.WithLabels(Labels{"a": "1"})
	_ = v.WithLabels(Labels{"b": "2"}) // deriving must not mutate v
	v.Observe("m", 1)
	obs := r.Observations()
	if _, ok := obs[0].Labels["b"]; ok {
		t.Fatal("derived view labels leaked into parent view")
	}
}

func TestTableExport(t *testing.T) {
	r := NewRegistry(Labels{"workload": "compile"}, nil)
	r.WithLabels(Labels{"nodes": "2"}).Observe("time", 55)
	tb := r.Table()
	cols := tb.Columns()
	want := []string{"tick", "metric", "value", "nodes", "workload"}
	if len(cols) != len(want) {
		t.Fatalf("cols = %v", cols)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
	}
	if tb.Len() != 1 {
		t.Fatalf("rows = %d", tb.Len())
	}
	if v := tb.MustCell(0, "value").Num; v != 55 {
		t.Fatalf("value = %v", v)
	}
}

func TestResultTablePivot(t *testing.T) {
	r := NewRegistry(Labels{"workload": "compile-git"}, nil)
	for _, n := range []string{"1", "2", "4"} {
		v := r.WithLabels(Labels{"nodes": n})
		v.Observe("time", 100/float64(len(n))) // arbitrary
		v.Observe("mem", 7)
	}
	rt := r.ResultTable()
	if rt.Len() != 3 {
		t.Fatalf("pivot rows = %d\n%s", rt.Len(), rt.Format())
	}
	if !rt.HasColumn("time") || !rt.HasColumn("mem") || !rt.HasColumn("nodes") {
		t.Fatalf("pivot cols = %v", rt.Columns())
	}
	row, err := rt.Where("nodes", rt.MustCell(0, "nodes"))
	if err != nil || row.Len() != 1 {
		t.Fatalf("where: %v", err)
	}
}

func TestResultTableLastWins(t *testing.T) {
	r := NewRegistry(nil, nil)
	r.Observe("x", 1)
	r.Observe("x", 2)
	rt := r.ResultTable()
	if rt.Len() != 1 {
		t.Fatalf("rows = %d", rt.Len())
	}
	if v := rt.MustCell(0, "x").Num; v != 2 {
		t.Fatalf("x = %v (last value should win)", v)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRegistry(nil, nil)
	for _, x := range []float64{1, 2, 3, 4} {
		r.Observe("t", x)
	}
	s := r.Summarize("t", nil)
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-1.2909944487358056) > 1e-12 {
		t.Fatalf("sd = %v", s.StdDev)
	}
	empty := r.Summarize("absent", nil)
	if empty.Count != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	if s.String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry(nil, nil)
	r.Add("c", 5)
	r.Set("g", 2)
	r.Reset()
	if r.Len() != 0 || r.Counter("c") != 0 || r.Gauge("g") != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry(nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add("ops", 1)
				r.Observe("x", float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("ops"); v != 800 {
		t.Fatalf("ops = %v", v)
	}
	if n := r.Len(); n != 1600 {
		t.Fatalf("observations = %d", n)
	}
}

// Property: ticks are strictly increasing with the default clock.
func TestQuickMonotonicTicks(t *testing.T) {
	f := func(vals []float64) bool {
		r := NewRegistry(nil, nil)
		for _, v := range vals {
			if math.IsNaN(v) {
				v = 0
			}
			r.Observe("m", v)
		}
		obs := r.Observations()
		for i := 1; i < len(obs); i++ {
			if obs[i].Tick <= obs[i-1].Tick {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Series returns exactly the observed values, in order.
func TestQuickSeriesFaithful(t *testing.T) {
	f := func(vals []float64) bool {
		r := NewRegistry(nil, nil)
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, v)
			r.Observe("m", v)
		}
		got := r.Series("m", nil)
		if len(got) != len(clean) {
			return false
		}
		for i := range got {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStages drives the registry the way parallel pipeline
// stages do — counters, gauges and raw samples from many goroutines,
// with readers interleaved — and relies on the race detector to catch
// unguarded access to the mutating logical clock.
func TestConcurrentStages(t *testing.T) {
	r := NewRegistry(Labels{"experiment": "race"}, nil)
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := r.WithLabels(Labels{"worker": string(rune('a' + w))})
			for i := 0; i < rounds; i++ {
				r.Add("ops", 1)
				r.Set("depth", float64(i))
				v.Observe("sample", float64(i))
				// Interleave readers with the writers.
				_ = r.Counter("ops")
				_ = r.Len()
				_ = r.Series("sample", Labels{"worker": string(rune('a' + w))})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops"); got != workers*rounds {
		t.Fatalf("ops counter = %v, want %d", got, workers*rounds)
	}
	// counter + gauge + sample per round per worker
	if got := r.Len(); got != 3*workers*rounds {
		t.Fatalf("observations = %d, want %d", got, 3*workers*rounds)
	}
	if r.Table().Len() != r.Len() {
		t.Fatal("table export must carry every observation")
	}
}

func TestStreamInto(t *testing.T) {
	r := NewRegistry(Labels{"machine": "m0"}, nil)
	w := table.NewWindow("metric", "value", "tick", "machine", "phase")
	r.WithLabels(Labels{"phase": "warm"}).Observe("time", 10)
	r.Observe("time", 20)
	mark, err := r.StreamInto(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mark != 2 || w.Len() != 2 || w.Batches() != 1 {
		t.Fatalf("mark=%d len=%d batches=%d", mark, w.Len(), w.Batches())
	}
	tb := w.Table()
	if tb.MustCell(0, "metric").Text() != "time" || tb.MustCell(0, "value").Num != 10 {
		t.Fatalf("row 0 = %v %v", tb.MustCell(0, "metric").Text(), tb.MustCell(0, "value").Num)
	}
	if tb.MustCell(0, "phase").Text() != "warm" || tb.MustCell(1, "phase").Text() != "" {
		t.Fatalf("phase labels: %q %q", tb.MustCell(0, "phase").Text(), tb.MustCell(1, "phase").Text())
	}
	if tb.MustCell(1, "machine").Text() != "m0" {
		t.Fatalf("base label lost: %q", tb.MustCell(1, "machine").Text())
	}
	// Incremental drain: nothing new is a no-op, new rows land in a
	// fresh batch.
	if mark2, err := r.StreamInto(w, mark); err != nil || mark2 != mark || w.Batches() != 1 {
		t.Fatalf("no-op drain: mark=%d err=%v batches=%d", mark2, err, w.Batches())
	}
	r.Observe("time", 30)
	mark3, err := r.StreamInto(w, mark)
	if err != nil || mark3 != 3 || w.Len() != 3 || w.Batches() != 2 {
		t.Fatalf("mark=%d err=%v len=%d batches=%d", mark3, err, w.Len(), w.Batches())
	}
	if _, err := r.StreamInto(w, 99); err == nil {
		t.Fatal("out-of-range mark must error")
	}
}
