package aver

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"popper/internal/fault"
	"popper/internal/table"
)

// streamCase is one (validations, table) pair the equivalence harness
// replays batch-by-batch against the batch evaluator.
type streamCase struct {
	name string
	src  string
	tb   func() *table.Table
}

// streamTable is the sweep-shaped fixture from the golden suite, plus a
// numeric wildcard axis so grouping covers float cell identities too.
func streamTable() *table.Table {
	t := table.New("workload", "machine", "nodes", "time", "status")
	add := func(w, m string, n, tm float64, st string) {
		t.MustAppend(table.String(w), table.String(m),
			table.Number(n), table.Number(tm), table.String(st))
	}
	for _, w := range []string{"compile", "fsbench"} {
		for _, m := range []string{"cloudlab", "ec2"} {
			base := 100.0
			if m == "ec2" {
				base = 140
			}
			exp := -0.6
			if w == "fsbench" && m == "ec2" {
				exp = 1.3
			}
			for _, n := range []float64{1, 2, 4, 8} {
				add(w, m, n, base*math.Pow(n, exp), "ok")
			}
		}
	}
	return t
}

func mixedTable() *table.Table {
	t := table.New("a", "b")
	t.MustAppend(table.Number(1), table.Number(2))
	t.MustAppend(table.String("oops"), table.Number(3))
	t.MustAppend(table.Number(4), table.Number(5))
	return t
}

func streamCases() []streamCase {
	return []streamCase{
		{"agg-logical", "expect avg(time) > 10 and count(*) = 16 or min(nodes) = 99", streamTable},
		{"agg-grouped", "when workload=* and machine=* expect avg(time) > 5 and max(time) < 1000", streamTable},
		{"agg-arith", "expect sum(time) / count(*) >= min(time) * 0.5", streamTable},
		{"row-level", "when nodes >= 2 expect time / nodes > 0.1", streamTable},
		{"row-level-fails", "when nodes >= 2 expect time / nodes > 30", streamTable},
		{"string-eq", "expect status = ok", streamTable},
		{"string-eq-fails", "expect machine = cloudlab", streamTable},
		{"within", "when workload=compile and machine=cloudlab expect within(nodes, 1, 8)", streamTable},
		{"within-fails", "expect within(nodes, 1, 4)", streamTable},
		{"numeric-wildcard", "when nodes=* expect avg(time) > 1", streamTable},
		{"no-rows", "when nodes > 1e9 expect time > 0", streamTable},
		{"multi", validationsSrc, streamTable}, // includes deferred scaling shapes
		{"deferred-median", "expect median(time) > 0; expect stddev(time) >= 0", streamTable},
		{"err-non-numeric", "expect a > 0", mixedTable},
		{"err-non-numeric-agg", "expect avg(a) > 0", mixedTable},
		{"err-div-zero", "expect b / 0 > 0", mixedTable},
		{"err-unknown-col", "expect bogus > 0", streamTable},
		{"err-unknown-when", "when bogus=* expect time > 0", streamTable},
		{"err-within-non-numeric", "expect within(a, 0, 10)", mixedTable},
	}
}

// checkAllRef reproduces CheckAll's serial semantics over a prefix
// view: first assertion error truncates the results.
func checkAllRef(t *testing.T, ev *Evaluator, src string, tb *table.Table, n int) ([]Result, error) {
	t.Helper()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	v, err := tb.View(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ev.CheckAll(src, v)
}

func diffResults(t *testing.T, label string, got []Result, gotErr error, want []Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error diverged:\nstream: %v\nbatch:  %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d streamed results, %d batch", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: result %d diverged:\nstream: %+v\nbatch:  %+v", label, i, got[i], want[i])
		}
	}
}

// replay feeds tb into a stream evaluator in batches of the given
// sizes (cycling) and asserts byte-identical verdicts to the batch
// evaluator at every batch boundary.
func replay(t *testing.T, src string, tb *table.Table, sizes []int, opts StreamOptions) {
	t.Helper()
	ev := NewEvaluator()
	st, err := ev.Stream(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	grow := table.New(tb.Columns()...)
	fed, si := 0, 0
	for fed < tb.Len() {
		n := sizes[si%len(sizes)]
		si++
		for i := 0; i < n && fed < tb.Len(); i++ {
			vals := make([]table.Value, 0, len(tb.Columns()))
			for _, col := range tb.Columns() {
				c, err := tb.Col(col)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, c.Value(fed))
			}
			grow.MustAppend(vals...)
			fed++
		}
		if err := st.Observe(grow); err != nil {
			t.Fatalf("observe at %d rows: %v", fed, err)
		}
		got, gotErr := st.Results()
		want, wantErr := checkAllRef(t, ev, src, tb, fed)
		diffResults(t, fmt.Sprintf("after %d rows (batch %d)", fed, si), got, gotErr, want, wantErr)
	}
	if err := st.Recheck(); err != nil {
		t.Fatalf("final recheck: %v", err)
	}
}

func TestStreamEquivalence(t *testing.T) {
	for _, c := range streamCases() {
		t.Run(c.name, func(t *testing.T) {
			tb := c.tb()
			for _, sizes := range [][]int{{1}, {3}, {7, 1}, {tb.Len()}} {
				replay(t, c.src, tb, sizes, StreamOptions{})
			}
		})
	}
}

// TestStreamEquivalenceFaultLatency replays the suite with the batch
// schedule driven by a latency-fault injector: fault-scheduled virtual
// delays fragment the stream into irregular windows, and the verdicts
// must not depend on where the window boundaries fall.
func TestStreamEquivalenceFaultLatency(t *testing.T) {
	seed := int64(42)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		seed = v
	}
	inj := fault.NewInjector(seed, []fault.Rule{
		{Site: "aver/stream/batch", Kind: fault.Latency, Prob: 0.5, Delay: 0.25},
	})
	var sizes []int
	for i := 0; i < 64; i++ {
		// a latency fault stalls the producer: the next window carries
		// more rows; quiet ticks emit single-row windows.
		if inj.Check("aver/stream/batch") != nil {
			sizes = append(sizes, 5)
		} else {
			sizes = append(sizes, 1)
		}
	}
	for _, c := range streamCases() {
		t.Run(c.name, func(t *testing.T) {
			replay(t, c.src, c.tb(), sizes, StreamOptions{})
		})
	}
}

// TestStreamWindowIngest drives the evaluator through table.Window —
// the ingestion path core uses — rather than hand-grown tables.
func TestStreamWindowIngest(t *testing.T) {
	tb := streamTable()
	w := table.NewWindow(tb.Columns()...)
	ev := NewEvaluator()
	st, err := ev.Stream(validationsSrc, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for fed := 0; fed < tb.Len(); {
		batch := table.New(tb.Columns()...)
		for i := 0; i < 5 && fed < tb.Len(); i++ {
			vals := make([]table.Value, 0, 5)
			for _, col := range tb.Columns() {
				c, _ := tb.Col(col)
				vals = append(vals, c.Value(fed))
			}
			batch.MustAppend(vals...)
			fed++
		}
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(w.Table()); err != nil {
			t.Fatal(err)
		}
	}
	if w.Batches() != 4 || w.Len() != tb.Len() {
		t.Fatalf("window: %d batches, %d rows", w.Batches(), w.Len())
	}
	got, err := st.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.CheckAll(validationsSrc, tb)
	if err != nil {
		t.Fatal(err)
	}
	if FormatResults(got) != FormatResults(want) {
		t.Fatalf("window verdicts diverged:\n--- batch\n%s\n--- stream\n%s",
			FormatResults(want), FormatResults(got))
	}
}

// TestStreamLiteralInternedMidStream pins the dictionary-staleness
// hazard: a when-clause literal that is not in the dictionary at
// compile time gets interned by a later batch, and the filter must
// start matching it.
func TestStreamLiteralInternedMidStream(t *testing.T) {
	src := "when status=late expect v > 0"
	tb := table.New("status", "v")
	ev := NewEvaluator()
	st, err := ev.Stream(src, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb.MustAppend(table.String("ok"), table.Number(1))
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	res, err := st.Results()
	if err != nil || res[0].Passed {
		t.Fatalf("no late rows yet: res=%+v err=%v", res, err)
	}
	tb.MustAppend(table.String("late"), table.Number(5))
	tb.MustAppend(table.String("late"), table.Number(-1))
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	res, err = st.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Passed {
		t.Fatalf("late row with v=-1 must fail: %+v", res[0])
	}
	want, err := ev.CheckAll(src, tb)
	if err != nil {
		t.Fatal(err)
	}
	if FormatResults(res) != FormatResults(want) {
		t.Fatalf("diverged:\n%s\n%s", FormatResults(want), FormatResults(res))
	}
}

func TestStreamUnsatisfiable(t *testing.T) {
	src := "expect time / nodes > 0.1"
	tb := table.New("nodes", "time")
	ev := NewEvaluator()
	st, err := ev.Stream(src, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb.MustAppend(table.Number(2), table.Number(10))
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	if st.Unsatisfiable() != nil {
		t.Fatalf("healthy row flagged unsatisfiable: %+v", st.Unsatisfiable())
	}
	tb.MustAppend(table.Number(100), table.Number(1)) // 0.01 — permanent row violation
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	v := st.Unsatisfiable()
	if v == nil {
		t.Fatal("row-level violation not flagged unsatisfiable")
	}
	if !v.Final || !errors.Is(v.Err(), ErrUnsatisfiable) {
		t.Fatalf("violation = %+v, err = %v", v, v.Err())
	}
	// More rows do not clear it.
	tb.MustAppend(table.Number(2), table.Number(10))
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	if st.Unsatisfiable() == nil {
		t.Fatal("unsatisfiable verdict must be permanent")
	}
	// Aggregate violations stay provisional: never unsatisfiable.
	st2, err := ev.Stream("expect avg(v) > 10", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb2 := table.New("v")
	tb2.MustAppend(table.Number(1))
	if err := st2.Observe(tb2); err != nil {
		t.Fatal(err)
	}
	if st2.Unsatisfiable() != nil {
		t.Fatal("aggregate violation must stay provisional")
	}
	viol := st2.Violations()
	if len(viol) != 1 || viol[0].Final {
		t.Fatalf("violations = %+v", viol)
	}
	tb2.MustAppend(table.Number(1000))
	if err := st2.Observe(tb2); err != nil {
		t.Fatal(err)
	}
	if len(st2.Violations()) != 0 {
		t.Fatalf("aggregate recovered, violations = %+v", st2.Violations())
	}
}

func TestStreamRecheckSchedule(t *testing.T) {
	tb := table.New("v")
	ev := NewEvaluator()
	st, err := ev.Stream("expect avg(v) > 0", StreamOptions{RecheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		tb.MustAppend(table.Number(float64(i + 1)))
		if err := st.Observe(tb); err != nil {
			t.Fatal(err)
		}
	}
	if st.Rechecks() != 3 {
		t.Fatalf("rechecks = %d, want 3", st.Rechecks())
	}
	// Disabled automatic rechecks.
	st2, err := ev.Stream("expect avg(v) > 0", StreamOptions{RecheckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Observe(tb); err != nil {
		t.Fatal(err)
	}
	if st2.Rechecks() != 0 {
		t.Fatalf("rechecks = %d, want 0", st2.Rechecks())
	}
	if err := st2.Recheck(); err != nil {
		t.Fatalf("explicit recheck: %v", err)
	}
}

func TestStreamIncrementalClassification(t *testing.T) {
	tb := streamTable()
	ev := NewEvaluator()
	st, err := ev.Stream(validationsSrc, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	// validationsSrc has 7 assertions; the two scaling ones and
	// constant() defer, the other four run incrementally (sublinear,
	// increasing, constant are calls the kernel set does not cover).
	if got := st.Incremental(); got != 4 {
		t.Fatalf("incremental = %d, want 4", got)
	}
	if st.Rows() != tb.Len() {
		t.Fatalf("rows = %d", st.Rows())
	}
}

func TestStreamShrinkRejected(t *testing.T) {
	ev := NewEvaluator()
	st, err := ev.Stream("expect v > 0", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New("v")
	tb.MustAppend(table.Number(1))
	tb.MustAppend(table.Number(2))
	if err := st.Observe(tb); err != nil {
		t.Fatal(err)
	}
	small := table.New("v")
	small.MustAppend(table.Number(1))
	if err := st.Observe(small); err == nil {
		t.Fatal("shrinking table must be rejected")
	}
}
