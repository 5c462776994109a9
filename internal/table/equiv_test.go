package table

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The equivalence suite pins the observable behaviour of the table
// package to golden fixtures captured from the original row-oriented
// implementation. The columnar/view rebuild must be indistinguishable:
// CSV bytes, JSON, Format output and aggregation results are compared
// byte-for-byte. Regenerate with `go test -run TestGolden -update`
// only when the *intended* surface changes.
var update = flag.Bool("update", false, "rewrite golden fixture files")

// goldenFixture builds a deterministic table exercising the tricky
// cells: mixed-type columns, empty strings, CSV-quoted values, NaN
// numerics and duplicated group keys.
func goldenFixture() *Table {
	t := New("workload", "machine", "nodes", "time", "note")
	rows := []struct {
		w, m  string
		n, tm Value
		note  string
	}{
		{"compile-git", "cloudlab", Number(1), Number(100.5), "warm,cache"},
		{"compile-git", "cloudlab", Number(2), Number(61.25), ""},
		{"compile-git", "ec2", Number(1), Number(120), `quote "q" here`},
		{"compile-git", "ec2", Number(4), Number(44.125), "ok"},
		{"fsbench", "cloudlab", Number(1), Number(10), "10"},
		{"fsbench", "cloudlab", Number(8), String("dnf"), "timeout"},
		{"fsbench", "ec2", Number(2), Number(7.75), "-3.5e-2"},
		{"fsbench", "ec2", Number(2), Number(7.75), "dup row"},
		{"lulesh", "cloudlab", String(""), Number(55), "missing nodes"},
		{"lulesh", "ec2", Number(16), Number(1e-9), "tiny"},
	}
	for _, r := range rows {
		t.MustAppend(String(r.w), String(r.m), r.n, r.tm, String(r.note))
	}
	return t
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from row-oriented golden:\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

func TestGoldenCSV(t *testing.T) {
	tb := goldenFixture()
	checkGolden(t, "base.csv", tb.CSV())

	// Round trip: parse the CSV we just rendered, render again. The
	// golden pins the (lossy, Auto-typed) canonical form the original
	// implementation produced — e.g. "-3.5e-2" re-renders as "-0.035".
	rt, err := ParseCSV(tb.CSV())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "roundtrip.csv", rt.CSV())
	rt2, err := ParseCSV(rt.CSV())
	if err != nil {
		t.Fatal(err)
	}
	if rt2.CSV() != rt.CSV() {
		t.Errorf("canonical CSV not a fixed point:\n%s\nvs\n%s", rt.CSV(), rt2.CSV())
	}
}

func TestGoldenFilterWhereSelect(t *testing.T) {
	tb := goldenFixture()
	f := tb.Filter(func(r int) bool { return tb.MustCell(r, "time").Float() >= 10 })
	checkGolden(t, "filter.csv", f.CSV())

	w, err := tb.Where("machine", String("ec2"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "where.csv", w.CSV())

	// Stacked views: filter a where-view, then project it.
	fw := w.Filter(func(r int) bool { return w.MustCell(r, "nodes").Float() >= 2 })
	sel, err := fw.Select("workload", "time")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chain.csv", sel.CSV())
}

func TestGoldenSort(t *testing.T) {
	tb := goldenFixture()
	if err := tb.SortBy("machine", "time"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sort.csv", tb.CSV())
}

func TestGoldenGroupBy(t *testing.T) {
	tb := goldenFixture()
	g, err := tb.GroupBy([]string{"workload", "machine"},
		Agg{Col: "time", Op: "mean"},
		Agg{Col: "time", Op: "min"},
		Agg{Col: "time", Op: "max"},
		Agg{Col: "time", Op: "median"},
		Agg{Col: "time", Op: "stddev"},
		Agg{Col: "time", Op: "sum"},
		Agg{Col: "time", Op: "count"},
		Agg{Col: "note", Op: "first"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "groupby.csv", g.CSV())
}

func TestGoldenUnique(t *testing.T) {
	tb := goldenFixture()
	var sb strings.Builder
	for _, col := range tb.Columns() {
		vs, err := tb.Unique(col)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(col)
		for _, v := range vs {
			sb.WriteString("|")
			sb.WriteString(v.Text())
		}
		sb.WriteString("\n")
	}
	checkGolden(t, "unique.txt", sb.String())
}

func TestGoldenJoinConcat(t *testing.T) {
	tb := goldenFixture()
	right := New("machine", "site", "time")
	right.MustAppend(String("cloudlab"), String("wisc"), Number(1))
	right.MustAppend(String("ec2"), String("us-east"), Number(2))
	j, err := tb.Join(right, "machine")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "join.csv", j.CSV())

	cc := goldenFixture()
	if err := cc.Concat(goldenFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "concat.csv", cc.CSV())
}

func TestGoldenFormatJSON(t *testing.T) {
	tb := goldenFixture()
	checkGolden(t, "format.txt", tb.Format())
}

// TestViewIsolation proves the copy-on-write contract: mutating a view
// or a clone never leaks into the parent, and mutating the parent never
// changes rows a view already captured.
func TestViewIsolation(t *testing.T) {
	tb := goldenFixture()
	wantParent := tb.CSV()

	view, err := tb.Where("machine", String("ec2"))
	if err != nil {
		t.Fatal(err)
	}
	wantView := view.CSV()

	// Mutate the view: the parent must be untouched.
	view.MustAppend(String("new"), String("ec2"), Number(1), Number(1), String(""))
	if tb.CSV() != wantParent {
		t.Fatalf("view mutation leaked into parent:\n%s", tb.CSV())
	}

	// Mutate the parent: a snapshot view keeps its captured rows.
	snap, err := tb.Where("machine", String("cloudlab"))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := snap.CSV()
	tb.MustAppend(String("late"), String("cloudlab"), Number(2), Number(2), String(""))
	if snap.CSV() != wantSnap {
		t.Fatalf("parent append leaked into view:\n%s", snap.CSV())
	}

	// Clone is fully independent both ways.
	cl := tb.Clone()
	cl.MustAppend(String("cl"), String("cl"), Number(3), Number(3), String("c"))
	if tb.Len() == cl.Len() {
		t.Fatal("clone append changed parent length")
	}
	_ = wantView
}
