package table

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Table {
	t.Helper()
	tb, err := ParseCSV(`workload,machine,nodes,time
compile-git,cloudlab,1,100
compile-git,cloudlab,2,55
compile-git,cloudlab,4,32
compile-git,ec2,1,140
compile-git,ec2,2,80
fio,cloudlab,1,60
`)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestParseCSVTypes(t *testing.T) {
	tb := sample(t)
	if tb.Len() != 6 {
		t.Fatalf("rows = %d", tb.Len())
	}
	if got := tb.MustCell(0, "workload"); got.IsNum || got.Str != "compile-git" {
		t.Fatalf("workload cell = %#v", got)
	}
	if got := tb.MustCell(2, "time"); !got.IsNum || got.Num != 32 {
		t.Fatalf("time cell = %#v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sample(t)
	back, err := ParseCSV(tb.CSV())
	if err != nil {
		t.Fatal(err)
	}
	if back.CSV() != tb.CSV() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", tb.CSV(), back.CSV())
	}
}

func TestEmptyCSV(t *testing.T) {
	if _, err := ParseCSV(""); err == nil {
		t.Fatal("empty CSV should error")
	}
	tb, err := ParseCSV("a,b\n")
	if err != nil || tb.Len() != 0 {
		t.Fatalf("header-only CSV: %v, len %d", err, tb.Len())
	}
}

func TestAppendArity(t *testing.T) {
	tb := New("a", "b")
	if err := tb.Append(Number(1)); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := tb.Append(Number(1), String("x")); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestCellErrors(t *testing.T) {
	tb := sample(t)
	if _, err := tb.Cell(0, "nope"); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := tb.Cell(99, "time"); err == nil {
		t.Fatal("row out of range should fail")
	}
}

func TestWhere(t *testing.T) {
	tb := sample(t)
	sub, err := tb.Where("machine", String("ec2"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("ec2 rows = %d", sub.Len())
	}
	times, _ := sub.Floats("time")
	if !reflect.DeepEqual(times, []float64{140, 80}) {
		t.Fatalf("times = %v", times)
	}
}

func TestSelect(t *testing.T) {
	tb := sample(t)
	s, err := tb.Select("time", "nodes")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Columns(); !reflect.DeepEqual(got, []string{"time", "nodes"}) {
		t.Fatalf("cols = %v", got)
	}
	if _, err := tb.Select("missing"); err == nil {
		t.Fatal("select of missing column should fail")
	}
}

func TestSortBy(t *testing.T) {
	tb := sample(t)
	if err := tb.SortBy("machine", "time"); err != nil {
		t.Fatal(err)
	}
	first := tb.MustCell(0, "machine").Str
	if first != "cloudlab" {
		t.Fatalf("first machine = %q", first)
	}
	times, _ := tb.Floats("time")
	for i := 1; i < 4; i++ { // cloudlab rows sorted by time
		if times[i-1] > times[i] {
			t.Fatalf("cloudlab times not sorted: %v", times)
		}
	}
}

func TestGroupByAggregations(t *testing.T) {
	tb := sample(t)
	g, err := tb.GroupBy([]string{"machine"},
		Agg{Col: "time", Op: "mean"},
		Agg{Col: "time", Op: "count", As: "n"},
		Agg{Col: "time", Op: "min"},
		Agg{Col: "time", Op: "max"},
		Agg{Col: "time", Op: "sum"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	// cloudlab: 100,55,32,60 -> mean 61.75, min 32, max 100, sum 247
	row, err := g.Where("machine", String("cloudlab"))
	if err != nil {
		t.Fatal(err)
	}
	if v := row.MustCell(0, "mean_time").Num; v != 61.75 {
		t.Fatalf("mean = %v", v)
	}
	if v := row.MustCell(0, "n").Num; v != 4 {
		t.Fatalf("count = %v", v)
	}
	if v := row.MustCell(0, "min_time").Num; v != 32 {
		t.Fatalf("min = %v", v)
	}
	if v := row.MustCell(0, "max_time").Num; v != 100 {
		t.Fatalf("max = %v", v)
	}
	if v := row.MustCell(0, "sum_time").Num; v != 247 {
		t.Fatalf("sum = %v", v)
	}
}

func TestGroupByMedianStddevFirst(t *testing.T) {
	tb := New("k", "v")
	for _, v := range []float64{1, 3, 5, 7} {
		tb.MustAppend(String("a"), Number(v))
	}
	g, err := tb.GroupBy([]string{"k"},
		Agg{Col: "v", Op: "median"},
		Agg{Col: "v", Op: "stddev"},
		Agg{Col: "v", Op: "first"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m := g.MustCell(0, "median_v").Num; m != 4 {
		t.Fatalf("median = %v", m)
	}
	sd := g.MustCell(0, "stddev_v").Num
	if math.Abs(sd-2.5819888974716116) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
	if f := g.MustCell(0, "first_v").Num; f != 1 {
		t.Fatalf("first = %v", f)
	}
}

func TestGroupByErrors(t *testing.T) {
	tb := sample(t)
	if _, err := tb.GroupBy([]string{"zzz"}, Agg{Col: "time", Op: "mean"}); err == nil {
		t.Fatal("bad key should fail")
	}
	if _, err := tb.GroupBy([]string{"machine"}, Agg{Col: "zzz", Op: "mean"}); err == nil {
		t.Fatal("bad agg column should fail")
	}
	if _, err := tb.GroupBy([]string{"machine"}, Agg{Col: "time", Op: "exotic"}); err == nil {
		t.Fatal("bad op should fail")
	}
}

func TestJoin(t *testing.T) {
	left := New("machine", "time")
	left.MustAppend(String("cloudlab"), Number(10))
	left.MustAppend(String("ec2"), Number(20))
	left.MustAppend(String("unknown"), Number(30))
	right := New("machine", "cpus", "time")
	right.MustAppend(String("cloudlab"), Number(16), Number(1))
	right.MustAppend(String("ec2"), Number(8), Number(2))

	j, err := left.Join(right, "machine")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("join rows = %d", j.Len())
	}
	if !j.HasColumn("time_r") {
		t.Fatalf("collision column missing: %v", j.Columns())
	}
	if v := j.MustCell(0, "cpus").Num; v != 16 {
		t.Fatalf("cpus = %v", v)
	}
	if _, err := left.Join(right, "nope"); err == nil {
		t.Fatal("bad join key should fail")
	}
}

func TestConcat(t *testing.T) {
	a := New("x")
	a.MustAppend(Number(1))
	b := New("x")
	b.MustAppend(Number(2))
	if err := a.Concat(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("len = %d", a.Len())
	}
	c := New("y")
	if err := a.Concat(c); err == nil {
		t.Fatal("mismatched concat should fail")
	}
}

func TestUnique(t *testing.T) {
	tb := sample(t)
	u, err := tb.Unique("machine")
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 2 || u[0].Str != "cloudlab" || u[1].Str != "ec2" {
		t.Fatalf("unique = %v", u)
	}
}

func TestClone(t *testing.T) {
	tb := sample(t)
	cp := tb.Clone()
	cp.MustAppend(String("x"), String("y"), Number(0), Number(0))
	if tb.Len() == cp.Len() {
		t.Fatal("clone should be independent")
	}
}

func TestFormatAligned(t *testing.T) {
	tb := New("name", "v")
	tb.MustAppend(String("long-name-here"), Number(1))
	out := tb.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("format lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if m := Median(xs); m != 4.5 {
		t.Fatalf("median = %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2.138089935299395) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
	if cv := CoeffVar(xs); math.Abs(cv-2.138089935299395/5) > 1e-12 {
		t.Fatalf("cv = %v", cv)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Fatal("empty mean/median should be NaN")
	}
	if StdDev([]float64{3}) != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
	if !math.IsNaN(CoeffVar([]float64{0, 0})) {
		t.Fatal("zero-mean CV should be NaN")
	}
}

func TestValueOrdering(t *testing.T) {
	if !Number(math.NaN()).Equal(Number(math.NaN())) {
		t.Fatal("NaN cells should compare equal for grouping purposes")
	}
}

// Property: GroupBy(count) partitions rows — counts sum to Len.
func TestQuickGroupPartition(t *testing.T) {
	f := func(keys []uint8, vals []int16) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		tb := New("k", "v")
		for i := 0; i < n; i++ {
			tb.MustAppend(String(string(rune('a'+keys[i]%5))), Number(float64(vals[i])))
		}
		g, err := tb.GroupBy([]string{"k"}, Agg{Col: "v", Op: "count", As: "n"})
		if err != nil {
			return false
		}
		total := 0.0
		for r := 0; r < g.Len(); r++ {
			total += g.MustCell(r, "n").Num
		}
		return int(total) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting is a permutation (same multiset of values).
func TestQuickSortPermutation(t *testing.T) {
	f := func(vals []int16) bool {
		tb := New("v")
		for _, v := range vals {
			tb.MustAppend(Number(float64(v)))
		}
		before, _ := tb.Floats("v")
		if err := tb.SortBy("v"); err != nil {
			return false
		}
		after, _ := tb.Floats("v")
		if len(before) != len(after) {
			return false
		}
		count := map[float64]int{}
		for _, v := range before {
			count[v]++
		}
		for _, v := range after {
			count[v]--
		}
		for i := 1; i < len(after); i++ {
			if after[i-1] > after[i] {
				return false
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV round trip preserves shape and numeric cells.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(vals []float64, tags []uint8) bool {
		n := len(vals)
		if len(tags) < n {
			n = len(tags)
		}
		tb := New("num", "tag")
		for i := 0; i < n; i++ {
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			tb.MustAppend(Number(v), String(string(rune('a'+tags[i]%26))))
		}
		back, err := ParseCSV(tb.CSV())
		if err != nil {
			return false
		}
		if back.Len() != tb.Len() {
			return false
		}
		for r := 0; r < tb.Len(); r++ {
			if !back.MustCell(r, "num").Equal(tb.MustCell(r, "num")) {
				return false
			}
			if !back.MustCell(r, "tag").Equal(tb.MustCell(r, "tag")) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
