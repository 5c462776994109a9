package main

import (
	"errors"
	"io/fs"
	"reflect"
	"testing"
	"time"

	"popper/internal/store"
)

func TestCountingFSCountsEveryCall(t *testing.T) {
	c := &ioCounters{}
	v := countingFS{VFS: newMemFS(), c: c}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(v.WriteFile("a/x.ptmp", []byte("hello")))
	must(v.WriteFile("a/empty", nil))
	must(v.Sync("a/x.ptmp"))
	must(v.Rename("a/x.ptmp", "a/x"))
	must(v.SyncDir("a"))
	must(v.WriteFile(".popper/manifest.next", []byte("m")))
	must(v.Rename(".popper/manifest.next", manifestPath))
	if _, err := v.ReadFile("a/x"); err != nil {
		t.Fatal(err)
	}
	got := c.snapshot()
	want := ioCounts{Writes: 3, WriteBytes: 6, Fsyncs: 1, DirFsyncs: 1, Commits: 1, Reads: 1, ReadBytes: 5}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if d := got.sub(ioCounts{Writes: 1, WriteBytes: 5}); d.Writes != 2 || d.WriteBytes != 1 || d.AllFsyncs() != 2 {
		t.Fatalf("sub = %+v", d)
	}
}

func TestMemFSKeepsDirFSNamespaceRules(t *testing.T) {
	m := newMemFS()
	for _, p := range []string{"b", "a/empty", ".popper/objects/x", ".popper-replicas/r1/a", ".popper.yml"} {
		if err := m.WriteFile(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	// An empty file is a file, not an absence.
	if n, err := m.Stat("a/empty"); err != nil || n != 0 {
		t.Fatalf("Stat(empty) = %d, %v", n, err)
	}
	got, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".popper.yml", ".popper/objects/x", "a/empty", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if err := m.Sync("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Sync(missing) = %v, want ErrNotExist", err)
	}
	if err := m.SyncDir("never/made"); err != nil {
		t.Fatalf("SyncDir(absent) = %v, want nil as on DirFS", err)
	}
}

func TestCountingFSUnderStore(t *testing.T) {
	c := &ioCounters{}
	v := countingFS{VFS: newMemFS(), c: c}
	st := store.New(v)
	if _, err := st.Sync(map[string][]byte{"README.md": []byte("x"), "experiments/.gitkeep": {}}); err != nil {
		t.Fatal(err)
	}
	first := c.snapshot()
	if first.Commits != 1 || first.Writes == 0 || first.Fsyncs != first.Writes {
		t.Fatalf("first sync counts = %+v (want one commit, one fsync per atomic write)", first)
	}
	// A sync of an unchanged workspace does no I/O.
	if _, err := st.Sync(map[string][]byte{"README.md": []byte("x"), "experiments/.gitkeep": {}}); err != nil {
		t.Fatal(err)
	}
	if d := c.snapshot().sub(first); d.Writes != 0 || d.AllFsyncs() != 0 || d.Commits != 0 {
		t.Fatalf("clean sync did I/O: %+v", d)
	}
}

func TestTailPicksHighestOrderStatisticWithTenBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatal("tail of 10 samples: want none")
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v at p%v, %v; want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if v, pct, _ := tail(xs[:11]); v != 90 || pct < 9.09 || pct > 9.1 {
		t.Fatalf("tail of 11 samples = %v at p%v, want the smallest at p9.09", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "core.run_sweep", Parent: -1, Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 40): 30 ms, not 40.
		{Name: "store.put", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "cas.fallback", Parent: 0, Start: 20 * ms, End: 40 * ms},
		// A child running past its parent counts only inside it.
		{Name: "store.put", Parent: 0, Start: 90 * ms, End: 120 * ms},
		{Name: "store.sync", Parent: -1, Start: 120 * ms, End: 150 * ms},
		// A grandchild is part of its parent's children, not the root's.
		{Name: "inner", Parent: 3, Start: 95 * ms, End: 100 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{60 * ms, 20 * ms, 20 * ms, 25 * ms, 30 * ms, 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestStationarity(t *testing.T) {
	op := func(input int, writes, bytes int64) sample {
		return sample{input: input, io: ioCounts{Writes: writes, WriteBytes: bytes, Fsyncs: writes, Commits: 1}}
	}
	steady := []sample{op(0, 10, 1000), op(1, 12, 5000), op(0, 10, 1009), op(1, 12, 5000)}
	if err := stationary(steady); err != nil {
		t.Fatalf("steady run: %v", err)
	}
	if err := stationary([]sample{op(0, 10, 1000), op(0, 11, 1000)}); err == nil {
		t.Fatal("growing file count: want a failure")
	}
	if err := stationary([]sample{op(0, 10, 1000), op(0, 10, 1011)}); err == nil {
		t.Fatal("bytes grown 1.1%: want a failure")
	}
}
