package scrub

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"popper/internal/store"
)

// benchWorkspace builds a deterministic n-file workspace mixing
// packable (≤ 4 KiB) and loose-sized payloads, so a scrub pass walks
// both object pools and the packed extents.
func benchWorkspace(n int) map[string][]byte {
	w := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		size := 512 + (i%8)*2048 // 512 B .. ~15 KiB, crossing the pack threshold
		body := make([]byte, size)
		for j := range body {
			body[j] = byte(i + j*7)
		}
		w[fmt.Sprintf("exp/data-%03d.bin", i)] = body
	}
	return w
}

// scrubBenchRecord is one BENCH_scrub.json entry. ns_per_op is
// wall-clock time; the KiB read are exact counts.
type scrubBenchRecord struct {
	NsPerOp      float64        `json:"ns_per_op"`
	Clock        string         `json:"clock"`
	KiBRead      []float64      `json:"kib_read_per_replica,omitempty"`
	TreeKiB      []float64      `json:"tree_kib_per_replica,omitempty"`
	Entries      int            `json:"entries_verified,omitempty"`
	Bytes        int64          `json:"bytes_verified,omitempty"`
	Findings     int            `json:"findings,omitempty"`
	Healed       int            `json:"healed,omitempty"`
	Unrepairable int            `json:"unrepairable,omitempty"`
	HealedBy     map[string]int `json:"healed_by_source,omitempty"`
}

func bySourceNames(rep *Report) map[string]int {
	out := make(map[string]int)
	for _, rung := range store.Rungs {
		if n := healedFrom(rep, rung); n > 0 {
			out[rung.String()] = n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestWriteScrubBenchJSON records the scrubber's perf trajectory
// (scrubBenchRecords over a 256-file tree) when BENCH_JSON names an
// output file (`make bench-json`). BENCH_SMOKE=1 (wired into `make
// verify`) shrinks the tree to 24 files so regressions in the scrub
// path fail the full loop without a long run.
func TestWriteScrubBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record scrub benchmarks")
	}
	files := 256
	if os.Getenv("BENCH_SMOKE") != "" {
		files = 24
	}
	data, err := json.MarshalIndent(scrubBenchRecords(t, files), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote benchmark records to %s", out)
}

// TestScrubBenchJSONExactCounts runs the recorder's passes and requires
// each one's exact fields — the entries and bytes verified, the
// findings, heals and unrepairables, the heals by source, and the KiB
// each replica reads beside its tree's size — to equal the committed
// BENCH_scrub.json's. Only ns_per_op is left to the wall clock: a
// change to what a scrub, heal or group open reads or finds fails here
// until `make bench-json` records it.
func TestScrubBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_scrub.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]scrubBenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	got := scrubBenchRecords(t, 256)
	if len(got) != len(committed) {
		t.Errorf("the recorder has %d passes, BENCH_scrub.json %d", len(got), len(committed))
	}
	for name, want := range committed {
		g, ok := got[name]
		if !ok {
			t.Errorf("BENCH_scrub.json records %s, which the recorder does not run", name)
			continue
		}
		g.NsPerOp, g.Clock = want.NsPerOp, want.Clock
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s: the recorder measures %+v, BENCH_scrub.json holds %+v", name, g, want)
		}
	}
}

// scrubBenchRecords runs the recorder's passes over an n-file tree: a
// clean-tree verification pass (wall clock) with its entry and byte
// counts; on a 3-replica group, the KiB each replica reads when the
// group is opened and in a detect-only group pass, audit included,
// beside each replica tree's size; and a group heal pass's
// findings-by-rung breakdown.
func scrubBenchRecords(t *testing.T, files int) map[string]scrubBenchRecord {
	t.Helper()
	records := make(map[string]scrubBenchRecord)

	// Clean-tree scrub: detect-only walk of a committed store.
	fs := store.NewMemFS(11)
	st := store.New(fs)
	if _, err := st.Sync(benchWorkspace(files)); err != nil {
		t.Fatal(err)
	}
	sc := New(st, Options{})
	start := time.Now()
	rep, err := sc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("bench store is not clean:\n%s", rep.Format())
	}
	records["BenchmarkScrubCleanTree"] = scrubBenchRecord{
		NsPerOp: float64(time.Since(start).Nanoseconds()),
		Clock:   "wall",
		Entries: rep.Scanned,
		Bytes:   rep.Bytes,
	}

	// Group open and clean group pass: the bytes each replica reads.
	g := memGroup(t, 3, 11)
	if _, err := g.Sync(benchWorkspace(files)); err != nil {
		t.Fatal(err)
	}
	readKiB := func() []float64 {
		out := make([]float64, len(g.cs))
		for id, c := range g.cs {
			out[id] = float64(c.takeReadBytes()) / 1024
		}
		return out
	}
	var treeKiB []float64
	for id := 0; id < g.Size(); id++ {
		n := 0
		for _, content := range mustImage(t, g.Store(id)) {
			n += len(content)
		}
		treeKiB = append(treeKiB, float64(n)/1024)
	}
	readKiB()
	start = time.Now()
	g2 := reopen(t, g, 11)
	records["BenchmarkReplOpen"] = scrubBenchRecord{
		NsPerOp: float64(time.Since(start).Nanoseconds()),
		Clock:   "wall",
		KiBRead: readKiB(),
		TreeKiB: treeKiB,
	}
	start = time.Now()
	crep, err := New(nil, Options{Group: g2.Group}).Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Clean() {
		t.Fatalf("bench group is not clean:\n%s", crep.Format())
	}
	records["BenchmarkScrubGroupClean"] = scrubBenchRecord{
		NsPerOp: float64(time.Since(start).Nanoseconds()),
		Clock:   "wall",
		KiBRead: readKiB(),
		TreeKiB: treeKiB,
		Entries: crep.Scanned,
		Bytes:   crep.Bytes,
	}

	// Group heal: rot a slice of the primary's tree at rest, then time a
	// repair pass healing everything from the quorum.
	gsc := New(nil, Options{Repair: true, Group: g.Group})
	rot := files / 8
	for i := 0; i < rot; i++ {
		path := fmt.Sprintf("exp/data-%03d.bin", i*8)
		if hit := g.fss[0].Rot(path, 1); len(hit) != 1 {
			t.Fatalf("rot touched %v", hit)
		}
	}
	start = time.Now()
	hrep, err := gsc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	records["BenchmarkScrubGroupHeal"] = scrubBenchRecord{
		NsPerOp:      float64(time.Since(start).Nanoseconds()),
		Clock:        "wall",
		Entries:      hrep.Scanned,
		Bytes:        hrep.Bytes,
		Findings:     len(hrep.Findings),
		Healed:       hrep.Count(store.Healed),
		Unrepairable: unrepairable(hrep),
		HealedBy:     bySourceNames(hrep),
	}
	if hrep.Count(store.Healed) < rot || unrepairable(hrep) != 0 {
		t.Errorf("group heal bench: %d healed (want >= %d), %d unrepairable:\n%s", hrep.Count(store.Healed), rot, unrepairable(hrep), hrep.Format())
	}
	return records
}
