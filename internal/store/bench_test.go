package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// storeBenchRecord is one BENCH_store.json entry: one phase's exact
// disk I/O (bytes passed to WriteFile, file plus directory fsyncs,
// renames onto the manifest) and its wall-clock time per operation.
type storeBenchRecord struct {
	Ops       int     `json:"ops"`
	Writes    int     `json:"writes"`
	KBWritten float64 `json:"kb_written"`
	Fsyncs    int     `json:"fsyncs"`
	Commits   int     `json:"commits"`
	NsPerOp   float64 `json:"ns_per_op"`
	Clock     string  `json:"clock"`
}

// benchJournal returns a sweep journal of n rows.
func benchJournal(n int) []byte {
	journal := []byte("config,params,status,attempts,detail\n")
	for i := 0; i < n; i++ {
		journal = fmt.Appendf(journal, "%d,iterations=200 problem_size=24 seed=%d,ok,1,%x\n", i, 1000+i*37, sha256.Sum256([]byte{byte(i)}))
	}
	return journal
}

// TestWriteStoreBenchJSON records the durable journal path's cost in
// the warm-rerun shape: when BENCH_JSON names an output file (`make
// bench-json`), it commits a 114-entry workspace holding a 32-row sweep
// journal, Puts the journal again row by row, then runs the Sync whose
// files, and newest record, equal the committed tree — clean, so it
// does no I/O. Each phase records its exact I/O and its wall-clock ns
// per operation.
// BENCH_SMOKE=1 (wired into `make verify`) shrinks it to 16 entries and
// 4 rows.
func TestWriteStoreBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record store benchmarks")
	}
	entries, rows := 114, 32
	if os.Getenv("BENCH_SMOKE") != "" {
		entries, rows = 16, 4
	}
	const journalPath = "experiments/clover/sweep/journal.csv"
	files := map[string][]byte{".popper.yml": []byte("experiments:\n  - clover\n"), journalPath: benchJournal(rows)}
	for i := 0; len(files) < entries; i++ {
		files[fmt.Sprintf("experiments/clover/sweep/%03d/results.csv", i)] = []byte(fmt.Sprintf("metric,value\nthroughput,%d\n", 800+i))
	}
	c := &opCounter{VFS: NewMemFS(1)}
	st := New(c)
	records := make(map[string]storeBenchRecord)
	phase := func(name string, ops int, run func() error) {
		before := c.ioCounts
		start := time.Now()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := c.since(before)
		records[name] = storeBenchRecord{
			Ops: ops, Writes: d.writes, KBWritten: float64(d.bytes) / 1024,
			Fsyncs: d.flushes(), Commits: d.commits,
			NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(ops), Clock: "wall",
		}
	}
	sync := func() error { _, err := st.Sync(files); return err }
	phase(fmt.Sprintf("Sync/entries=%d", entries), 1, sync)
	phase(fmt.Sprintf("Put/journal-rows=%d", rows), rows, func() error {
		for n := 1; n <= rows; n++ {
			if err := st.Put(journalPath, benchJournal(n)); err != nil {
				return err
			}
		}
		return nil
	})
	phase("Sync/after-puts", 1, sync)
	if got, err := st.Load(); err != nil || !bytes.Equal(got[journalPath], files[journalPath]) {
		t.Fatalf("after the puts, Load's journal differs (err %v)", err)
	}
	if r := records["Sync/after-puts"]; r.Writes != 0 || r.Fsyncs != 0 || r.Commits != 0 {
		t.Errorf("the sync after the puts made %d write(s), %d fsync(s), %d commit(s), want none", r.Writes, r.Fsyncs, r.Commits)
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}
