package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// storeBenchRecord is one BENCH_store.json entry: one phase's exact
// disk I/O (bytes passed to WriteFile, file plus directory fsyncs,
// renames onto the manifest, files read and their bytes) and its
// wall-clock time per operation.
type storeBenchRecord struct {
	Ops       int     `json:"ops"`
	Writes    int     `json:"writes"`
	KBWritten float64 `json:"kb_written"`
	Fsyncs    int     `json:"fsyncs"`
	Commits   int     `json:"commits"`
	Reads     int     `json:"reads"`
	KBRead    float64 `json:"kb_read"`
	NsPerOp   float64 `json:"ns_per_op"`
	Clock     string  `json:"clock"`
}

// benchJournal returns a sweep journal of n rows.
func benchJournal(n int) []byte {
	done := make([]int, n)
	for i := range done {
		done[i] = i
	}
	return benchJournalOf(done)
}

// benchJournalOf returns the sweep journal once the given configurations
// finished, in any order: their rows, in index order.
func benchJournalOf(done []int) []byte {
	done = slices.Clone(done)
	slices.Sort(done)
	journal := []byte(benchJournalHeader)
	for _, i := range done {
		journal = append(journal, benchRow(i)...)
	}
	return journal
}

const benchJournalHeader = "config,params,status,attempts,detail\n"

// benchRow renders configuration i's journal row.
func benchRow(i int) []byte {
	return fmt.Appendf(nil, "%d,iterations=200 problem_size=24 seed=%d,ok,1,%x\n", i, 1000+i*37, sha256.Sum256([]byte{byte(i)}))
}

// storeBenchPhases runs the store's commit and durable journal phases
// and returns each one's exact I/O and wall-clock ns per operation. It
// commits a 114-entry workspace holding a 32-row sweep journal, one
// file per directory, Puts the journal again row by row (the warm
// re-run: the last Put is the committed journal), runs the Sync whose
// files and heads equal the committed tree — clean, so it does no I/O
// — then Puts the 32 rows again in a fixed shuffled order, as workers
// finish them, and last grows a 1,000-row journal in a fixed shuffled
// order. Beside them, on a store of its own, it commits a sweep's
// outputs in cold-sweep's layout: three files in each of 32
// configuration directories. smoke shrinks it to 16 entries, 4 rows, 16
// and 4 configurations.
func storeBenchPhases(t *testing.T, smoke bool) map[string]storeBenchRecord {
	t.Helper()
	entries, rows, big, configs := 114, 32, 1000, 32
	if smoke {
		entries, rows, big, configs = 16, 4, 16, 4
	}
	const journalPath = "experiments/clover/sweep/journal.csv"
	files := map[string][]byte{".popper.yml": []byte("experiments:\n  - clover\n"), journalPath: benchJournal(rows)}
	for i := 0; len(files) < entries; i++ {
		files[fmt.Sprintf("experiments/clover/sweep/%03d/results.csv", i)] = []byte(fmt.Sprintf("metric,value\nthroughput,%d\n", 800+i))
	}
	c := &opCounter{VFS: NewMemFS(1)}
	st := New(c)
	records := make(map[string]storeBenchRecord)
	phase := func(c *opCounter, name string, ops int, run func() error) {
		before := c.ioCounts
		start := time.Now()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := c.since(before)
		records[name] = storeBenchRecord{
			Ops: ops, Writes: d.writes, KBWritten: float64(d.bytes) / 1024,
			Fsyncs: d.flushes(), Commits: d.commits,
			Reads: d.fileReads, KBRead: float64(d.readBytes) / 1024,
			NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(ops), Clock: "wall",
		}
	}
	// putRows Puts the journal as each configuration in order finishes,
	// rendering each row once, as the sweep's journal does.
	putRows := func(order []int) func() error {
		rendered := make([][]byte, len(order))
		for _, i := range order {
			rendered[i] = benchRow(i)
		}
		return func() error {
			var done []int
			size := len(benchJournalHeader)
			for _, i := range order {
				at, _ := slices.BinarySearch(done, i)
				done = slices.Insert(done, at, i)
				size += len(rendered[i])
				journal := make([]byte, 0, size)
				journal = append(journal, benchJournalHeader...)
				for _, j := range done {
					journal = append(journal, rendered[j]...)
				}
				if err := st.Put(journalPath, journal); err != nil {
					return err
				}
			}
			return nil
		}
	}
	inOrder := make([]int, rows)
	for i := range inOrder {
		inOrder[i] = i
	}
	sync := func() error { _, err := st.Sync(files); return err }
	phase(c, fmt.Sprintf("Sync/entries=%d", entries), 1, sync)
	phase(c, fmt.Sprintf("Put/journal-rows=%d", rows), rows, putRows(inOrder))
	phase(c, "Sync/after-puts", 1, sync)
	phase(c, fmt.Sprintf("Put/journal-rows=%d/shuffled", rows), rows, putRows(rand.New(rand.NewSource(1)).Perm(rows)))
	if got, err := st.Load(); err != nil || !bytes.Equal(got[journalPath], files[journalPath]) {
		t.Fatalf("after the puts, Load's journal differs (err %v)", err)
	}
	if r := records["Sync/after-puts"]; r.Writes != 0 || r.Fsyncs != 0 || r.Commits != 0 {
		t.Errorf("the sync after the puts made %d write(s), %d fsync(s), %d commit(s), want none", r.Writes, r.Fsyncs, r.Commits)
	}
	order := rand.New(rand.NewSource(2)).Perm(big)
	phase(c, fmt.Sprintf("Put/journal-rows=%d/shuffled", big), big, putRows(order))
	// A reopened store replays the whole chain the shuffled puts left.
	const loads = 8
	want := benchJournal(big)
	phase(c, fmt.Sprintf("Load/journal-rows=%d/shuffled", big), loads, func() error {
		for i := 0; i < loads; i++ {
			got, err := New(c).Load()
			if err != nil {
				return err
			}
			if !bytes.Equal(got[journalPath], want) {
				return fmt.Errorf("after the %d-row puts, Load's journal differs", big)
			}
		}
		return nil
	})

	// cold-sweep's final commit: over the committed experiment, the
	// sweep's 32 configuration directories of figure.svg, figure.txt
	// and results.csv, plus the merged results, the journal and
	// sweep.yml — small files, all packed into the generation's extent.
	const exp = "experiments/clover/"
	base := map[string][]byte{
		".popper.yml":             []byte("experiments:\n  - clover\n"),
		exp + "README.md":         []byte("# clover\n"),
		exp + "run.sh":            []byte("#!/bin/sh\nexec popper-run cloverleaf\n"),
		exp + "setup.yml":         []byte("- name: setup\n"),
		exp + "vars.yml":          []byte("iterations: 200\nproblem_size: 24\n"),
		exp + "validations.aver":  []byte("expect time > 0\n"),
		exp + "datasets/.gitkeep": {},
	}
	sc := &opCounter{VFS: NewMemFS(1)}
	sweepStore := New(sc)
	if _, err := sweepStore.Sync(base); err != nil {
		t.Fatalf("commit the experiment: %v", err)
	}
	sweep := maps.Clone(base)
	sweep[exp+"sweep/journal.csv"] = benchJournal(configs)
	seeds := make([]string, configs)
	merged := []byte("config,seed,metric,value\n")
	for i := 0; i < configs; i++ {
		seeds[i] = fmt.Sprint(1000 + i*37)
		dir := fmt.Sprintf("%ssweep/%03d/", exp, i)
		row := fmt.Sprintf("throughput,%d\n", 800+i)
		merged = fmt.Appendf(merged, "%03d,%s,%s", i, seeds[i], row)
		sweep[dir+"results.csv"] = []byte("metric,value\n" + row)
		sweep[dir+"figure.txt"] = bytes.Repeat([]byte(fmt.Sprintf("%03d |%s\n", i, strings.Repeat("#", 40))), 40)
		sweep[dir+"figure.svg"] = fmt.Appendf(nil, "<svg><rect width=\"%d\"/>%s</svg>\n", 800+i, strings.Repeat("<g/>", 160))
	}
	sweep[exp+"results.csv"] = merged
	sweep[exp+"sweep.yml"] = []byte("seed: [" + strings.Join(seeds, ", ") + "]\niterations: 200\nproblem_size: 24\n")
	phase(sc, fmt.Sprintf("Sync/sweep-configs=%d", configs), 1, func() error { _, err := sweepStore.Sync(sweep); return err })
	return records
}

// TestWriteStoreBenchJSON records the durable journal path's phases
// (storeBenchPhases) when BENCH_JSON names an output file (`make
// bench-json`). BENCH_SMOKE=1 (wired into `make verify`) shrinks them.
func TestWriteStoreBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record store benchmarks")
	}
	records := storeBenchPhases(t, os.Getenv("BENCH_SMOKE") != "")
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}

// TestStoreBenchJSONExactCounts runs the recorder's phases and requires
// each one's exact fields — ops, writes, kb_written, fsyncs, commits,
// reads and kb_read — to equal the committed BENCH_store.json's. Only ns_per_op is left
// to the wall clock: a change to the journal path's I/O fails here until
// `make bench-json` records it.
func TestStoreBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_store.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]storeBenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	got := storeBenchPhases(t, false)
	if len(got) != len(committed) {
		t.Errorf("the recorder has %d phases, BENCH_store.json %d", len(got), len(committed))
	}
	for name, want := range committed {
		g, ok := got[name]
		if !ok {
			t.Errorf("BENCH_store.json records %s, which the recorder does not run", name)
			continue
		}
		g.NsPerOp, g.Clock = want.NsPerOp, want.Clock
		if g != want {
			t.Errorf("%s: the recorder measures %+v, BENCH_store.json holds %+v", name, g, want)
		}
	}
}
