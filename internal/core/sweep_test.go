package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"popper/internal/pipeline"
	"popper/internal/table"
)

// sweepProject builds a small cloverleaf project cheap enough to run
// many configurations of.
func sweepProject(t *testing.T) *Project {
	t.Helper()
	p := Init()
	if err := p.AddExperiment("cloverleaf", "sweep"); err != nil {
		t.Fatal(err)
	}
	p.SetParam("sweep", "nodes", "1,2")
	p.SetParam("sweep", "iterations", "2")
	p.SetParam("sweep", "problem_size", "8")
	return p
}

func TestRunSweepParallelMatchesSerial(t *testing.T) {
	configs := []map[string]string{
		{"seed": "1"}, {"seed": "2"}, {"seed": "3"}, {"seed": "4"},
	}
	run := func(jobs int) (*Project, SweepResult) {
		p := sweepProject(t)
		sr, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.Err(); err != nil {
			t.Fatal(err)
		}
		return p, sr
	}
	pSerial, srSerial := run(1)
	pParallel, srParallel := run(4)
	if !srSerial.Passed() || !srParallel.Passed() {
		t.Fatal("both sweeps must pass")
	}
	// Deterministic fan-out: the merged result table is byte-identical
	// regardless of worker count.
	serialCSV := string(pSerial.Files[expPath("sweep", "results.csv")])
	parallelCSV := string(pParallel.Files[expPath("sweep", "results.csv")])
	if serialCSV != parallelCSV {
		t.Fatalf("parallel merge diverged from serial:\n--- serial\n%s\n--- parallel\n%s", serialCSV, parallelCSV)
	}
	// Per-configuration outputs are namespaced by index.
	for _, rel := range []string{"sweep/000/results.csv", "sweep/003/results.csv"} {
		if _, ok := pParallel.Files[expPath("sweep", rel)]; !ok {
			t.Errorf("missing %s", rel)
		}
	}
	// ResultHashes line up config-by-config.
	for i := range srSerial.Runs {
		s, par := srSerial.Runs[i], srParallel.Runs[i]
		if s.Result.Record.ResultHash != par.Result.Record.ResultHash {
			t.Fatalf("config %d hash diverged: %s vs %s", i, s.Result.Record.ResultHash, par.Result.Record.ResultHash)
		}
	}
}

func TestRunSweepCollectsErrors(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{
		{"seed": "1"},
		{"nodes": "bogus"}, // non-integer node list fails the run stage
		{"seed": "3"},
	}
	sr, err := p.RunSweep("sweep", &Env{Seed: 1}, configs, SweepOptions{Jobs: 3})
	if err != nil {
		t.Fatalf("per-config failures must not surface as a sweep-level error: %v", err)
	}
	if sr.Passed() {
		t.Fatal("sweep with a failing config must not pass")
	}
	failed := sr.Failed()
	if len(failed) != 1 || failed[0].Index != 1 {
		t.Fatalf("failed = %+v", failed)
	}
	// The other configurations completed and merged.
	if sr.Runs[0].Err != nil || sr.Runs[2].Err != nil {
		t.Fatalf("healthy configs aborted: %v / %v", sr.Runs[0].Err, sr.Runs[2].Err)
	}
	if sr.Results == nil || sr.Results.Len() == 0 {
		t.Fatal("surviving configs must still merge results")
	}
	aggErr := sr.Err()
	if aggErr == nil {
		t.Fatal("aggregate error expected")
	}
	msg := aggErr.Error()
	if !strings.Contains(msg, "1/3 configurations failed") || !strings.Contains(msg, "nodes=bogus") {
		t.Fatalf("aggregate error = %q", msg)
	}
}

func TestRunSweepSharedCache(t *testing.T) {
	cache := pipeline.NewCache()
	// Configurations share the seed, so the setup stage (which depends
	// only on the seed parameter) is computed once and replayed for the
	// other configurations.
	configs := []map[string]string{
		{"iterations": "2"}, {"iterations": "3"},
	}
	p := sweepProject(t)
	sr, err := p.RunSweep("sweep", &Env{Seed: 2}, configs, SweepOptions{Jobs: 1, Cache: cache})
	if err != nil || sr.Err() != nil {
		t.Fatalf("first sweep: %v / %v", err, sr.Err())
	}
	coldHits := cache.Stats().Hits
	if coldHits == 0 {
		t.Fatal("setup stage should replay across same-seed configurations")
	}

	// An identical sweep replays every cacheable stage.
	p2 := sweepProject(t)
	sr2, err := p2.RunSweep("sweep", &Env{Seed: 2}, configs, SweepOptions{Jobs: 2, Cache: cache})
	if err != nil || sr2.Err() != nil {
		t.Fatalf("second sweep: %v / %v", err, sr2.Err())
	}
	for i, run := range sr2.Runs {
		if run.Result.Record.CacheHits != 3 {
			t.Fatalf("config %d: CacheHits = %d, want 3 (setup, run, post-run)\n%s",
				i, run.Result.Record.CacheHits, run.Result.Record.Log)
		}
	}
	// Cached replay reproduces the original results exactly.
	for i := range sr.Runs {
		if sr.Runs[i].Result.Record.ResultHash != sr2.Runs[i].Result.Record.ResultHash {
			t.Fatalf("config %d: cached replay changed the result hash", i)
		}
	}
	// A different environment seed is a different cache universe.
	p3 := sweepProject(t)
	sr3, err := p3.RunSweep("sweep", &Env{Seed: 3}, configs, SweepOptions{Jobs: 1, Cache: cache})
	if err != nil || sr3.Err() != nil {
		t.Fatalf("third sweep: %v / %v", err, sr3.Err())
	}
	if sr3.Runs[0].Result.Record.CacheHits != 0 {
		t.Fatal("changed env seed must miss the cache")
	}
}

func TestRunSweepMergedAnnotations(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{
		{"problem_size": "8"}, {"problem_size": "12"},
	}
	sr, err := p.RunSweep("sweep", &Env{Seed: 1}, configs, SweepOptions{})
	if err != nil || sr.Err() != nil {
		t.Fatalf("%v / %v", err, sr.Err())
	}
	if sr.Results == nil || !sr.Results.HasColumn("problem_size") {
		t.Fatalf("merged table must carry the swept parameter: %v", sr.Results.Columns())
	}
	// Two configurations x two node counts = four rows.
	if sr.Results.Len() != 4 {
		t.Fatalf("merged rows = %d, want 4\n%s", sr.Results.Len(), sr.Results.CSV())
	}
	seen := map[string]int{}
	for r := 0; r < sr.Results.Len(); r++ {
		seen[sr.Results.MustCell(r, "problem_size").Text()]++
	}
	if seen["8"] != 2 || seen["12"] != 2 {
		t.Fatalf("annotation counts = %v", seen)
	}
}

func TestRunSweepDefaults(t *testing.T) {
	p := sweepProject(t)
	sr, err := p.RunSweep("sweep", nil, nil, SweepOptions{})
	if err != nil || sr.Err() != nil {
		t.Fatalf("%v / %v", err, sr.Err())
	}
	if len(sr.Runs) != 1 || FormatOverrides(sr.Runs[0].Overrides) != "defaults" {
		t.Fatalf("runs = %+v", sr.Runs)
	}
	if !sr.Passed() {
		t.Fatal("default sweep must pass")
	}
}

func TestRunSweepUnknownExperiment(t *testing.T) {
	p := Init()
	if _, err := p.RunSweep("ghost", &Env{Seed: 1}, nil, SweepOptions{}); err == nil {
		t.Fatal("unknown experiment must fail at the sweep level")
	}
}

func TestParseSweep(t *testing.T) {
	configs, err := ParseSweep("seed: [1, 2]\nproblem_size: 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 {
		t.Fatalf("configs = %v", configs)
	}
	// Deterministic order: axes sorted by name, last axis fastest.
	if configs[0]["seed"] != "1" || configs[1]["seed"] != "2" {
		t.Fatalf("configs = %v", configs)
	}
	for _, c := range configs {
		if c["problem_size"] != "8" {
			t.Fatalf("scalar axis must pin a single value: %v", c)
		}
	}
	for _, bad := range []string{"", "axis: []\n"} {
		if _, err := ParseSweep(bad); err == nil {
			t.Fatalf("ParseSweep(%q) should fail", bad)
		}
	}
}

func TestFormatOverrides(t *testing.T) {
	if got := FormatOverrides(nil); got != "defaults" {
		t.Fatalf("nil overrides = %q", got)
	}
	if got := FormatOverrides(map[string]string{"b": "2", "a": "1"}); got != "a=1 b=2" {
		t.Fatalf("overrides = %q", got)
	}
}

func TestResumeErrorOnCorruptJournal(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{{"seed": "1"}, {"seed": "2"}}
	if _, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	journalPath := expPath("sweep", SweepJournalFile)
	raw := p.Files[journalPath]
	p.Files[journalPath] = raw[:len(raw)/2] // torn mid-row, as a crash would leave it
	_, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1, Resume: true})
	var rerr *ResumeError
	if !errors.As(err, &rerr) {
		t.Fatalf("want ResumeError for a torn journal, got %v", err)
	}
	if rerr.Experiment != "sweep" || rerr.Path != journalPath {
		t.Fatalf("ResumeError fields: %+v", rerr)
	}
	if !strings.Contains(err.Error(), "popper fsck") {
		t.Fatalf("error should point at the repair path: %v", err)
	}
}

func TestResumeErrorOnMissingJournalWithOutputs(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{{"seed": "1"}, {"seed": "2"}}
	if _, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	delete(p.Files, expPath("sweep", SweepJournalFile))
	_, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1, Resume: true})
	var rerr *ResumeError
	if !errors.As(err, &rerr) {
		t.Fatalf("want ResumeError when outputs exist without a journal, got %v", err)
	}
	// A genuinely fresh sweep (no outputs at all) resumes as a plain run.
	fresh := sweepProject(t)
	if _, err := fresh.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1, Resume: true}); err != nil {
		t.Fatalf("resume on a fresh project must fall through to a full run: %v", err)
	}
}

func TestDurableJournalIncremental(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{{"seed": "1"}, {"seed": "2"}, {"seed": "3"}}
	var mu sync.Mutex
	var calls [][]byte
	var paths []string
	sr, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{
		Jobs: 3,
		Durable: func(path string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			paths = append(paths, path)
			calls = append(calls, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil || !sr.Passed() {
		t.Fatalf("sweep: %v (passed=%v)", err, sr.Passed())
	}
	if len(calls) != len(configs) {
		t.Fatalf("want one durable write per completed config, got %d", len(calls))
	}
	journalPath := expPath("sweep", SweepJournalFile)
	for _, got := range paths {
		if got != journalPath {
			t.Fatalf("durable write path %q, want %q", got, journalPath)
		}
	}
	// The last incremental write is byte-identical to the journal the
	// final sync persists: that sync commits it unchanged.
	if want := string(p.Files[journalPath]); string(calls[len(calls)-1]) != want {
		t.Fatalf("final incremental journal differs from synced journal:\n--- incremental\n%s\n--- synced\n%s",
			calls[len(calls)-1], want)
	}
	// Every intermediate write parses and only ever grows.
	for i, c := range calls {
		ents, err := parseSweepJournal(c)
		if err != nil {
			t.Fatalf("incremental journal %d does not parse: %v", i, err)
		}
		if len(ents) != i+1 {
			t.Fatalf("incremental journal %d has %d rows, want %d", i, len(ents), i+1)
		}
	}
	// Every payload is the canonical rendering of its own rows.
	for i, c := range calls {
		if want := journalCSV(journalRows(t, c)); string(c) != string(want) {
			t.Fatalf("incremental journal %d is not the table rendering of its rows:\n%s\nwant\n%s", i, c, want)
		}
	}
	t.Run("shuffled-quoted-resumed-rows", testDurableJournalRendering)
	t.Run("resumed-and-failed-sweep", testDurableJournalResumedAndFailed)
}

// journalCSV is the reference rendering the durable journal must match
// byte for byte: the rows in configuration order through the same
// table the final sync writes.
func journalCSV(rows []journalRow) []byte {
	sorted := append([]journalRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	t := table.New("config", "params", "status", "attempts", "detail")
	for _, r := range sorted {
		t.MustAppend(
			table.Number(float64(r.index)), table.String(r.params), table.String(r.status),
			table.Number(float64(r.attempts)), table.String(r.detail))
	}
	return []byte(t.CSV())
}

// journalRows parses a journal payload back into rows.
func journalRows(t *testing.T, raw []byte) []journalRow {
	t.Helper()
	ents, err := parseSweepJournal(raw)
	if err != nil {
		t.Fatalf("journal does not parse: %v\n%s", err, raw)
	}
	rows := make([]journalRow, 0, len(ents))
	for idx, e := range ents {
		rows = append(rows, journalRow{index: idx, params: e.params, status: e.status, attempts: e.attempts, detail: e.detail})
	}
	return rows
}

// testDurableJournalRendering feeds the journal resumed rows and
// shuffled completions whose text needs CSV quoting: every payload must
// equal the reference rendering of the rows recorded so far.
func testDurableJournalRendering(t *testing.T) {
	details := []string{
		"3f2a9c", "", "plain error", "a,b", `say "hi"`, " leading space",
		journalDetail("line one\nline two\r\n"), `"quoted", and, commas`, "trailing space ",
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		rows := make([]journalRow, n)
		for i, idx := range rng.Perm(3 * n)[:n] { // distinct, shuffled, with gaps
			status := "ok"
			if rng.Intn(3) == 0 {
				status = "failed"
			}
			rows[i] = journalRow{
				index:    idx,
				params:   fmt.Sprintf("nodes=%d,%d seed=%d", rng.Intn(8), rng.Intn(8), idx),
				status:   status,
				attempts: 1 + rng.Intn(3),
				detail:   details[rng.Intn(len(details))],
			}
		}
		resumed := rng.Intn(n)
		var payloads [][]byte
		d := &durableJournal{path: "j.csv", write: func(_ string, data []byte) error {
			payloads = append(payloads, data)
			return nil
		}}
		for _, r := range rows[:resumed] {
			d.add(r)
		}
		for k, r := range rows[resumed:] {
			d.record(r)
			want := journalCSV(rows[:resumed+k+1])
			if got := payloads[len(payloads)-1]; string(got) != string(want) {
				t.Fatalf("seed %d, write %d:\n%s\nwant\n%s", seed, k, got, want)
			}
		}
		if len(payloads) != n-resumed {
			t.Fatalf("seed %d: %d writes for %d recorded rows", seed, len(payloads), n-resumed)
		}
	}
}

// testDurableJournalResumedAndFailed drives a resumed sweep whose
// journal already holds an ok and a failed row: each incremental
// payload carries the resumed rows plus one more completion, renders
// canonically, and the last equals the journal the final sync writes.
func testDurableJournalResumedAndFailed(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{
		{"seed": "1"}, {"nodes": "bogus"}, {"seed": "3"}, {"nodes": "x,y"}, {"seed": "5"}, {"seed": "6"},
	}
	if _, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls [][]byte
	sr, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{
		Jobs:   3,
		Resume: true,
		Durable: func(_ string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Runs[0].Resumed || !sr.Runs[1].Resumed || !sr.Runs[1].Quarantined || !sr.Runs[3].Quarantined {
		t.Fatalf("want configs 0-1 resumed (1 failed) and config 3 failed: %+v", sr.Runs)
	}
	if len(calls) != len(configs)-2 {
		t.Fatalf("want one durable write per newly completed config, got %d", len(calls))
	}
	for i, c := range calls {
		rows := journalRows(t, c)
		if len(rows) != 2+i+1 {
			t.Fatalf("incremental journal %d has %d rows, want %d", i, len(rows), 2+i+1)
		}
		if want := journalCSV(rows); string(c) != string(want) {
			t.Fatalf("incremental journal %d:\n%s\nwant\n%s", i, c, want)
		}
	}
	if want := string(p.Files[expPath("sweep", SweepJournalFile)]); string(calls[len(calls)-1]) != want {
		t.Fatalf("final incremental journal differs from synced journal:\n%s\nwant\n%s", calls[len(calls)-1], want)
	}
}

func TestDurableJournalErrorFailsSweep(t *testing.T) {
	p := sweepProject(t)
	configs := []map[string]string{{"seed": "1"}, {"seed": "2"}, {"seed": "3"}}
	boom := errors.New("disk on fire")
	var n int32
	_, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{
		Jobs: 1,
		Durable: func(string, []byte) error {
			atomic.AddInt32(&n, 1)
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("durable sink failure must fail the sweep: %v", err)
	}
	if atomic.LoadInt32(&n) != 1 {
		t.Fatalf("first durable error must stop further writes, got %d calls", n)
	}
}
