package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"popper/internal/cas"
	"popper/internal/fault"
)

// chaosSeed mirrors the convention used by the core golden chaos
// suite: `make crash` sweeps the matrix via CHAOS_SEED, plain `go
// test` stays deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 42
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer", raw)
	}
	return seed
}

func w1() map[string][]byte {
	return map[string][]byte{
		".popper.yml":   []byte("experiments:\n  - exp\n"),
		"exp/run.sh":    []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml":  []byte("alpha: 1\n"),
		"exp/stale.txt": []byte("only in the first generation\n"),
	}
}

const (
	j1  = "config,status\n001,ok\n"
	j2  = "config,status\n001,ok\n002,ok\n"
	j13 = "config,status\n001,ok\n003,ok\n" // 003 finished before 002
	j3  = "config,status\n001,ok\n002,ok\n003,ok\n"
)

func w2() map[string][]byte {
	return map[string][]byte{
		".popper.yml":     []byte("experiments:\n  - exp\n"),
		"exp/run.sh":      []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml":    []byte("alpha: 2\n"),
		"exp/journal.csv": []byte(j3),
		"exp/results.csv": []byte("metric,value\nthroughput,812\n"),
	}
}

// w3 is a sweep-shaped generation. Against w2 and wAllNew it changes
// files in the root and in exp, adds two configurations' outputs in
// new directories, one of them too big to pack into the extent, and
// prunes exp/run.sh: its sync flushes six directories in one batch.
func w3() map[string][]byte {
	return map[string][]byte{
		".popper.yml":               []byte("experiments:\n  - exp\n  - sweep\n"),
		"exp/vars.yml":              []byte("alpha: 4\n"),
		"exp/journal.csv":           []byte(j3),
		"exp/results.csv":           []byte("config,metric,value\n000,throughput,810\n001,throughput,815\n"),
		"exp/sweep/000/results.csv": []byte("metric,value\nthroughput,810\n"),
		"exp/sweep/000/figure.txt":  []byte("throughput 810 |#########\n"),
		"exp/sweep/001/results.csv": []byte("metric,value\nthroughput,815\n"),
		"exp/sweep/001/figure.svg":  bytes.Repeat([]byte("<rect/>\n"), smallObjectMax/8+1),
	}
}

// crashSteps is the canonical mutation sequence the crash matrix
// enumerates: an initial committed generation; a journal growing row
// by row through durable writes — a full record, then links, the last
// one inserting a row in the middle, as when rows finish out of order —
// folded by a sync that changes, adds and prunes files; a second round
// in the warm-rerun shape — the same journal writes, the last of which
// is the committed journal and so writes the empty committed record,
// then a sync whose files and heads equal the committed tree, which
// commits nothing; a third round cut short, then a sync of the
// unchanged committed tree, which puts the committed journal back; and
// a fourth, another re-run whose rows finish out of order and whose
// last Put, the committed journal again, writes the empty committed
// record over a chain of a full record and a link; a fifth, the sync
// of w3, which stages its files, its extent and a loose object into six
// directories and flushes each once before it commits, and whose gc
// evicts the first generation's extent, which drops the store's extent
// index; and last the sync back to w2, which rebuilds that index by
// reading every extent and re-packs the content the eviction took.
var crashSteps = []func(st *Store) error{
	func(st *Store) error { _, err := st.Sync(w1()); return err },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j1)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j13)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j3)) },
	func(st *Store) error { _, err := st.Sync(w2()); return err },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j1)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j2)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j3)) },
	func(st *Store) error { _, err := st.Sync(w2()); return err },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j1)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j2)) },
	func(st *Store) error { _, err := st.Sync(w2()); return err },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j1)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j13)) },
	func(st *Store) error { return st.Put("exp/journal.csv", []byte(j3)) },
	func(st *Store) error { _, err := st.Sync(w2()); return err },
	func(st *Store) error { _, err := st.Sync(w3()); return err },
	func(st *Store) error { _, err := st.Sync(w2()); return err },
}

// crashJournal is the journal Load returns once each step returned
// ("" while there is none).
var crashJournal = []string{"", j1, j13, j3, j3, j1, j2, j3, j3, j1, j2, j3, j1, j13, j3, j3, j3, j3}

// crashScenario runs the steps and reports how many returned.
func crashScenario(st *Store) (int, error) {
	for i, step := range crashSteps {
		if err := step(st); err != nil {
			return i, err
		}
	}
	return len(crashSteps), nil
}

// wantDurableJournal asserts Load's journal is one a crash during step
// done may leave: what the last returned step left, or what the step in
// flight wrote. Nothing a Put returned from is lost before its fold
// commits, and no record a crash resurrects after the fold shows.
func wantDurableJournal(t *testing.T, st *Store, done int, when string) {
	t.Helper()
	files, err := st.Load()
	if err != nil {
		t.Fatalf("%s: load: %v", when, err)
	}
	got, prev := string(files["exp/journal.csv"]), ""
	if done > 0 {
		prev = crashJournal[done-1]
	}
	if got != prev && got != crashJournal[done] {
		t.Fatalf("%s: crash in step %d: Load's journal is %q, want %q or %q", when, done, got, prev, crashJournal[done])
	}
}

// trackedTree reads every tracked file from a VFS.
func trackedTree(t *testing.T, v VFS) map[string]string {
	t.Helper()
	paths, err := v.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	out := make(map[string]string)
	for _, p := range paths {
		if !Tracked(p) {
			continue
		}
		content, err := v.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		out[p] = string(content)
	}
	return out
}

func mustSync(t *testing.T, st *Store, files map[string][]byte) SyncStats {
	t.Helper()
	stats, err := st.Sync(files)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	return stats
}

func mustCleanVerify(t *testing.T, st *Store, when string) {
	t.Helper()
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify %s: %v", when, err)
	}
	if !rep.Clean() {
		t.Fatalf("verify %s not clean:\n%s", when, rep.Format())
	}
}

// mustRepair runs one repair pass: verify, plan, apply. It returns the
// report with every finding's outcome and the applied actions.
func mustRepair(t *testing.T, st *Store, q Quorum) *Report {
	t.Helper()
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	plan, err := st.Plan(rep, q)
	if err != nil {
		t.Fatalf("plan: %v\n%s", err, rep.Format())
	}
	if err := st.Apply(rep, plan); err != nil {
		t.Fatalf("apply: %v\n%s", err, rep.Format())
	}
	return rep
}

// opCounter wraps a VFS and counts the operations that change it, in
// all and by kind, and the reads; a commit is a rename onto the
// committed manifest. While reads is non-nil it also counts each path's
// reads.
type opCounter struct {
	VFS
	mutations int
	ioCounts
	reads map[string]int
}

func (c *opCounter) ReadFile(path string) ([]byte, error) {
	if c.reads != nil {
		c.reads[path]++
	}
	data, err := c.VFS.ReadFile(path)
	if err == nil {
		c.fileReads++
		c.readBytes += len(data)
	}
	return data, err
}

// ioCounts tallies disk I/O by kind: fileReads and readBytes count the
// reads that found a file.
type ioCounts struct {
	writes, bytes, fsyncs, dirSyncs, renames, removes, commits int
	fileReads, readBytes                                       int
}

// flushes is the file plus directory fsync count.
func (c ioCounts) flushes() int { return c.fsyncs + c.dirSyncs }

func (c *opCounter) WriteFile(path string, data []byte) error {
	c.mutations++
	c.writes++
	c.bytes += len(data)
	return c.VFS.WriteFile(path, data)
}

func (c *opCounter) Rename(oldPath, newPath string) error {
	c.mutations++
	c.renames++
	if newPath == manifestPath {
		c.commits++
	}
	return c.VFS.Rename(oldPath, newPath)
}

func (c *opCounter) Remove(path string) error {
	c.mutations++
	c.removes++
	return c.VFS.Remove(path)
}

func (c *opCounter) Sync(path string) error {
	c.mutations++
	c.fsyncs++
	return c.VFS.Sync(path)
}

func (c *opCounter) SyncDir(dir string) error {
	c.mutations++
	c.dirSyncs++
	return c.VFS.SyncDir(dir)
}

// since returns the I/O done after an earlier snapshot.
func (c *opCounter) since(before ioCounts) ioCounts {
	return ioCounts{
		writes: c.writes - before.writes, bytes: c.bytes - before.bytes,
		fsyncs: c.fsyncs - before.fsyncs, dirSyncs: c.dirSyncs - before.dirSyncs,
		renames: c.renames - before.renames, removes: c.removes - before.removes,
		commits:   c.commits - before.commits,
		fileReads: c.fileReads - before.fileReads, readBytes: c.readBytes - before.readBytes,
	}
}

// mustConverged proves a repair converged on a store opened over c: a
// fresh verify plans nothing, and applying that empty plan writes,
// renames, removes and fsyncs nothing and keeps the generation.
func mustConverged(t *testing.T, st *Store, c *opCounter, when string) {
	t.Helper()
	gen0, err := st.Generation()
	if err != nil {
		t.Fatalf("%s: generation: %v", when, err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("%s: verify: %v", when, err)
	}
	plan, err := st.Plan(rep, nil)
	if err != nil {
		t.Fatalf("%s: plan: %v", when, err)
	}
	if len(plan.Actions) != 0 {
		t.Fatalf("%s: a fresh verify still plans %d action(s):\n%s", when, len(plan.Actions), rep.Format())
	}
	before := c.mutations
	if err := st.Apply(rep, plan); err != nil {
		t.Fatalf("%s: apply the empty plan: %v", when, err)
	}
	if c.mutations != before {
		t.Fatalf("%s: the empty plan made %d disk mutation(s)", when, c.mutations-before)
	}
	if gen, err := st.Generation(); err != nil || gen != gen0 {
		t.Fatalf("%s: the empty plan moved the generation %d -> %d (err %v)", when, gen0, gen, err)
	}
}

// findingAt returns the report's finding for a path, or nil.
func findingAt(rep *Report, path string) *Finding {
	for i := range rep.Findings {
		if rep.Findings[i].Path == path {
			return &rep.Findings[i]
		}
	}
	return nil
}

// verbs maps each acted-on path to its action's verb.
func verbs(rep *Report) map[string]string {
	out := make(map[string]string)
	for _, a := range rep.Actions {
		out[a.Path] = a.Verb.String()
	}
	return out
}

func TestSyncLoadRoundTrip(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	stats := mustSync(t, st, w1())
	if stats.Clean || stats.Generation != 1 || stats.Written != 4 {
		t.Fatalf("first sync stats: %+v", stats)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for path, want := range w1() {
		if string(got[path]) != string(want) {
			t.Fatalf("round trip %s: got %q", path, got[path])
		}
	}
	again := mustSync(t, st, w1())
	if !again.Clean || again.Generation != 1 {
		t.Fatalf("second sync should be clean: %+v", again)
	}
	mustCleanVerify(t, st, "after sync")
}

func TestSyncPrunesStaleFiles(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	stats := mustSync(t, st, w2())
	if stats.Clean || stats.Pruned != 1 {
		t.Fatalf("want 1 pruned stale file, got %+v", stats)
	}
	if _, err := fs.ReadFile("exp/stale.txt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale file should be pruned, err=%v", err)
	}
	mustCleanVerify(t, st, "after prune")
}

func TestPutLeavesRepoClean(t *testing.T) {
	fs := NewMemFS(1)
	cfs := &opCounter{VFS: fs}
	st := New(cfs)
	mustSync(t, st, w1())
	if err := st.Put("exp/journal.csv", []byte(j1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Put("exp/journal.csv", []byte(j2)); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Repeating an identical Put writes nothing.
	before := cfs.mutations
	if err := st.Put("exp/journal.csv", []byte(j2)); err != nil {
		t.Fatalf("idempotent put: %v", err)
	}
	if cfs.mutations != before {
		t.Fatalf("an identical Put made %d disk mutation(s)", cfs.mutations-before)
	}
	// Load returns the put bytes, from this store and from a fresh one;
	// the tracked file on disk waits for the next commit.
	for _, s := range []*Store{st, New(fs)} {
		got, err := s.Load()
		if err != nil || string(got["exp/journal.csv"]) != j2 {
			t.Fatalf("load: journal %q err %v", got["exp/journal.csv"], err)
		}
	}
	if _, err := fs.ReadFile("exp/journal.csv"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the journal reached the workspace before a commit: err %v", err)
	}
	// Incremental puts must not strand anything: a healthy repo fscks
	// clean mid-sweep too.
	mustCleanVerify(t, st, "after incremental puts")
	files, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, st, files)
	content, err := fs.ReadFile("exp/journal.csv")
	if err != nil || string(content) != j2 {
		t.Fatalf("journal content after the commit %q err %v", content, err)
	}
	mustCleanVerify(t, st, "after the folding sync")
	if err := st.Put(".popper/evil", []byte("x")); err == nil {
		t.Fatal("put of an untracked path must refuse")
	}
}

func TestFsckTaxonomyAndRepair(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w1())
	mustSync(t, st, w2())

	// Damage the tree in every classifiable way.
	full, _ := fs.ReadFile("exp/results.csv")
	if err := fs.WriteFile("exp/results.csv", full[:10]); err != nil { // torn
		t.Fatal(err)
	}
	if err := fs.Remove("exp/run.sh"); err != nil { // missing
		t.Fatal(err)
	}
	if err := fs.WriteFile("exp/junk.bin", []byte("stray bytes")); err != nil { // extra
		t.Fatal(err)
	}
	// Corrupt vars.yml with same-length garbage AND destroy its object —
	// loose or packed — so repair has nothing to prove the bytes with →
	// quarantine.
	varsEntry, _ := mustManifest(t, st).Lookup("exp/vars.yml")
	if err := fs.WriteFile("exp/vars.yml", []byte("alpha: 9\n")); err != nil {
		t.Fatal(err)
	}
	destroyObject(t, fs, varsEntry.Hash)
	if err := fs.WriteFile("exp/leftover.csv.ptmp", []byte("half a write")); err != nil { // debris
		t.Fatal(err)
	}

	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	want := map[string]State{
		"exp/results.csv":       StateTorn,
		"exp/run.sh":            StateMissing,
		"exp/junk.bin":          StateExtra,
		"exp/vars.yml":          StateCorrupted,
		"exp/leftover.csv.ptmp": StateDebris,
	}
	got := make(map[string]State)
	for _, f := range rep.Findings {
		got[f.Path] = f.State
	}
	for path, state := range want {
		if got[path] != state {
			t.Errorf("%s: want %s, got %s\nreport:\n%s", path, state, got[path], rep.Format())
		}
	}
	for _, f := range rep.Findings {
		switch f.Path {
		case "exp/results.csv", "exp/run.sh":
			if !f.Repairable {
				t.Errorf("%s should be restorable from the object cache", f.Path)
			}
		case "exp/vars.yml":
			if f.Repairable {
				t.Error("vars.yml has no object left; must not claim restorable")
			}
		}
	}

	plan, err := st.Plan(rep, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := st.Apply(rep, plan); err != nil {
		t.Fatalf("apply: %v\nactions: %v", err, plan.Actions)
	}
	verbs := verbs(rep)
	if verbs["exp/results.csv"] != "restored" || verbs["exp/run.sh"] != "restored" {
		t.Errorf("torn/missing files should be restored: %v", verbs)
	}
	if verbs["exp/junk.bin"] != "adopted" {
		t.Errorf("extra file should be adopted, got %q", verbs["exp/junk.bin"])
	}
	if verbs["exp/vars.yml"] != "quarantined" {
		t.Errorf("unprovable corruption should be quarantined, got %q", verbs["exp/vars.yml"])
	}
	if verbs["exp/leftover.csv.ptmp"] != "removed" {
		t.Errorf("debris should be removed, got %q", verbs["exp/leftover.csv.ptmp"])
	}
	if f := findingAt(rep, "exp/vars.yml"); f == nil || f.Outcome != Quarantined {
		t.Errorf("vars.yml outcome: %+v", f)
	}

	restored, _ := fs.ReadFile("exp/results.csv")
	if !bytes.Equal(restored, full) {
		t.Errorf("restored results.csv differs: %q", restored)
	}
	q, err := fs.ReadFile(quarantineDir + "/gen-3/exp/vars.yml")
	if err != nil || string(q) != "alpha: 9\n" {
		t.Errorf("quarantine should preserve the damaged bytes verbatim: %q err %v", q, err)
	}
	mustCleanVerify(t, st, "after repair")
}

// destroyObject erases one hash's bytes from the object cache
// everywhere they live: the loose object file, and any packed extent
// (rewritten without the record so the rest stays intact).
func destroyObject(t *testing.T, v VFS, hash [sha256.Size]byte) {
	t.Helper()
	_ = v.Remove(objectPath(hash))
	paths, err := v.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, extentsDir+"/") {
			continue
		}
		raw, err := v.ReadFile(p)
		if err != nil {
			continue
		}
		recs, err := cas.ParseExtent(raw)
		if err != nil {
			continue
		}
		var keep [][]byte
		hit := false
		for _, r := range recs {
			if r.Hash == hash {
				hit = true
				continue
			}
			keep = append(keep, raw[r.Offset:r.Offset+r.Size])
		}
		if !hit {
			continue
		}
		if len(keep) == 0 {
			if err := v.Remove(p); err != nil {
				t.Fatalf("remove %s: %v", p, err)
			}
			continue
		}
		if err := v.WriteFile(p, cas.EncodeExtent(keep)); err != nil {
			t.Fatalf("rewrite %s: %v", p, err)
		}
	}
}

func mustManifest(t *testing.T, st *Store) *Manifest {
	t.Helper()
	man, err := st.Manifest()
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	return man
}

func TestFsckRebuildsMissingManifest(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	if err := fs.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	st2 := New(fs)
	rep, err := st2.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if f := findingAt(rep, manifestPath); f == nil || f.State != StateManifest || !strings.Contains(f.Note, "missing") {
		t.Fatalf("want a missing-manifest finding:\n%s", rep.Format())
	}
	rep = mustRepair(t, st2, nil)
	if verbs(rep)[manifestPath] != "rebuilt" {
		t.Fatalf("manifest not rebuilt:\n%s", rep.Format())
	}
	mustCleanVerify(t, st2, "after manifest rebuild")
	man := mustManifest(t, st2)
	if man.Len() != len(w1()) {
		t.Fatalf("rebuilt manifest tracks %d files, want %d", man.Len(), len(w1()))
	}
}

func TestInterruptedSyncRefusesNewWrites(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	if err := fs.WriteFile(manifestNextPath, []byte("partial intent")); err != nil {
		t.Fatal(err)
	}
	var rerr *RecoveryError
	if _, err := st.Sync(w2()); !errors.As(err, &rerr) {
		t.Fatalf("sync over a stale intent record: want RecoveryError, got %v", err)
	}
	if err := st.Put("exp/journal.csv", []byte(j1)); !errors.As(err, &rerr) {
		t.Fatalf("put over a stale intent record: want RecoveryError, got %v", err)
	}
	if !strings.Contains(rerr.Error(), "popper fsck") {
		t.Fatalf("recovery error should point at fsck: %v", rerr)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if f := findingAt(rep, manifestNextPath); f == nil || f.State != StatePending {
		t.Fatalf("verify should flag the pending intent:\n%s", rep.Format())
	}
	if rep = mustRepair(t, st, nil); verbs(rep)[manifestNextPath] != "rolled-back" {
		t.Fatalf("intent not rolled back:\n%s", rep.Format())
	}
	mustCleanVerify(t, st, "after rollback")
	mustSync(t, st, w2())
}

// TestCrashMatrixConvergence is the governing golden suite: for EVERY
// disk operation in the canonical scenario, crash exactly there, then
// prove that fsck --repair plus a full re-run converges on a tree
// byte-identical to one that never crashed.
func TestCrashMatrixConvergence(t *testing.T) {
	seed := chaosSeed(t)

	// Reference run: no faults.
	refFS := NewMemFS(seed)
	if _, err := crashScenario(New(refFS)); err != nil {
		t.Fatalf("reference scenario: %v", err)
	}
	ref := trackedTree(t, refFS)

	// Probe run: count the disk operations the scenario performs.
	probe := fault.NewInjector(seed, nil)
	probeFS := NewMemFS(seed)
	probeStore := New(probeFS)
	probeStore.SetFaults(probe)
	if _, err := crashScenario(probeStore); err != nil {
		t.Fatalf("probe scenario: %v", err)
	}
	ops := probe.Occurrences("disk/*")
	if ops < 40 {
		t.Fatalf("suspiciously few disk ops enumerated: %d", ops)
	}

	for k := 0; k < ops; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-op-%03d", k), func(t *testing.T) {
			fs, done := crashAt(t, seed, k)

			// Reboot: fresh store over the settled disk, no faults.
			cfs := &opCounter{VFS: fs}
			st2 := New(cfs)
			wantDurableJournal(t, st2, done, "after the crash")
			mustRepair(t, st2, nil)
			mustCleanVerify(t, st2, "after repair")
			mustConverged(t, st2, cfs, "after repair")
			wantDurableJournal(t, st2, done, "after repair")

			// Re-run the interrupted work end to end.
			if _, err := crashScenario(st2); err != nil {
				t.Fatalf("replay after repair: %v", err)
			}
			mustCleanVerify(t, st2, "after replay")
			got := trackedTree(t, fs)
			if len(got) != len(ref) {
				t.Fatalf("tree size differs: got %d files, want %d\ngot: %v", len(got), len(ref), got)
			}
			for path, want := range ref {
				if got[path] != want {
					t.Errorf("%s differs after crash-repair-replay:\ngot  %q\nwant %q", path, got[path], want)
				}
			}
		})
	}
}

// crashAt runs crashScenario on a fresh MemFS whose store crashes at
// disk operation k, and returns the filesystem with how many steps
// returned.
func crashAt(t *testing.T, seed int64, k int) (*MemFS, int) {
	t.Helper()
	fs := NewMemFS(seed + int64(k)*7919)
	st := New(fs)
	st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/*", Kind: fault.DiskCrash, Global: true, After: k, Times: 1, Prob: 1,
	}}))
	done, err := crashScenario(st)
	if !fault.IsDiskCrash(err) {
		t.Fatalf("op %d: expected a disk crash, got %v", k, err)
	}
	return fs, done
}

// maskPlan settles each path in order by one bit of mask: set keeps
// its pending namespace change, clear loses it. It records the paths a
// crash asked about; every content it meets must already be fsynced.
type maskPlan struct {
	t     *testing.T
	order map[string]int
	mask  int
	asked []string
}

func (p *maskPlan) KeepEntry(path string) bool {
	p.asked = append(p.asked, path)
	i, ok := p.order[path]
	return ok && p.mask&(1<<i) != 0
}

func (p *maskPlan) KeepBytes(path string, n int) int {
	p.t.Errorf("%s: a crash at the batched flush met unsynced content", path)
	return n
}

// TestSyncCrashAtBatchedFlushEveryState enumerates, as ALICE does
// (Pillai et al., OSDI 2014), every state a crash at a multi-directory
// sync's first batched directory flush can leave: each staged rename —
// tracked files, the extent, a loose object — and the prune is kept or
// lost on its own. Every state must heal every finding, with nothing
// quarantined, to a clean store and re-sync to a tree byte-identical to
// one that never crashed.
func TestSyncCrashAtBatchedFlushEveryState(t *testing.T) {
	seed := chaosSeed(t)
	refFS := NewMemFS(seed)
	ref := New(refFS)
	mustSync(t, ref, w2())
	mustSync(t, ref, w3())
	want := trackedTree(t, refFS)

	// crashed runs the sync of w3 over w2 to a process crash at its
	// first batched flush (the root directory's), so nothing has
	// settled yet.
	crashed := func() *MemFS {
		fs := NewMemFS(seed)
		st := New(fs)
		mustSync(t, st, w2())
		st.SetFaults(fault.NewInjector(seed, []fault.Rule{{Site: "disk/syncdir/.", Kind: fault.Crash, Times: 1, Prob: 1}}))
		if _, err := st.Sync(w3()); !fault.IsCrash(err) {
			t.Fatalf("the sync did not stop at its first batched flush: %v", err)
		}
		return fs
	}
	probe := &maskPlan{t: t}
	crashed().CrashWith(probe)
	pending := probe.asked
	slices.Sort(pending)
	// Seven changed files, the extent, a loose object and the prune.
	if len(pending) != 10 || !slices.Contains(pending, "exp/run.sh") || !slices.Contains(pending, "exp/sweep/001/figure.svg") {
		t.Fatalf("the crash left %d pending entries, want the 10 staged renames and removals: %v", len(pending), pending)
	}
	order := make(map[string]int, len(pending))
	for i, path := range pending {
		order[path] = i
	}
	for mask := 0; mask < 1<<len(pending); mask++ {
		fs := crashed()
		fs.CrashWith(&maskPlan{t: t, order: order, mask: mask})
		when := fmt.Sprintf("state %0*b", len(pending), mask)
		cfs := &opCounter{VFS: fs}
		st := New(cfs)
		if rep := mustRepair(t, st, nil); rep.Count(Healed) != len(rep.Findings) {
			t.Fatalf("%s: repair could not heal every finding:\n%s", when, rep.Format())
		}
		mustCleanVerify(t, st, when+" after repair")
		mustConverged(t, st, cfs, when+" after repair")
		mustSync(t, st, w3())
		mustCleanVerify(t, st, when+" after the re-sync")
		if got := trackedTree(t, fs); !maps.Equal(got, want) {
			t.Fatalf("%s: the re-synced tree differs from one that never crashed:\ngot  %v\nwant %v", when, got, want)
		}
	}
	t.Logf("%d crash states, %d pending entries: %v", 1<<len(pending), len(pending), pending)
}

// TestCrashMatrixManifestLossKeepsJournal: after every crash point of
// the canonical scenario, a reader reopens and notes Load's journal.
// Then the manifest is damaged and repaired with no quorum to restore
// it. The rebuild has no committed generation to date the put records
// by, so it dates each chain by what its path's tracked file holds; it
// must carry in exactly the chains that were live, and Load must return
// the journal the reader saw.
func TestCrashMatrixManifestLossKeepsJournal(t *testing.T) {
	seed := chaosSeed(t)
	probe := fault.NewInjector(seed, nil)
	probeStore := New(NewMemFS(seed))
	probeStore.SetFaults(probe)
	if _, err := crashScenario(probeStore); err != nil {
		t.Fatalf("probe scenario: %v", err)
	}
	for k := 0; k < probe.Occurrences("disk/*"); k++ {
		fs, done := crashAt(t, seed, k)
		when := fmt.Sprintf("crash at op %d (step %d)", k, done)
		files, err := New(fs).Load()
		if err != nil {
			t.Fatalf("%s: load: %v", when, err)
		}
		seen := string(files["exp/journal.csv"])
		if err := fs.WriteFile(manifestPath, []byte("damaged")); err != nil {
			t.Fatal(err)
		}
		cfs := &opCounter{VFS: fs}
		st := New(cfs)
		rep := mustRepair(t, st, nil)
		mustConverged(t, st, cfs, when)
		files, err = st.Load()
		if err != nil {
			t.Fatalf("%s: load after the rebuild: %v", when, err)
		}
		if got := string(files["exp/journal.csv"]); got != seen {
			t.Fatalf("%s: after the manifest's loss the rebuild's journal is %q, want the %q a reader saw\n%s", when, got, seen, rep.Format())
		}
	}
}

// TestFoldedPutRecordsDatedAfterCrashAndManifestLoss: a crash just
// after a fold's commit point, before its removals, leaves the folded
// records on disk. A reader reopens and sees the folded journal, and a
// clean sync leaves the records where they are. The manifest is then
// lost with no quorum: the rebuild must keep the journal the reader
// saw, not roll it back to the older chain. Each seed settles the crash
// differently.
func TestFoldedPutRecordsDatedAfterCrashAndManifestLoss(t *testing.T) {
	for i := int64(0); i < 16; i++ {
		seed := chaosSeed(t) + i
		fs := NewMemFS(seed)
		st := New(fs)
		mustSync(t, st, w1())
		for _, j := range []string{j1, j2} {
			if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
				t.Fatal(err)
			}
		}
		st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
			Site: "disk/remove/.popper/put-*", Kind: fault.DiskCrash, Times: 1, Prob: 1,
		}}))
		if _, err := st.Sync(w2()); !fault.IsDiskCrash(err) {
			t.Fatalf("seed +%d: the fold did not crash at its removals: %v", i, err)
		}
		st = New(fs)
		if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != j3 {
			t.Fatalf("seed +%d: after the crash Load's journal is %q (err %v), want the folded %q", i, got["exp/journal.csv"], err, j3)
		}
		if stats := mustSync(t, st, w2()); !stats.Clean {
			t.Fatalf("seed +%d: the sync of the committed tree is %+v, want clean", i, stats)
		}
		if err := fs.WriteFile(manifestPath, []byte("damaged")); err != nil {
			t.Fatal(err)
		}
		cfs := &opCounter{VFS: fs}
		st = New(cfs)
		mustRepair(t, st, nil)
		mustConverged(t, st, cfs, "after the rebuild")
		if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != j3 {
			t.Fatalf("seed +%d: after the rebuild Load's journal is %q (err %v), want the %q a reader saw", i, got["exp/journal.csv"], err, j3)
		}
	}
}

// TestPutWithManifestGoneStaysLive: with the manifest gone, a chain is
// dated by its path's tracked file, so a chain begun then must begin
// from what the file holds. Otherwise a committed journal the pool
// still holds makes every Put look folded: Load, in the writing store
// and a reopened one, would return the old journal, and a rebuild would
// drop the chain.
func TestPutWithManifestGoneStaysLive(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	mustSync(t, New(fs), w2())
	if err := fs.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	st := New(fs)
	for _, j := range []string{j1, j2} {
		if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Store{"the writing store": st, "a reopened store": New(fs)} {
			if got, err := s.Load(); err != nil || string(got["exp/journal.csv"]) != j {
				t.Fatalf("after Put %q, %s loads %q (err %v)", j, name, got["exp/journal.csv"], err)
			}
		}
	}
	cfs := &opCounter{VFS: fs}
	st = New(cfs)
	mustRepair(t, st, nil)
	mustConverged(t, st, cfs, "after the rebuild")
	if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != j2 {
		t.Fatalf("after the rebuild Load's journal is %q (err %v), want %q", got["exp/journal.csv"], err, j2)
	}
}

// TestDiskErrorFaultConverges covers the transient-error flavor: the
// operation fails, the machine survives, the uncommitted sync is
// rolled back by repair and the retry converges.
func TestDiskErrorFaultConverges(t *testing.T) {
	seed := chaosSeed(t)
	fs := NewMemFS(seed)
	cfs := &opCounter{VFS: fs}
	st := New(cfs)
	mustSync(t, st, w1())
	st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/write/exp/vars.yml*", Kind: fault.Error, Times: 1, Prob: 1, Msg: "EIO",
	}}))
	if _, err := st.Sync(w2()); err == nil {
		t.Fatal("sync should fail on the injected write error")
	}
	// The failed sync left its intent record: further writes refuse.
	var rerr *RecoveryError
	if _, err := st.Sync(w2()); !errors.As(err, &rerr) {
		t.Fatalf("want RecoveryError on retry, got %v", err)
	}
	mustRepair(t, st, nil)
	mustCleanVerify(t, st, "after repair")
	mustConverged(t, st, cfs, "after repair")
	mustSync(t, st, w2())
	refFS := NewMemFS(seed)
	refStore := New(refFS)
	mustSync(t, refStore, w1())
	mustSync(t, refStore, w2())
	want := trackedTree(t, refFS)
	got := trackedTree(t, fs)
	if len(got) != len(want) {
		t.Fatalf("tree size differs: %v vs %v", got, want)
	}
	for path, content := range want {
		if got[path] != content {
			t.Errorf("%s differs: %q vs %q", path, got[path], content)
		}
	}
}

// TestSyncCleanHotPathZeroAlloc pins the no-fault, already-clean sync
// — the path every read-only popper command exits through — at zero
// heap allocations, with the store hashing the files itself and with
// the caller's digests (a replica applying a record).
func TestSyncCleanHotPathZeroAlloc(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	files := w1()
	mustSync(t, st, files)
	sums := fileSums(files)
	for _, hashes := range []map[string][sha256.Size]byte{nil, sums} {
		var stats SyncStats
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			stats, err = st.SyncHashed(files, hashes)
		})
		if err != nil || !stats.Clean {
			t.Fatalf("clean sync failed: %+v err %v", stats, err)
		}
		if allocs != 0 {
			t.Fatalf("clean sync hot path allocates: %.1f allocs/op, want 0 (digests given: %v)", allocs, hashes != nil)
		}
	}
}

// fileSums returns each file's SHA-256, as a replication record holds
// them.
func fileSums(files map[string][]byte) map[string][sha256.Size]byte {
	sums := make(map[string][sha256.Size]byte, len(files))
	for path, content := range files {
		sums[path] = sha256.Sum256(content)
	}
	return sums
}

// TestSyncHashedCommitsWhatSyncCommits: a store handed the files'
// digests commits the same manifests, objects and tree as one that
// hashes the files itself, generation after generation.
func TestSyncHashedCommitsWhatSyncCommits(t *testing.T) {
	plain, hashed := NewMemFS(1), NewMemFS(1)
	ps, hs := New(plain), New(hashed)
	for _, files := range []map[string][]byte{w1(), w2(), w3(), w2()} {
		mustSync(t, ps, files)
		if _, err := hs.SyncHashed(files, fileSums(files)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ps.Image()
	if err != nil {
		t.Fatal(err)
	}
	got, err := hs.Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("the hashed store holds %d files, the plain one %d", len(got), len(want))
	}
	for path, content := range want {
		if !bytes.Equal(got[path], content) {
			t.Errorf("%s differs between the two stores", path)
		}
	}
	mustCleanVerify(t, hs, "after the hashed syncs")
}

func TestManifestEncodeParseRoundTrip(t *testing.T) {
	m := newManifest(7, w2(), nil)
	parsed, err := ParseManifest(m.Encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if parsed.Generation != 7 || parsed.Len() != m.Len() {
		t.Fatalf("round trip: gen %d len %d", parsed.Generation, parsed.Len())
	}
	for _, e := range m.Entries {
		pe, ok := parsed.Lookup(e.Path)
		if !ok || pe != e {
			t.Fatalf("entry %s lost in round trip", e.Path)
		}
	}
	// Any byte flip must be detected.
	enc := m.Encode()
	enc[len(enc)/2]++
	if _, err := ParseManifest(enc); err == nil {
		t.Fatal("corrupted manifest must not parse")
	}
	if _, err := ParseManifest(enc[:len(enc)-20]); err == nil {
		t.Fatal("torn manifest must not parse")
	}
}

func TestTracked(t *testing.T) {
	cases := map[string]bool{
		"exp/results.csv":        true,
		".popper.yml":            true,
		".travis.yml":            true,
		".popper-ci.yml":         true,
		"exp/.gitkeep":           true,
		".popper/manifest":       false,
		".popper/objects/ab/abc": false,
		".git/config":            false,
		"exp/out.csv.ptmp":       false,
		"exp/.hidden":            false,
		"a/.dot/b":               false,
		"exp/a\nb.csv":           false,
	}
	for path, want := range cases {
		if got := Tracked(path); got != want {
			t.Errorf("Tracked(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestDirFSEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st := Open(dir)
	mustSync(t, st, w1())
	mustSync(t, st, w2())
	mustCleanVerify(t, st, "on a real directory")
	content, err := os.ReadFile(dir + "/exp/results.csv")
	if err != nil || string(content) != string(w2()["exp/results.csv"]) {
		t.Fatalf("results on disk: %q err %v", content, err)
	}
	if _, err := os.Stat(dir + "/exp/stale.txt"); !os.IsNotExist(err) {
		t.Fatal("stale file should be pruned from the real tree")
	}
	// A second store over the same tree sees a clean repo.
	st2 := Open(dir)
	stats := mustSync(t, st2, w2())
	if !stats.Clean {
		t.Fatalf("reopened store should find the tree clean: %+v", stats)
	}
}

// TestDirFSSyncDirSettlesCreatedDirectories: a directory DirFS creates
// for a write is a new entry in its parent, so flushing the files in it
// first flushes the parent of each created directory on the way, top
// down, once; a flush of a directory settles the directories created in
// it.
func TestDirFSSyncDirSettlesCreatedDirectories(t *testing.T) {
	d := NewDirFS(t.TempDir())
	var got []string
	d.fsynced = func(path string) { got = append(got, path) }
	step := func(want ...string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("fsyncs %q, want %q", got, want)
		}
		got = nil
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.WriteFile("top.txt", []byte("x")))
	must(d.SyncDir("."))
	step(".")
	must(d.WriteFile("a/b/c/f.txt.ptmp", []byte("f")))
	must(d.Sync("a/b/c/f.txt.ptmp"))
	must(d.Rename("a/b/c/f.txt.ptmp", "a/b/c/f.txt"))
	step("a/b/c/f.txt.ptmp")
	must(d.SyncDir("a/b/c"))
	step(".", "a", "a/b", "a/b/c")
	must(d.SyncDir("a/b/c"))
	step("a/b/c")
	// A flush of a/b settles d, created in it; e, created in d, is not.
	must(d.Rename("top.txt", "a/b/d/e/g.txt"))
	must(d.SyncDir("a/b"))
	step("a/b")
	must(d.SyncDir("a/b/d/e"))
	step("a/b/d", "a/b/d/e")
	must(d.SyncDir("a/b/d/e"))
	step("a/b/d/e")
	// A directory that already existed is no new entry.
	must(d.WriteFile("a/h.txt", []byte("h")))
	must(d.SyncDir("a"))
	step("a")
	if content, err := os.ReadFile(d.abs("a/b/d/e/g.txt")); err != nil || string(content) != "x" {
		t.Fatalf("renamed file: %q, %v", content, err)
	}
}
