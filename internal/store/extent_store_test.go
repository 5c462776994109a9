package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"popper/internal/cas"
	"popper/internal/fault"
)

// TestSyncPacksSmallObjectsIntoExtent: a generation's new small
// objects land in one packed extent, not as loose object files; large
// content stays loose.
func TestSyncPacksSmallObjectsIntoExtent(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	files := w1()
	big := bytes.Repeat([]byte("x"), smallObjectMax+1)
	files["exp/big.bin"] = big
	stats := mustSync(t, st, files)
	if stats.Objects != len(files) {
		t.Fatalf("want %d objects stored, got %+v", len(files), stats)
	}
	raw, err := fs.ReadFile(extentPath(1))
	if err != nil {
		t.Fatalf("gen-1 extent missing: %v", err)
	}
	recs, err := cas.ParseExtent(raw)
	if err != nil {
		t.Fatalf("gen-1 extent does not parse: %v", err)
	}
	if len(recs) != len(w1()) {
		t.Fatalf("extent holds %d records, want %d", len(recs), len(w1()))
	}
	man := mustManifest(t, st)
	for path := range w1() {
		e, _ := man.Lookup(path)
		if _, err := fs.ReadFile(objectPath(e.Hash)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: small object should be packed, not loose (err %v)", path, err)
		}
	}
	bigEntry, _ := man.Lookup("exp/big.bin")
	if _, err := fs.ReadFile(objectPath(bigEntry.Hash)); err != nil {
		t.Errorf("large object should stay loose: %v", err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(got["exp/big.bin"], big) {
		t.Error("large content round trip failed")
	}
	mustCleanVerify(t, st, "after packed sync")
}

// TestTornExtentSalvageRestoresFiles: a torn extent is classified as
// torn (not debris), its surviving records are salvaged into loose
// objects, and a missing workspace file whose only copy lived in the
// extent is restored from the salvage.
func TestTornExtentSalvageRestoresFiles(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w1())
	man := mustManifest(t, st)
	runEntry, _ := man.Lookup("exp/run.sh")

	// Tear the extent right after run.sh's payload: everything up to and
	// including it salvages, everything after is lost.
	raw, err := fs.ReadFile(extentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cas.ParseExtent(raw)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(-1)
	for _, r := range recs {
		if r.Hash == runEntry.Hash {
			cut = r.Offset + r.Size
		}
	}
	if cut < 0 {
		t.Fatal("run.sh record not found in extent")
	}
	if err := fs.WriteFile(extentPath(1), raw[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("exp/run.sh"); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	extentF, runF := findingAt(rep, extentPath(1)), findingAt(rep, "exp/run.sh")
	if extentF == nil || extentF.State != StateTorn || !strings.Contains(extentF.Note, "salvageable") {
		t.Fatalf("torn extent not classified as torn:\n%s", rep.Format())
	}
	if runF == nil || runF.State != StateMissing || !runF.Repairable {
		t.Fatalf("run.sh should be missing-but-restorable (its bytes salvage from the extent):\n%s", rep.Format())
	}

	plan, err := st.Plan(rep, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := st.Apply(rep, plan); err != nil {
		t.Fatalf("apply: %v", err)
	}
	verbs := verbs(rep)
	if verbs[extentPath(1)] != "salvaged" {
		t.Errorf("extent should be salvaged, got %q", verbs[extentPath(1)])
	}
	if verbs["exp/run.sh"] != "restored" {
		t.Errorf("run.sh should be restored from the salvage, got %q", verbs["exp/run.sh"])
	}
	content, err := fs.ReadFile("exp/run.sh")
	if err != nil || !bytes.Equal(content, w1()["exp/run.sh"]) {
		t.Errorf("restored run.sh wrong: %q err %v", content, err)
	}
	if _, err := fs.ReadFile(extentPath(1)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("torn extent should be removed after salvage, err %v", err)
	}
	mustCleanVerify(t, st, "after extent salvage")
}

// wAllNew replaces every w1 file's content, leaving nothing in the
// gen-1 extent referenced.
func wAllNew() map[string][]byte {
	return map[string][]byte{
		".popper.yml":     []byte("experiments:\n  - exp\n  - exp2\n"),
		"exp/run.sh":      []byte("#!/bin/sh\necho rerun\n"),
		"exp/vars.yml":    []byte("alpha: 3\n"),
		"exp/results.csv": []byte("metric,value\nthroughput,905\n"),
	}
}

// TestExtentGCKeepsLiveGenerations: an extent survives gc while ANY
// live manifest generation references ANY of its records, and is
// removed only when wholly unreferenced.
func TestExtentGCKeepsLiveGenerations(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	// Generation 2 changes vars.yml and prunes stale.txt, but keeps
	// .popper.yml and run.sh — two records of the gen-1 extent stay
	// referenced, so the whole extent must stay.
	mustSync(t, st, w2())
	if _, err := fs.ReadFile(extentPath(1)); err != nil {
		t.Fatalf("gen-1 extent holds live objects and must survive gc: %v", err)
	}
	mustCleanVerify(t, st, "with a partially-referenced extent")
	// Generation 3 replaces every remaining w1 content: the gen-1 extent
	// is wholly unreferenced now and gc drops it.
	mustSync(t, st, wAllNew())
	if _, err := fs.ReadFile(extentPath(1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wholly-unreferenced gen-1 extent should be gc'd, err %v", err)
	}
	mustCleanVerify(t, st, "after extent gc")
	got, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for path, want := range wAllNew() {
		if !bytes.Equal(got[path], want) {
			t.Errorf("%s differs after extent gc", path)
		}
	}
}

// TestExtentEvictionDiskCrashRepairConverges is the chaos half of the
// eviction invariant: crash at EVERY disk operation of a scenario
// whose syncs gc-evict wholly-unreferenced extents, and prove fsck
// --repair plus a re-run converges on the uncrashed tree — in
// particular, no object referenced by a live generation is ever lost
// to the eviction. The sync of w3 flushes six directories in one batch;
// the last, back to w1, must pack again the content an eviction took,
// so it crashes inside the extent index's rebuild too.
func TestExtentEvictionDiskCrashRepairConverges(t *testing.T) {
	seed := chaosSeed(t)
	scenario := func(st *Store) error {
		for _, files := range []map[string][]byte{w1(), wAllNew(), w3(), w1()} {
			if _, err := st.Sync(files); err != nil {
				return err
			}
		}
		return nil
	}

	refFS := NewMemFS(seed)
	if err := scenario(New(refFS)); err != nil {
		t.Fatalf("reference scenario: %v", err)
	}
	ref := trackedTree(t, refFS)

	probe := fault.NewInjector(seed, nil)
	probeFS := NewMemFS(seed)
	probeStore := New(probeFS)
	probeStore.SetFaults(probe)
	if err := scenario(probeStore); err != nil {
		t.Fatalf("probe scenario: %v", err)
	}
	ops := probe.Occurrences("disk/*")
	if ops < 20 {
		t.Fatalf("suspiciously few disk ops enumerated: %d", ops)
	}

	for k := 0; k < ops; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-op-%03d", k), func(t *testing.T) {
			fs := NewMemFS(seed + int64(k)*7919)
			st := New(fs)
			st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
				Site: "disk/*", Kind: fault.DiskCrash, Global: true, After: k, Times: 1, Prob: 1,
			}}))
			if err := scenario(st); !fault.IsDiskCrash(err) {
				t.Fatalf("op %d: expected a disk crash, got %v", k, err)
			}
			cfs := &opCounter{VFS: fs}
			st2 := New(cfs)
			mustRepair(t, st2, nil)
			mustCleanVerify(t, st2, "after repair")
			mustConverged(t, st2, cfs, "after repair")
			if err := scenario(st2); err != nil {
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

// TestCommitReadsEachExtentOnce: every commit keeps one more small file,
// so k generations leave k intact extents, each pinned by one live
// record. A commit by a freshly opened store reads each of them at most
// once — to build the extent index it looks new objects up in — and
// the next commit on that store reads none: the index survives the
// extent the commit writes, and gc decides every extent from it.
func TestCommitReadsEachExtentOnce(t *testing.T) {
	const k = 6
	fs := NewMemFS(1)
	files := w1()
	keep := func(i int) { files[fmt.Sprintf("exp/runs/%02d.csv", i)] = fmt.Appendf(nil, "run,%d\n", i) }
	for i := 0; i < k; i++ {
		keep(i)
		mustSync(t, New(fs), files)
	}
	extentReads := func(c *opCounter) map[string]int {
		got := make(map[string]int)
		for path, n := range c.reads {
			if strings.HasPrefix(path, extentsDir+"/") {
				got[path] = n
			}
		}
		return got
	}
	c := &opCounter{VFS: fs, reads: make(map[string]int)}
	st := New(c)
	keep(k)
	mustSync(t, st, files)
	reads := extentReads(c)
	if len(reads) != k {
		t.Errorf("the commit read %d extent(s) of the %d it found: %v", len(reads), k, reads)
	}
	for path, n := range reads {
		if n > 1 {
			t.Errorf("the commit read %s %d times", path, n)
		}
	}
	c.reads = make(map[string]int)
	keep(k + 1)
	mustSync(t, st, files)
	if reads := extentReads(c); len(reads) != 0 {
		t.Errorf("the next commit read extents %v", reads)
	}
	for i := 1; i <= k+2; i++ {
		if _, err := fs.ReadFile(extentPath(i)); err != nil {
			t.Errorf("extent of generation %d: %v", i, err)
		}
	}
	mustCleanVerify(t, st, "after the commits")
}

// TestGCKeepsUnparseableExtent: a damaged extent is fsck's to salvage,
// never gc's to drop, even when no live generation references a record
// in it — whether the extent index read it torn or never saw it.
func TestGCKeepsUnparseableExtent(t *testing.T) {
	fs := NewMemFS(1)
	files := w1()
	mustSync(t, New(fs), files)
	junk := []byte("popper-extent v1\nnot a record stream")
	seen, unseen := extentsDir+"/gen-90.extent", extentsDir+"/gen-91.extent"
	if err := fs.WriteFile(seen, junk); err != nil {
		t.Fatal(err)
	}
	st := New(fs)
	files["exp/a.csv"] = []byte("a,1\n")
	mustSync(t, st, files) // builds the index, which finds seen torn
	if err := fs.WriteFile(unseen, junk); err != nil {
		t.Fatal(err)
	}
	files["exp/b.csv"] = []byte("b,2\n")
	mustSync(t, st, files) // the index it kept has never seen unseen
	for _, path := range []string{seen, unseen} {
		if got, err := fs.ReadFile(path); err != nil || !bytes.Equal(got, junk) {
			t.Errorf("gc did not keep the damaged extent %s (err %v)", path, err)
		}
	}
}

// TestPackedObjectsAreTheStoresOwnBytes: the extent index a commit keeps
// serves the bytes the store encoded and wrote, never the caller's
// slices, so a caller that reuses its buffers after Sync cannot change
// what the object pool hands out.
func TestPackedObjectsAreTheStoresOwnBytes(t *testing.T) {
	st := New(NewMemFS(1))
	mustSync(t, st, w1()) // builds the index the next commit keeps
	files := w1()
	files["exp/a.csv"] = []byte("a,1\n")
	mustSync(t, st, files)
	hash := sha256.Sum256(files["exp/a.csv"])
	files["exp/a.csv"][0] = 'X'
	if got, ok := st.Object(hash); !ok || string(got) != "a,1\n" {
		t.Fatalf("the pool serves %q (ok %v) after the caller reused its buffer", got, ok)
	}
}
