package store

import (
	"bytes"
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
// to the eviction. The last sync, of w3, flushes six directories in
// one batch.
func TestExtentEvictionDiskCrashRepairConverges(t *testing.T) {
	seed := chaosSeed(t)
	scenario := func(st *Store) error {
		for _, files := range []map[string][]byte{w1(), wAllNew(), w3()} {
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
