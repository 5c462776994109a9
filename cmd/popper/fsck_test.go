package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popper/internal/cas"
)

// popperOut runs the CLI and captures its stdout.
func popperOut(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	cmdErr := run(append([]string{"-C", dir}, args...))
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	r.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), cmdErr
}

// golden compares output against cmd/popper/testdata/<name>; set
// UPDATE_GOLDEN=1 to regenerate.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
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
		t.Fatalf("golden %s missing (regenerate with UPDATE_GOLDEN=1): %v", name, err)
	}
	if string(want) != got {
		t.Fatalf("%s differs from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// objectPathFor mirrors the store's content-addressed layout (the
// documented .popper/objects/<hh>/<hash> scheme).
func objectPathFor(content []byte) string {
	hh := sha256.Sum256(content)
	hex := hex.EncodeToString(hh[:])
	return filepath.Join(".popper", "objects", hex[:2], hex)
}

// destroyObject erases one content's bytes from the object cache
// everywhere they can live: the loose object file, and any packed
// extent (rewritten without the record so the rest stays provable).
func destroyObject(t *testing.T, dir string, content []byte) {
	t.Helper()
	hash := sha256.Sum256(content)
	_ = os.Remove(filepath.Join(dir, objectPathFor(content)))
	extDir := filepath.Join(dir, ".popper", "extents")
	ents, err := os.ReadDir(extDir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		p := filepath.Join(extDir, ent.Name())
		raw, err := os.ReadFile(p)
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
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.WriteFile(p, cas.EncodeExtent(keep), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// damagedRepo builds the canonical wounded repository the fsck goldens
// describe: one torn file, one missing, one corrupted beyond proof, one
// stray, and one piece of in-flight debris.
func damagedRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}, {"run", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	results, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// Torn: a strict prefix, as an interrupted write leaves it.
	if err := os.WriteFile(filepath.Join(dir, "experiments/stm/results.csv"), results[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	// Missing.
	if err := os.Remove(filepath.Join(dir, "experiments/stm/figure.txt")); err != nil {
		t.Fatal(err)
	}
	// Extra: a stray the manifest never recorded.
	if err := os.WriteFile(filepath.Join(dir, "junk.bin"), []byte("stray bytes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupted beyond proof: same-length garbage AND its cache object
	// destroyed, so repair must quarantine rather than restore.
	varsPath := filepath.Join(dir, "experiments/stm/vars.yml")
	vars, err := os.ReadFile(varsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(varsPath, []byte(strings.Repeat("#", len(vars))), 0o644); err != nil {
		t.Fatal(err)
	}
	destroyObject(t, dir, vars)
	// Debris: an in-flight temp file from a torn sync.
	if err := os.WriteFile(filepath.Join(dir, "experiments/stm/out.csv.ptmp"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCLIGoldenCheckHealthy(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	out, err := popperOut(t, dir, "check")
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	golden(t, "check-healthy.golden", out)
}

func TestCLIGoldenFsckHealthy(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}, {"run", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	out, err := popperOut(t, dir, "fsck")
	if err != nil {
		t.Fatalf("fsck on a healthy repo: %v", err)
	}
	golden(t, "fsck-healthy.golden", out)
}

func TestCLIGoldenFsckDamagedAndRepair(t *testing.T) {
	dir := damagedRepo(t)

	out, err := popperOut(t, dir, "fsck")
	if err == nil {
		t.Fatal("fsck on a damaged repo must fail without --repair")
	}
	if !strings.Contains(err.Error(), "--repair") {
		t.Fatalf("fsck error should point at --repair: %v", err)
	}
	golden(t, "fsck-damaged.golden", out)

	out, err = popperOut(t, dir, "fsck", "--repair")
	if err != nil {
		t.Fatalf("fsck --repair: %v\n%s", err, out)
	}
	golden(t, "fsck-repair.golden", out)

	out, err = popperOut(t, dir, "fsck")
	if err != nil {
		t.Fatalf("fsck after repair: %v", err)
	}
	golden(t, "fsck-post-repair.golden", out)

	// The quarantine preserved the unprovable bytes verbatim.
	q, err := os.ReadFile(filepath.Join(dir, ".popper/quarantine/gen-4/experiments/stm/vars.yml"))
	if err != nil || !strings.HasPrefix(string(q), "##") {
		t.Fatalf("quarantined vars.yml: %q err %v", q, err)
	}
	// Restored files carry their exact pre-damage bytes.
	results, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil || len(results) <= 100 {
		t.Fatalf("results.csv not restored: %d bytes, err %v", len(results), err)
	}
}

func TestCLIFsckOutsideRepo(t *testing.T) {
	dir := t.TempDir()
	if _, err := popperOut(t, dir, "fsck"); err == nil {
		t.Fatal("fsck outside a Popper repository must refuse")
	}
}

// sweepRepo builds a repository whose experiment expands into a
// 2-configuration sweep.
func sweepRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "cloverleaf", "sw"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "experiments/sw/sweep.yml"),
		[]byte("seed:\n  - 1\n  - 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCLIResumeTornJournalSuggestsFsck(t *testing.T) {
	dir := sweepRepo(t)
	if _, err := popperOut(t, dir, "run", "sw"); err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	journalPath := filepath.Join(dir, "experiments/sw/sweep/journal.csv")
	journal, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath, journal[:len(journal)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := popperOut(t, dir, "-resume", "run", "sw")
	if rerr == nil || !strings.Contains(rerr.Error(), "popper fsck") {
		t.Fatalf("-resume over a torn journal must point at fsck, got: %v", rerr)
	}
	// A resume with the journal deleted outright (outputs still present)
	// is the same typed failure.
	if err := os.Remove(journalPath); err != nil {
		t.Fatal(err)
	}
	_, rerr = popperOut(t, dir, "-resume", "run", "sw")
	if rerr == nil || !strings.Contains(rerr.Error(), "popper fsck") {
		t.Fatalf("-resume without the journal must point at fsck, got: %v", rerr)
	}
}

// TestCLICrashRepairResume is the end-to-end acceptance scenario: a
// seeded crash-disk fault kills `popper run` at an exact disk
// operation; `popper fsck --repair` heals the tree; `popper run
// -resume` finishes the sweep; and the final workspace is
// byte-identical to a run that never crashed. The operations, from a
// probe run of this two-config sweep: 2 fsyncs the first journal put
// record, 4 writes the second (tearing it), 65 is the final sync's
// commit rename, which folds the second record, and 69 is the first
// read of the garbage collection after that commit.
func TestCLICrashRepairResume(t *testing.T) {
	faultsFor := func(k int) string {
		return fmt.Sprintf("seed: 7\nfaults:\n  - site: disk/*\n    kind: crash-disk\n    global: true\n    after: %d\n    times: 1\n", k)
	}
	for _, k := range []int{2, 4, 65, 69} {
		k := k
		t.Run(fmt.Sprintf("crash-at-disk-op-%02d", k), func(t *testing.T) {
			// Reference: identical repository (including the faults.yml
			// bytes), run without fault injection.
			ref := sweepRepo(t)
			if err := os.WriteFile(filepath.Join(ref, "faults.yml"), []byte(faultsFor(k)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := popperOut(t, ref, "run", "sw"); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			dir := sweepRepo(t)
			if err := os.WriteFile(filepath.Join(dir, "faults.yml"), []byte(faultsFor(k)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, crashErr := popperOut(t, dir, "-faults", "faults.yml", "run", "sw")
			if crashErr == nil {
				t.Fatalf("crash at disk op %d never fired", k)
			}
			if _, err := popperOut(t, dir, "fsck", "--repair"); err != nil {
				t.Fatalf("fsck --repair after crash: %v", err)
			}
			if out, err := popperOut(t, dir, "fsck"); err != nil {
				t.Fatalf("fsck not clean after repair: %v\n%s", err, out)
			}
			if _, err := popperOut(t, dir, "-resume", "run", "sw"); err != nil {
				t.Fatalf("run -resume after repair: %v", err)
			}

			got := mustLoadDir(dir)
			want := mustLoadDir(ref)
			if len(got) != len(want) {
				t.Fatalf("file count differs after recovery: got %d, want %d", len(got), len(want))
			}
			for path, content := range want {
				if string(got[path]) != string(content) {
					t.Errorf("%s differs after crash-repair-resume (%d vs %d bytes)", path, len(got[path]), len(content))
				}
			}
		})
	}
}
