package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// forgeManifestEntry appends an entry naming path, with content's size
// and hash, to the committed manifest of the repository at dir and
// recomputes its checksum: the checksum is plain SHA-256, so anyone who
// can write .popper/manifest can do this.
func forgeManifestEntry(t *testing.T, dir, path string, content []byte) {
	t.Helper()
	file := filepath.Join(dir, filepath.FromSlash(manifestPath))
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:bytes.LastIndex(raw, []byte("checksum "))]
	body = fmt.Appendf(body, "%x %d %s\n", sha256.Sum256(content), len(content), path)
	forged := fmt.Appendf(body, "checksum %x\n", sha256.Sum256(body))
	if err := os.WriteFile(file, forged, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForgedManifestCannotPruneOutsideRepository: a manifest forged to
// track ../victim.txt is damaged, so `popper run`'s Load and Sync
// refuse and name `popper fsck --repair` instead of pruning the file
// beside the repository, and the repair rebuilds the manifest from the
// tree without touching it.
func TestForgedManifestCannotPruneOutsideRepository(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "repo")
	victim := filepath.Join(parent, "victim.txt")
	if err := os.WriteFile(victim, []byte("not the repository's\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSync(t, Open(dir), w1())
	forgeManifestEntry(t, dir, "../victim.txt", []byte("not the repository's\n"))

	st := Open(dir)
	files, err := st.Load()
	if err == nil {
		_, err = st.Sync(files)
	}
	if err == nil || !strings.Contains(err.Error(), "popper fsck --repair") {
		t.Fatalf("load and sync over the forged manifest: %v, want a refusal naming `popper fsck --repair`", err)
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "not the repository's\n" {
		t.Fatalf("the file beside the repository: %q, %v", data, err)
	}

	rep := mustRepair(t, st, nil)
	if verbs(rep)[manifestPath] != "rebuilt" {
		t.Fatalf("repair did not rebuild the manifest:\n%s", rep.Format())
	}
	mustCleanVerify(t, st, "after the repair")
	if man := mustManifest(t, st); man.Len() != len(w1()) {
		t.Fatalf("the rebuilt manifest tracks %d files, want %d", man.Len(), len(w1()))
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("the repair removed the file beside the repository: %v", err)
	}
}

// TestForgedManifestCannotRepairOutsideRepository: a manifest forged to
// track ../escaped.txt with content the pool holds is damaged, so
// verify reports the manifest, not a restorable ../escaped.txt, and
// `popper fsck --repair` rebuilds it instead of writing pool content
// outside the repository.
func TestForgedManifestCannotRepairOutsideRepository(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "repo")
	mustSync(t, Open(dir), w1())
	forgeManifestEntry(t, dir, "../escaped.txt", w1()["exp/run.sh"])

	st := Open(dir)
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if f := findingAt(rep, manifestPath); f == nil || f.State != StateManifest {
		t.Fatalf("verify does not report the forged manifest as damaged:\n%s", rep.Format())
	}
	if f := findingAt(rep, "../escaped.txt"); f != nil {
		t.Fatalf("verify judged a path outside the repository: %+v", *f)
	}
	mustRepair(t, st, nil)
	mustCleanVerify(t, st, "after the repair")
	if _, err := os.Stat(filepath.Join(parent, "escaped.txt")); !os.IsNotExist(err) {
		t.Fatalf("the repair wrote outside the repository: %v", err)
	}
}

// TestParseManifestRefusesUntrackedAndRepeatedPaths: an entry path
// Tracked refuses, or one an earlier entry holds, makes the whole
// manifest damaged.
func TestParseManifestRefusesUntrackedAndRepeatedPaths(t *testing.T) {
	good := (&Manifest{Generation: 3, Entries: []Entry{{Path: "exp/a.csv", Size: 1}}}).Encode()
	if _, err := ParseManifest(good); err != nil {
		t.Fatalf("a tracked manifest: %v", err)
	}
	for _, path := range []string{
		"../victim.txt", "exp/../../x", "/etc/passwd", "exp//a", "exp/", ".popper/manifest",
		".git/config", "exp/.hidden/a", "exp/a.csv.ptmp", "exp/a.csv",
	} {
		m := &Manifest{Generation: 3, Entries: []Entry{{Path: "exp/a.csv", Size: 1}, {Path: path, Size: 2}}}
		_, err := ParseManifest(m.Encode())
		want := "is not a tracked path"
		if path == "exp/a.csv" {
			want = "repeats an earlier entry"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("entry %q: %v, want an error that it %s", path, err, want)
		}
	}
}
