package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
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

// putRecords lists the put records under dir/.popper.
func putRecords(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, ".popper", "put-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCLICrashRepairResume is the end-to-end acceptance scenario: a
// seeded crash-disk fault kills `popper run` at an exact disk
// operation; `popper fsck --repair` heals the tree; `popper run
// -resume` finishes the sweep; and the final workspace is
// byte-identical to a run that never crashed. Each case checks that
// the crash struck the site it names, so a change in how many disk
// operations a step takes fails here instead of moving the crash
// point. On this two-config sweep op 2 fsyncs the first journal put
// record; op 4 writes the second, tearing it (fsck names it torn, and
// the resumed run's commit leaves no record); the final sync's batched
// flush of a sweep directory and its commit rename are struck by rules
// on their own sites, so their indexes never matter (every staged file
// is in place but the intent record is left behind, and repair rolls
// it back); op 57 is the directory fsync after that rename (the commit
// took effect, and repair removes the folded records still on disk);
// and op 61 is the first read of the garbage collection after the
// records' durable removal (the extent index the commit kept decides
// every extent without reading it).
func TestCLICrashRepairResume(t *testing.T) {
	atOp := func(k int) string {
		return fmt.Sprintf("seed: 7\nfaults:\n  - site: disk/*\n    kind: crash-disk\n    global: true\n    after: %d\n    times: 1\n", k)
	}
	cases := []struct {
		name, faults, site string
		torn               bool   // the crash tears the second put record
		repair             string // a pattern fsck --repair's report must match
	}{
		{"crash-at-disk-op-02", atOp(2), `disk/fsync/.popper/put-2-1#2`, false, ""},
		{"crash-at-disk-op-04", atOp(4), `disk/write/.popper/put-2-2#4`, true, ""},
		{"crash-at-sweep-dir-flush", "seed: 7\nfaults:\n  - site: disk/syncdir/experiments/sw/sweep/001\n    kind: crash-disk\n    times: 1\n",
			`disk/syncdir/experiments/sw/sweep/001#0`, false, `rolled-back\s+\.popper/manifest\.next`},
		{"crash-at-commit-rename", "seed: 7\nfaults:\n  - site: disk/rename/.popper/manifest\n    kind: crash-disk\n    times: 1\n",
			`disk/rename/.popper/manifest#0`, false, `rolled-back\s+\.popper/manifest\.next`},
		{"crash-at-disk-op-57", atOp(57), `disk/syncdir/.popper#57`, false, `removed\s+\.popper/put-2-2 — stale put record`},
		{"crash-at-disk-op-61", atOp(61), `disk/read/.popper/manifest.next#61`, false, ""},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Reference: identical repository (including the faults.yml
			// bytes), run without fault injection.
			ref := sweepRepo(t)
			if err := os.WriteFile(filepath.Join(ref, "faults.yml"), []byte(c.faults), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := popperOut(t, ref, "run", "sw"); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			dir := sweepRepo(t)
			if err := os.WriteFile(filepath.Join(dir, "faults.yml"), []byte(c.faults), 0o644); err != nil {
				t.Fatal(err)
			}
			_, crashErr := popperOut(t, dir, "-faults", "faults.yml", "run", "sw")
			if crashErr == nil || !strings.Contains(crashErr.Error(), "crash-disk at "+c.site+":") {
				t.Fatalf("want the crash at %s, got: %v", c.site, crashErr)
			}
			if c.torn {
				out, err := popperOut(t, dir, "fsck")
				if err == nil || !regexp.MustCompile(`torn\s+\.popper/put-2-2 — put record fails its checksum`).MatchString(out) {
					t.Fatalf("fsck after the crash does not report the second record torn (err %v):\n%s", err, out)
				}
			}
			out, err := popperOut(t, dir, "fsck", "--repair")
			if err != nil {
				t.Fatalf("fsck --repair after crash: %v", err)
			}
			if c.repair != "" && !regexp.MustCompile(c.repair).MatchString(out) {
				t.Fatalf("fsck --repair does not report %q:\n%s", c.repair, out)
			}
			if out, err := popperOut(t, dir, "fsck"); err != nil {
				t.Fatalf("fsck not clean after repair: %v\n%s", err, out)
			}
			if _, err := popperOut(t, dir, "-resume", "run", "sw"); err != nil {
				t.Fatalf("run -resume after repair: %v", err)
			}
			if r := putRecords(t, dir); c.torn && len(r) != 0 {
				t.Fatalf("the resumed run's commit left records %v", r)
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

// TestCLIPutRecordsRerunLeavesOneRecord walks the sweep journal's put
// records through the CLI on a 3-config sweep. The first run's final
// sync folds its records, so none is left. A re-run of the unchanged
// sweep ends at the committed journal: its last Put writes the empty
// committed record, which is the one record left at rest, and fsck is
// clean. (A torn record is TestCLICrashRepairResume's op-4 case.)
func TestCLIPutRecordsRerunLeavesOneRecord(t *testing.T) {
	dir := sweepRepo(t)
	if err := os.WriteFile(filepath.Join(dir, "experiments/sw/sweep.yml"), []byte("seed:\n  - 1\n  - 2\n  - 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := popperOut(t, dir, "run", "sw"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if r := putRecords(t, dir); len(r) != 0 {
		t.Fatalf("the first run's final sync left records %v", r)
	}
	for i := 0; i < 2; i++ {
		if _, err := popperOut(t, dir, "run", "sw"); err != nil {
			t.Fatalf("re-run: %v", err)
		}
		if r := putRecords(t, dir); len(r) != 1 {
			t.Fatalf("re-run %d of the unchanged sweep left records %v, want exactly one", i+1, r)
		}
		if out, err := popperOut(t, dir, "fsck"); err != nil {
			t.Fatalf("fsck after re-run %d: %v\n%s", i+1, err, out)
		}
	}
}

// forgedRepo builds a healthy repository in a directory of its own and
// appends an entry naming path, with the size and hash of the content
// content picks from it, to its committed manifest, recomputing the
// checksum as anyone who can write .popper/manifest can. It returns the
// repository and its parent.
func forgedRepo(t *testing.T, path string, content func(dir string) []byte) (dir, parent string) {
	t.Helper()
	parent = t.TempDir()
	dir = filepath.Join(parent, "repo")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}, {"run", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	data := content(dir)
	file := filepath.Join(dir, ".popper", "manifest")
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:strings.LastIndex(string(raw), "checksum ")]
	body = fmt.Appendf(body, "%x %d %s\n", sha256.Sum256(data), len(data), path)
	if err := os.WriteFile(file, fmt.Appendf(body, "checksum %x\n", sha256.Sum256(body)), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, parent
}

// TestCLIForgedManifestRunRefuses: `popper run` over a manifest forged
// to track ../victim.txt refuses and names `popper fsck --repair`
// instead of pruning the file beside the repository; the repair
// rebuilds the manifest from the tree, and the next run passes.
func TestCLIForgedManifestRunRefuses(t *testing.T) {
	victimText := []byte("a file beside the repository\n")
	dir, parent := forgedRepo(t, "../victim.txt", func(string) []byte { return victimText })
	victim := filepath.Join(parent, "victim.txt")
	if err := os.WriteFile(victim, victimText, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := popperOut(t, dir, "run", "stm"); err == nil || !strings.Contains(err.Error(), "popper fsck --repair") {
		t.Fatalf("run over a forged manifest: %v, want a refusal naming `popper fsck --repair`", err)
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != string(victimText) {
		t.Fatalf("the file beside the repository after run: %q, %v", data, err)
	}
	out, err := popperOut(t, dir, "fsck", "--repair")
	if err != nil || !strings.Contains(out, "rebuilt") {
		t.Fatalf("fsck --repair: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"fsck"}, {"run", "stm"}} {
		if out, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v after the repair: %v\n%s", args, err, out)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != string(victimText) {
		t.Fatalf("the file beside the repository after the repair: %q, %v", data, err)
	}
}

// TestCLIForgedManifestRepairStaysInside: `popper fsck` over a manifest
// forged to track ../escaped.txt with the content of a tracked file,
// which the pool holds, reports the manifest damaged, not a restorable
// file outside the repository, and `popper fsck --repair` rebuilds the
// manifest without writing there.
func TestCLIForgedManifestRepairStaysInside(t *testing.T) {
	dir, parent := forgedRepo(t, "../escaped.txt", func(dir string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	})
	out, err := popperOut(t, dir, "fsck")
	if err == nil || !strings.Contains(out, "manifest damaged") || strings.Contains(out, "escaped.txt") {
		t.Fatalf("fsck over a forged manifest: %v\n%s", err, out)
	}
	if out, err := popperOut(t, dir, "fsck", "--repair"); err != nil {
		t.Fatalf("fsck --repair: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(parent, "escaped.txt")); !os.IsNotExist(err) {
		t.Fatalf("fsck --repair wrote outside the repository: %v", err)
	}
	if out, err := popperOut(t, dir, "fsck"); err != nil {
		t.Fatalf("fsck after the repair: %v\n%s", err, out)
	}
}
