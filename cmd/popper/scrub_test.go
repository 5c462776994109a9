package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healthyRepo builds and runs one experiment so the tree carries a
// committed manifest generation with loose and packed objects.
func healthyRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}, {"run", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	return dir
}

// TestCLIScrubDetectsAndHealsSilentRot drives the scrub command end to
// end over a real directory store: silent rot in a tracked file passes
// every read unnoticed, `popper scrub` fails pointing at --repair,
// `popper scrub --repair` heals the exact bytes back, and the follow-up
// scrub is clean.
func TestCLIScrubDetectsAndHealsSilentRot(t *testing.T) {
	dir := healthyRepo(t)
	path := filepath.Join(dir, "experiments/stm/results.csv")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Silent rot: same length, different bytes, no I/O error anywhere.
	rotted := append([]byte(nil), clean...)
	rotted[len(rotted)/2] ^= 0x20
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := popperOut(t, dir, "scrub")
	if err == nil || !strings.Contains(err.Error(), "--repair") {
		t.Fatalf("scrub over silent rot must fail pointing at --repair, got: %v\n%s", err, out)
	}
	if !strings.Contains(out, "experiments/stm/results.csv") {
		t.Fatalf("scrub did not name the rotted file:\n%s", out)
	}

	out, err = popperOut(t, dir, "scrub", "--repair")
	if err != nil {
		t.Fatalf("scrub --repair: %v\n%s", err, out)
	}
	if !strings.Contains(out, "healed from") {
		t.Fatalf("repair did not report its source:\n%s", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("healed file is not byte-identical to the pre-rot content")
	}

	out, err = popperOut(t, dir, "scrub")
	if err != nil {
		t.Fatalf("scrub after repair: %v\n%s", err, out)
	}
	if !strings.Contains(out, "scrub: clean") {
		t.Fatalf("post-repair scrub not clean:\n%s", out)
	}
	// And fsck subsumes the scrub verdict: a clean repository stays
	// clean through both walks.
	if out, err := popperOut(t, dir, "fsck"); err != nil {
		t.Fatalf("fsck after scrub repair: %v\n%s", err, out)
	}
}

// TestCLIRunScrubInterval exercises the background scrubber: a run
// with -scrub-interval emits the scrub report line, publishes nothing
// alarming on a healthy tree, and the run still passes.
func TestCLIRunScrubInterval(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	out, err := popperOut(t, dir, "-scrub-interval", "1ms", "run", "stm")
	if err != nil {
		t.Fatalf("run with -scrub-interval: %v\n%s", err, out)
	}
	if !strings.Contains(out, "-- scrub:") {
		t.Fatalf("run did not report the scrub summary:\n%s", out)
	}
	if !strings.Contains(out, "0 finding(s), 0 healed, 0 unrepairable") {
		t.Fatalf("healthy run reported findings:\n%s", out)
	}
}

// TestCLIFsckAndScrubRunPassOverLegacySeal: a repository an earlier
// version committed holds a hash-tree seal at .popper/merkle. `popper
// fsck` is clean with it in place, a `-scrub-interval` run — whose
// final pass verifies the tree before the run's own commit — passes,
// and that commit removes the file.
func TestCLIFsckAndScrubRunPassOverLegacySeal(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{"init"}, {"add", "proteustm", "stm"}} {
		if _, err := popperOut(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	seal := filepath.Join(dir, ".popper", "merkle")
	if err := os.WriteFile(seal, []byte("a seal an earlier version wrote\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := popperOut(t, dir, "fsck"); err != nil || !strings.Contains(out, "scrub: clean") {
		t.Fatalf("fsck beside a legacy seal: %v\n%s", err, out)
	}
	out, err := popperOut(t, dir, "-scrub-interval", "1s", "run", "stm")
	if err != nil || !strings.Contains(out, "0 finding(s), 0 healed, 0 unrepairable") {
		t.Fatalf("run with -scrub-interval beside a legacy seal: %v\n%s", err, out)
	}
	if _, err := os.Stat(seal); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the run's commit left the legacy seal behind (stat: %v)", err)
	}
	if out, err := popperOut(t, dir, "fsck"); err != nil {
		t.Fatalf("fsck after the run: %v\n%s", err, out)
	}
}

// TestCLIRunScrubIntervalCatchesRot seeds silent rot before the run:
// the final scrub pass must fail the run and name the damage.
func TestCLIRunScrubIntervalCatchesRot(t *testing.T) {
	dir := healthyRepo(t)
	path := filepath.Join(dir, "experiments/stm/figure.txt")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), clean...)
	rotted[0] ^= 0x01
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := popperOut(t, dir, "-scrub-interval", "1ms", "run", "stm")
	if err == nil || !strings.Contains(err.Error(), "silent corruption") {
		t.Fatalf("run over rot must fail via the final scrub pass, got: %v\n%s", err, out)
	}
}
