package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popper/internal/pipeline"
	"popper/internal/store"
)

func inTemp(t *testing.T) string {
	t.Helper()
	return t.TempDir()
}

func popper(t *testing.T, dir string, args ...string) error {
	t.Helper()
	return run(append([]string{"-C", dir}, args...))
}

func TestCLIInitAddCheckRun(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	// double init refused
	if err := popper(t, dir, "init"); err == nil {
		t.Fatal("double init must fail")
	}
	if err := popper(t, dir, "experiment", "list"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "check"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "lint"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "run", "stm"); err != nil {
		t.Fatal(err)
	}
	// results and figures landed on disk
	for _, rel := range []string{
		"experiments/stm/results.csv",
		"experiments/stm/figure.txt",
		"experiments/stm/figure.svg",
	} {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("%s missing: %v", rel, err)
		}
	}
	if err := popper(t, dir, "build-paper"); err != nil {
		t.Fatal(err)
	}
	pdf, err := os.ReadFile(filepath.Join(dir, "paper/paper.pdf"))
	if err != nil || !strings.Contains(string(pdf), "figure: experiments/stm/figure.svg") {
		t.Fatalf("paper.pdf = %q, %v", pdf, err)
	}
}

func TestCLIPaperTemplates(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "paper", "list"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "paper", "add", "bams"); err != nil {
		t.Fatal(err)
	}
	tex, err := os.ReadFile(filepath.Join(dir, "paper/paper.tex"))
	if err != nil || !strings.Contains(string(tex), "Data-Centric") {
		t.Fatalf("bams template not applied: %v", err)
	}
	if err := popper(t, dir, "paper", "add", "nope"); err == nil {
		t.Fatal("unknown paper template must fail")
	}
	if err := popper(t, dir, "paper"); err == nil {
		t.Fatal("bad paper usage must fail")
	}
}

func TestCLIErrors(t *testing.T) {
	dir := inTemp(t)
	// commands before init fail cleanly
	for _, args := range [][]string{
		{"check"}, {"add", "torpor", "x"}, {"run", "x"}, {"lint"}, {"build-paper"},
	} {
		if err := popper(t, dir, args...); err == nil {
			t.Errorf("%v before init must fail", args)
		}
	}
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir); err == nil {
		t.Fatal("no command must fail")
	}
	if err := popper(t, dir, "frobnicate"); err == nil {
		t.Fatal("unknown command must fail")
	}
	if err := popper(t, dir, "add", "onlyone"); err == nil {
		t.Fatal("add arity must fail")
	}
	if err := popper(t, dir, "add", "ghost-template", "x"); err == nil {
		t.Fatal("unknown template must fail")
	}
	if err := popper(t, dir, "run"); err == nil {
		t.Fatal("run arity must fail")
	}
	if err := popper(t, dir, "run", "ghost"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if err := popper(t, dir, "experiment", "typo"); err == nil {
		t.Fatal("bad experiment subcommand must fail")
	}
}

func TestCLICheckFailsOnBrokenRepo(t *testing.T) {
	dir := inTemp(t)
	popper(t, dir, "init")
	popper(t, dir, "add", "zlog", "log")
	if err := os.Remove(filepath.Join(dir, "experiments/log/validations.aver")); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "check"); err == nil {
		t.Fatal("check must fail on non-compliant repo")
	}
}

func TestCLISeedDeterminism(t *testing.T) {
	// torpor's measured profile carries platform jitter, so it is
	// sensitive to the seed while remaining reproducible for a fixed one.
	results := func(seed string) string {
		dir := inTemp(t)
		popper(t, dir, "init")
		popper(t, dir, "add", "torpor", "vp")
		if err := run([]string{"-C", dir, "-seed", seed, "run", "vp"}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "experiments/vp/results.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if results("5") != results("5") {
		t.Fatal("same seed must reproduce results")
	}
	if results("5") == results("6") {
		t.Fatal("different seeds should differ")
	}
}

func TestLoadDirSkipsDotDirs(t *testing.T) {
	dir := inTemp(t)
	popper(t, dir, "init")
	os.MkdirAll(filepath.Join(dir, ".git/objects"), 0o755)
	os.WriteFile(filepath.Join(dir, ".git/config"), []byte("x"), 0o644)
	files := mustLoadDir(dir)
	for path := range files {
		if strings.HasPrefix(path, ".git/") {
			t.Fatalf("dot dir leaked: %s", path)
		}
	}
	if _, ok := files[".popper.yml"]; !ok {
		t.Fatal("config must be loaded")
	}
	if _, ok := files[".travis.yml"]; !ok {
		t.Fatal("CI config must be loaded")
	}
}

func TestCLICIScript(t *testing.T) {
	dir := inTemp(t)
	popper(t, dir, "init")
	popper(t, dir, "add", "proteustm", "stm")
	if err := popper(t, dir, "ci"); err != nil {
		t.Fatal(err)
	}
	// failing script fails the command
	os.WriteFile(filepath.Join(dir, ".travis.yml"),
		[]byte("script:\n  - popper check\n  - unknown-step\n"), 0o644)
	if err := popper(t, dir, "ci"); err == nil {
		t.Fatal("unknown step must fail")
	}
	// missing config
	os.Remove(filepath.Join(dir, ".travis.yml"))
	if err := popper(t, dir, "ci"); err == nil {
		t.Fatal("missing CI config must fail")
	}
	// matrix form
	os.WriteFile(filepath.Join(dir, ".travis.yml"),
		[]byte("script:\n  - popper lint\nenv:\n  matrix:\n    - A=1\n    - A=2\n"), 0o644)
	if err := popper(t, dir, "ci"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIReport(t *testing.T) {
	dir := inTemp(t)
	popper(t, dir, "init")
	popper(t, dir, "add", "proteustm", "stm")
	popper(t, dir, "run", "stm")
	if err := popper(t, dir, "report"); err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(filepath.Join(dir, "report.html"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "PASS", "experiments/stm"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCLIMachines(t *testing.T) {
	if err := run([]string{"machines"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLISweepRun(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	sweep := filepath.Join(dir, "experiments/stm/sweep.yml")
	if err := os.WriteFile(sweep, []byte("seed: [1, 2]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "-jobs", "2", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	// per-configuration outputs land under sweep/<idx>/, merged rows at
	// the experiment root
	for _, rel := range []string{
		"experiments/stm/results.csv",
		"experiments/stm/sweep/000/results.csv",
		"experiments/stm/sweep/001/results.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("%s missing: %v", rel, err)
		}
	}
	merged, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil || !strings.Contains(string(merged), "seed") {
		t.Fatalf("merged results missing seed column: %v\n%s", err, merged)
	}
	// a repeat run (warm disk state) must still pass, with and without
	// the stage cache
	if err := popper(t, dir, "-jobs", "2", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "-no-cache", "run", "stm"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIRunWithJobsAndCacheFlags(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "-jobs", "4", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "-no-cache", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIClusterSweepRun(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	sweep := filepath.Join(dir, "experiments/stm/sweep.yml")
	if err := os.WriteFile(sweep, []byte("seed: [1, 2, 3, 4]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// -hosts fans the sweep across simulated hosts; at any -jobs the
	// merged results must be those of the flat run.
	if err := popper(t, dir, "-hosts", "4", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	clustered, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "-hosts", "4", "-jobs", "2", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "run", "stm"); err != nil {
		t.Fatal(err)
	}
	flat, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(flat) != string(clustered) {
		t.Fatalf("cluster-scheduled results diverge from flat results:\n%s\nvs\n%s", clustered, flat)
	}
}

func TestCLICacheWarmStartAcrossProcesses(t *testing.T) {
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	// First invocation: cold cache, saves the sidecar on exit.
	if err := popper(t, dir, "run", "stm"); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, ".popper", "cache.extent")
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("first run must leave the cache sidecar: %v", err)
	}
	// Second invocation is a fresh store/cache (simulating a new
	// process): the sidecar must warm it.
	if err := popper(t, dir, "run", "stm"); err != nil {
		t.Fatal(err)
	}
	warmed := pipeline.NewCacheOpts(pipeline.CacheOptions{State: store.Open(dir).LoadCacheState()})
	if warmed.WarmEntries() == 0 {
		t.Fatal("sidecar restored no entries")
	}
	// -no-cache leaves the sidecar untouched.
	if err := popper(t, dir, "-no-cache", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("-no-cache must not disturb the sidecar: %v", err)
	}
	// fsck stays clean with the sidecar in place.
	if err := popper(t, dir, "fsck"); err != nil {
		t.Fatal(err)
	}
}
