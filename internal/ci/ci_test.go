package ci

import (
	"fmt"
	"strings"
	"testing"

	"popper/internal/vcs"
)

const travisYml = `
language: go
script:
  - ./paper/build.sh
  - ./experiments/gassyfs/run.sh
`

// okRunner succeeds on everything and records invocations.
func okRunner(calls *[]string) Runner {
	return func(cmd string, env map[string]string, files map[string][]byte) (string, error) {
		*calls = append(*calls, fmt.Sprintf("%s|%s", cmd, env["NODES"]))
		return "done", nil
	}
}

func repoWith(t *testing.T, files map[string][]byte, runner Runner) (*vcs.Repository, *Service) {
	t.Helper()
	repo := vcs.NewRepository()
	svc, err := NewService(repo, runner)
	if err != nil {
		t.Fatal(err)
	}
	if files != nil {
		if _, err := repo.Commit(files, "ci", "initial"); err != nil {
			t.Fatal(err)
		}
	}
	return repo, svc
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(travisYml)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Language != "go" || len(cfg.Script) != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := ParseConfig("language: go"); err == nil {
		t.Fatal("config without script must fail")
	}
	if _, err := ParseConfig("script: [unterminated"); err == nil {
		t.Fatal("bad yaml must fail")
	}
	// scalar script form
	cfg, err = ParseConfig("script: make test")
	if err != nil || len(cfg.Script) != 1 {
		t.Fatalf("scalar script = %+v, %v", cfg, err)
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil, nil); err == nil {
		t.Fatal("nil args must fail")
	}
}

func TestBuildOnCommit(t *testing.T) {
	var calls []string
	_, svc := repoWith(t, map[string][]byte{
		".travis.yml":    []byte(travisYml),
		"paper/build.sh": []byte("#!"),
	}, okRunner(&calls))

	builds := svc.Builds()
	if len(builds) != 1 {
		t.Fatalf("builds = %d", len(builds))
	}
	b := builds[0]
	if b.Status != StatusPassed || len(b.Steps) != 2 || b.Number != 1 {
		t.Fatalf("build = %+v", b)
	}
	if len(calls) != 2 {
		t.Fatalf("runner calls = %v", calls)
	}
	if !strings.Contains(b.Log, "./paper/build.sh") {
		t.Fatalf("log:\n%s", b.Log)
	}
	if svc.Badge() != "[build: passed]" {
		t.Fatalf("badge = %q", svc.Badge())
	}
}

func TestBuildMatrix(t *testing.T) {
	var calls []string
	cfgYml := `
script:
  - run.sh
env:
  matrix:
    - NODES=1
    - NODES=4
`
	_, svc := repoWith(t, map[string][]byte{".travis.yml": []byte(cfgYml)}, okRunner(&calls))
	b, _ := svc.Latest()
	if len(b.Steps) != 2 {
		t.Fatalf("matrix steps = %d", len(b.Steps))
	}
	if calls[0] != "run.sh|1" || calls[1] != "run.sh|4" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestFailingStepStopsMatrixEntry(t *testing.T) {
	runner := func(cmd string, env map[string]string, files map[string][]byte) (string, error) {
		if cmd == "bad" {
			return "boom", fmt.Errorf("exit 1")
		}
		return "", nil
	}
	cfg := "script:\n  - good\n  - bad\n  - never\n"
	_, svc := repoWith(t, map[string][]byte{".travis.yml": []byte(cfg)}, runner)
	b, _ := svc.Latest()
	if b.Status != StatusFailed {
		t.Fatalf("status = %s", b.Status)
	}
	if len(b.Steps) != 2 { // good + bad; never skipped
		t.Fatalf("steps = %+v", b.Steps)
	}
	if b.Steps[0].Err != nil || b.Steps[1].Err == nil || b.Steps[1].Cmd != "bad" {
		t.Fatalf("steps = %+v, want only bad failed", b.Steps)
	}
	if svc.Badge() != "[build: failed]" {
		t.Fatalf("badge = %q", svc.Badge())
	}
}

func TestNoConfigSkips(t *testing.T) {
	_, svc := repoWith(t, map[string][]byte{"README.md": []byte("x")}, okRunner(&[]string{}))
	b, _ := svc.Latest()
	if b.Status != StatusSkipped {
		t.Fatalf("status = %s", b.Status)
	}
}

func TestBadConfigErrors(t *testing.T) {
	_, svc := repoWith(t, map[string][]byte{".travis.yml": []byte("script: [")}, okRunner(&[]string{}))
	b, _ := svc.Latest()
	if b.Status != StatusErrored {
		t.Fatalf("status = %s", b.Status)
	}
}

func TestBranchFilter(t *testing.T) {
	cfg := "script:\n  - x\nbranches:\n  only:\n    - master\n"
	repo, svc := repoWith(t, map[string][]byte{".travis.yml": []byte(cfg)}, okRunner(&[]string{}))
	b, _ := svc.Latest()
	if b.Status != StatusPassed {
		t.Fatalf("master build = %s", b.Status)
	}
	// commits on another branch are skipped
	repo.CreateBranch("experiment", true)
	repo.Commit(map[string][]byte{".travis.yml": []byte(cfg)}, "x", "branch work")
	b, _ = svc.Latest()
	if b.Status != StatusSkipped || b.Branch != "experiment" {
		t.Fatalf("branch build = %+v", b)
	}
}

func TestPopperCIConfigPreferred(t *testing.T) {
	var calls []string
	_, svc := repoWith(t, map[string][]byte{
		".popper-ci.yml": []byte("script:\n  - popper-check\n"),
		".travis.yml":    []byte("script:\n  - travis-check\n"),
	}, okRunner(&calls))
	b, _ := svc.Latest()
	if b.Steps[0].Cmd != "popper-check" {
		t.Fatalf("steps = %+v", b.Steps)
	}
	_ = svc
}

func TestHistoryAcrossCommits(t *testing.T) {
	repo, svc := repoWith(t, map[string][]byte{".travis.yml": []byte("script:\n  - a\n")}, okRunner(&[]string{}))
	c2, _ := repo.Commit(map[string][]byte{".travis.yml": []byte("script:\n  - a\n"), "f": []byte("2")}, "x", "second")
	builds := svc.Builds()
	if len(builds) != 2 || builds[1].Number != 2 {
		t.Fatalf("history = %+v", builds)
	}
	b, ok := svc.LatestFor(c2.Hash)
	if !ok || b.Number != 2 {
		t.Fatalf("LatestFor = %+v, %v", b, ok)
	}
	if _, ok := svc.LatestFor("nope"); ok {
		t.Fatal("unknown commit should miss")
	}
	sum := svc.Summary()
	if strings.Count(sum, "\n") != 2 {
		t.Fatalf("summary:\n%s", sum)
	}
	for _, b := range svc.Builds() {
		if b.Status != StatusPassed {
			t.Fatalf("build #%d = %s, want %s", b.Number, b.Status, StatusPassed)
		}
	}
}

func TestEmptyServiceBadge(t *testing.T) {
	repo := vcs.NewRepository()
	svc, _ := NewService(repo, func(string, map[string]string, map[string][]byte) (string, error) {
		return "", nil
	})
	if svc.Badge() != "[build: unknown]" {
		t.Fatalf("badge = %q", svc.Badge())
	}
	if _, ok := svc.Latest(); ok {
		t.Fatal("no builds expected")
	}
}

func TestRunnerSeesCheckout(t *testing.T) {
	var sawRunSh bool
	runner := func(cmd string, env map[string]string, files map[string][]byte) (string, error) {
		_, sawRunSh = files["experiments/e/run.sh"]
		return "", nil
	}
	repoWith(t, map[string][]byte{
		".travis.yml":          []byte("script:\n  - check\n"),
		"experiments/e/run.sh": []byte("#!"),
	}, runner)
	if !sawRunSh {
		t.Fatal("runner must see the committed tree")
	}
}
