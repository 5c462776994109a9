// Package ci implements the continuous-integration tier of the Popper
// convention (the role Travis CI plays in the paper): a service bound to
// a repository that, on every commit, reads the `.travis.yml`
// configuration from the committed tree and executes its script steps
// across the build matrix, recording per-step results and exposing build
// history and a status badge.
//
// The paper's tier-1 validations run here: "that the paper is always in
// a state that can be built; that the syntax of orchestration files is
// correct; [...] that the post-processing routines can be executed
// without problems."
package ci

import (
	"fmt"
	"strings"
	"sync"

	"popper/internal/vcs"
	"popper/internal/yamlite"
)

// Config is the parsed CI configuration.
type Config struct {
	Language string
	Script   []string // commands run in order
	Matrix   []string // env specs like "NODES=4"; empty means one build
	Branches []string // branches.only filter; empty means all branches
}

// ConfigFiles lists the file names probed in the committed tree, in
// priority order.
var ConfigFiles = []string{".popper-ci.yml", ".travis.yml"}

// ParseConfig decodes a CI configuration document.
func ParseConfig(src string) (*Config, error) {
	doc, err := yamlite.DecodeMap(src)
	if err != nil {
		return nil, fmt.Errorf("ci: %w", err)
	}
	cfg := &Config{
		Language: yamlite.GetString(doc, "language", ""),
		Script:   yamlite.GetStringSlice(doc, "script"),
		Matrix:   yamlite.GetStringSlice(doc, "env.matrix"),
		Branches: yamlite.GetStringSlice(doc, "branches.only"),
	}
	if len(cfg.Script) == 0 {
		if s := yamlite.GetString(doc, "script", ""); s != "" {
			cfg.Script = []string{s}
		}
	}
	if len(cfg.Script) == 0 {
		return nil, fmt.Errorf("ci: configuration has no script")
	}
	return cfg, nil
}

// Status of a build.
type Status string

// Build statuses.
const (
	StatusPassed  Status = "passed"
	StatusFailed  Status = "failed"
	StatusErrored Status = "errored" // infrastructure/config problem
	StatusSkipped Status = "skipped" // branch filtered out / no config
)

// StepResult is one script command's outcome in one matrix entry.
type StepResult struct {
	Cmd    string
	Env    string
	Output string
	Err    error
}

// Build is one CI run for one commit.
type Build struct {
	Number int
	Commit vcs.Hash
	Branch string
	Status Status
	Steps  []StepResult
	Log    string
}

// Runner executes one script step against the committed tree. `files`
// is the checkout (read-only by convention); env holds KEY=VALUE pairs
// from the matrix entry. The returned string is appended to the log.
type Runner func(cmd string, env map[string]string, files map[string][]byte) (string, error)

// Service watches a repository and builds every commit.
type Service struct {
	mu     sync.Mutex
	repo   *vcs.Repository
	runner Runner
	builds []Build
}

// NewService attaches a CI service to a repository. The runner executes
// script steps; it must be non-nil.
func NewService(repo *vcs.Repository, runner Runner) (*Service, error) {
	if repo == nil || runner == nil {
		return nil, fmt.Errorf("ci: need repository and runner")
	}
	s := &Service{repo: repo, runner: runner}
	repo.OnCommit(func(c vcs.Commit) { s.buildCommit(c) })
	return s, nil
}

// buildCommit runs CI for a commit (synchronously, deterministic).
func (s *Service) buildCommit(c vcs.Commit) {
	s.mu.Lock()
	number := len(s.builds) + 1
	s.mu.Unlock()

	branch := s.repo.CurrentBranch()
	b := Build{Number: number, Commit: c.Hash, Branch: branch}

	files, err := s.repo.Checkout(c.Hash)
	if err != nil {
		b.Status = StatusErrored
		b.Log = fmt.Sprintf("checkout failed: %v", err)
		s.append(b)
		return
	}
	var cfgSrc []byte
	for _, name := range ConfigFiles {
		if content, ok := files[name]; ok {
			cfgSrc = content
			break
		}
	}
	if cfgSrc == nil {
		b.Status = StatusSkipped
		b.Log = "no CI configuration in tree"
		s.append(b)
		return
	}
	cfg, err := ParseConfig(string(cfgSrc))
	if err != nil {
		b.Status = StatusErrored
		b.Log = err.Error()
		s.append(b)
		return
	}
	if len(cfg.Branches) > 0 && !contains(cfg.Branches, branch) {
		b.Status = StatusSkipped
		b.Log = fmt.Sprintf("branch %q not in branches.only", branch)
		s.append(b)
		return
	}
	matrix := cfg.Matrix
	if len(matrix) == 0 {
		matrix = []string{""}
	}
	var log strings.Builder
	b.Status = StatusPassed
	for _, envSpec := range matrix {
		env := parseEnv(envSpec)
		for _, cmd := range cfg.Script {
			out, err := s.runner(cmd, env, files)
			step := StepResult{Cmd: cmd, Env: envSpec, Output: out, Err: err}
			b.Steps = append(b.Steps, step)
			status := "ok"
			if err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(&log, "[%s] $ %s  (%s)\n", envSpec, cmd, status)
			if out != "" {
				fmt.Fprintf(&log, "%s\n", strings.TrimRight(out, "\n"))
			}
			if err != nil {
				fmt.Fprintf(&log, "error: %v\n", err)
				b.Status = StatusFailed
				break // remaining steps of this matrix entry skipped
			}
		}
	}
	b.Log = log.String()
	s.append(b)
}

func (s *Service) append(b Build) {
	s.mu.Lock()
	s.builds = append(s.builds, b)
	s.mu.Unlock()
}

func parseEnv(spec string) map[string]string {
	env := make(map[string]string)
	for _, kv := range strings.Fields(spec) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			env[k] = v
		}
	}
	return env
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Builds returns the build history, oldest first.
func (s *Service) Builds() []Build {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Build(nil), s.builds...)
}

// Latest returns the most recent build.
func (s *Service) Latest() (Build, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.builds) == 0 {
		return Build{}, false
	}
	return s.builds[len(s.builds)-1], true
}

// LatestFor returns the most recent build of a given commit.
func (s *Service) LatestFor(commit vcs.Hash) (Build, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.builds) - 1; i >= 0; i-- {
		if s.builds[i].Commit == commit {
			return s.builds[i], true
		}
	}
	return Build{}, false
}

// Badge renders the README status badge text for the latest build.
func (s *Service) Badge() string {
	b, ok := s.Latest()
	if !ok {
		return "[build: unknown]"
	}
	return fmt.Sprintf("[build: %s]", b.Status)
}

// Summary renders a one-line-per-build history table.
func (s *Service) Summary() string {
	builds := s.Builds()
	var sb strings.Builder
	for _, b := range builds {
		fmt.Fprintf(&sb, "#%-4d %s %-8s %-7s steps=%d\n",
			b.Number, b.Commit.Short(), b.Branch, b.Status, len(b.Steps))
	}
	return sb.String()
}
