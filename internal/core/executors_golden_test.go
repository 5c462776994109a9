package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"popper/internal/aver"
)

// The gassyfs executor drives its clients concurrently; this pins the
// end-to-end determinism claim at the artifact level: the results.csv
// the pipeline archives, and the Aver verdicts derived from it, are
// byte-identical whether the hosts run serially or in parallel.
func TestGassyfsExecutorHostJobsInvariant(t *testing.T) {
	run := func(jobs string) ([]byte, string) {
		p, res := runTemplate(t, "gassyfs", map[string]string{
			"nodes": "1,2,4", "sources": "24", "segment_mb": "64", "jobs": jobs,
		})
		csv, ok := p.ExperimentFile("exp", "results.csv")
		if !ok {
			t.Fatal("results.csv missing")
		}
		return csv, aver.FormatResults(res.Validation)
	}
	csvSerial, verdictSerial := run("1")
	csvParallel, verdictParallel := run("8")
	if string(csvSerial) != string(csvParallel) {
		t.Fatalf("results.csv differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s",
			csvSerial, csvParallel)
	}
	if verdictSerial != verdictParallel {
		t.Fatalf("verdicts differ:\n--- jobs=1\n%s\n--- jobs=8\n%s", verdictSerial, verdictParallel)
	}
}

// templateDigestsFile lists the SHA-256 of every experiment file each
// template writes, one "<sha256>  <case>: <path>" line per file, under a
// "# GOARCH <arch>" header naming the architecture it was recorded on.
// The cases are every template at its default parameters at seeds 1, 7
// and 42, plus cloverleaf at the end-to-end benchmark's sizes
// (per-config clusters seeded seed+nodes) at two vars.yml seeds. Any
// change to a simulated float operation's order or inputs, or to an RNG
// draw, shows here; an intended output change re-pins the list in the
// same change.
const templateDigestsFile = "testdata/template_digests.txt"

type digestCase struct {
	name, template string
	seed           int64
	params         map[string]string
}

func digestCases() []digestCase {
	var cases []digestCase
	for _, template := range Templates() {
		for _, seed := range []int64{1, 7, 42} {
			cases = append(cases, digestCase{fmt.Sprintf("%s -seed %d", template, seed), template, seed, nil})
		}
	}
	cloverleaf := func(seed string) map[string]string {
		return map[string]string{"nodes": "1,2,4,8", "iterations": "200", "problem_size": "24", "seed": seed}
	}
	return append(cases,
		digestCase{"cloverleaf -seed 1 vars.seed=501", "cloverleaf", 1, cloverleaf("501")},
		digestCase{"cloverleaf -seed 1 vars.seed=611", "cloverleaf", 1, cloverleaf("611")},
	)
}

// templateDigests runs every case and returns its files' digests, keyed
// "<case>: <path>".
func templateDigests(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, c := range digestCases() {
		p := Init()
		if err := p.AddExperiment(c.template, "exp"); err != nil {
			t.Fatal(err)
		}
		for k, v := range c.params {
			if err := p.SetParam("exp", k, v); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := p.RunExperiment("exp", &Env{Seed: c.seed}); err != nil {
			t.Fatalf("%s failed: %v\nlog:\n%s", c.name, err, res.Record.Log)
		}
		prefix := expPath("exp", "")
		for path, data := range p.Files {
			if rel, ok := strings.CutPrefix(path, prefix); ok {
				got[c.name+": "+rel] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
		}
	}
	return got
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatDigests renders digests in templateDigestsFile's format.
func formatDigests(arch string, digests map[string]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# GOARCH %s\n", arch)
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(&sb, "%s  %s\n", digests[k], k)
	}
	return sb.String()
}

// parseDigests reads templateDigestsFile's format back.
func parseDigests(t *testing.T, text string) (arch string, digests map[string]string) {
	t.Helper()
	digests = make(map[string]string)
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if a, ok := strings.CutPrefix(line, "# GOARCH "); ok && i == 0 {
			arch = a
			continue
		}
		sum, key, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 64 {
			t.Fatalf("%s line %d: malformed %q", templateDigestsFile, i+1, line)
		}
		digests[key] = sum
	}
	if arch == "" {
		t.Fatalf("%s: no \"# GOARCH\" header", templateDigestsFile)
	}
	return arch, digests
}

func TestTemplateDigests(t *testing.T) {
	raw, err := os.ReadFile(templateDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	arch, want := parseDigests(t, string(raw))
	got := templateDigests(t)
	if maps.Equal(got, want) {
		return
	}
	var diff strings.Builder
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			fmt.Fprintf(&diff, "%s: digest %q, recorded %s\n", k, got[k], want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(&diff, "%s: digest %s, not recorded\n", k, got[k])
		}
	}
	if runtime.GOARCH != arch {
		// The math package's own code still differs across
		// architectures (DESIGN.md, "Determinism").
		t.Skipf("recorded on %s, running on %s; differing entries:\n%s", arch, runtime.GOARCH, diff.String())
	}
	t.Fatalf("output digests differ from %s:\n%sthis build's list:\n%s",
		templateDigestsFile, diff.String(), formatDigests(runtime.GOARCH, got))
}
