package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
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

// commTemplateDigests are the SHA-256 digests of every experiment file
// the two templates that drive an mpi.Comm write, keyed by case and
// path: cloverleaf at the end-to-end benchmark's sizes (per-config
// clusters seeded seed+nodes) at two seeds, and mpi-comm-variability at
// its defaults (quiet and noisy clusters). They were recorded before
// the communicator leased its nodes; any change to a simulated float
// operation's order or inputs, or to an RNG draw, shows here.
var commTemplateDigests = map[string]string{
	"cloverleaf seed=501: README.md":          "adb90f431739267a441a08480c88056916fe6e93871ff2b1a0c44bba5f54623e",
	"cloverleaf seed=501: datasets/.gitkeep":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"cloverleaf seed=501: figure.svg":         "ff5bc50bd8982206a856e4998b1e8bfee6e4f78e594a4089e56d7be5903ca774",
	"cloverleaf seed=501: figure.txt":         "74a4f658e4faa671d3def794729fb8a84ae9100d4823d94950ff4e07160e396e",
	"cloverleaf seed=501: results.csv":        "37836bdd390dfef1cfa4a674428a0c6836c25f92f02a9ac39d55b505001efe4e",
	"cloverleaf seed=501: run.sh":             "46ac09bd81c5f0eec3666a9357e0c161b0a6d61c9df6c3615d1006eb981b58dc",
	"cloverleaf seed=501: setup.yml":          "80db0e834bf932198f96fe02388de5c9c92e6ba01cb2df8b6a5f672f3550e7f7",
	"cloverleaf seed=501: validations.aver":   "e24a62c4d96af6f0470af5859afb6d8282605c6a1ed4cbb814992b9abd9786e3",
	"cloverleaf seed=501: vars.yml":           "e5a865b596f47830c2f849ff5995f58f9255859432a771d22485913c6c27052d",
	"cloverleaf seed=611: README.md":          "adb90f431739267a441a08480c88056916fe6e93871ff2b1a0c44bba5f54623e",
	"cloverleaf seed=611: datasets/.gitkeep":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"cloverleaf seed=611: figure.svg":         "ff5bc50bd8982206a856e4998b1e8bfee6e4f78e594a4089e56d7be5903ca774",
	"cloverleaf seed=611: figure.txt":         "74a4f658e4faa671d3def794729fb8a84ae9100d4823d94950ff4e07160e396e",
	"cloverleaf seed=611: results.csv":        "d9078739f81eee471bfb0b13303dd0bde0526f7b0eaf94414d7c563258bd2714",
	"cloverleaf seed=611: run.sh":             "46ac09bd81c5f0eec3666a9357e0c161b0a6d61c9df6c3615d1006eb981b58dc",
	"cloverleaf seed=611: setup.yml":          "80db0e834bf932198f96fe02388de5c9c92e6ba01cb2df8b6a5f672f3550e7f7",
	"cloverleaf seed=611: validations.aver":   "e24a62c4d96af6f0470af5859afb6d8282605c6a1ed4cbb814992b9abd9786e3",
	"cloverleaf seed=611: vars.yml":           "9048d53acb4983810a9bea8c666e933537588a1edc624f5c93beaf929cec915e",
	"mpi-comm-variability: README.md":         "c2e0f57506a00382b0ca84a891575e188cfbf7d60c68feb8e22ff4a9bdc067b4",
	"mpi-comm-variability: datasets/.gitkeep": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"mpi-comm-variability: figure.svg":        "77c8ebe5bfd9f67c1b197c449304c50e55a23399b2bf4d0fc3f105cd12fd441a",
	"mpi-comm-variability: figure.txt":        "024ea8ea39e8cdb92c2db9669dd68cf4c5e6ae62604b69c5400e451d54276eda",
	"mpi-comm-variability: results.csv":       "7005abf99ac64de7c5b06c8b42cb8342f043b667d6aad9e5a1f4754fb042e799",
	"mpi-comm-variability: run.sh":            "46ac09bd81c5f0eec3666a9357e0c161b0a6d61c9df6c3615d1006eb981b58dc",
	"mpi-comm-variability: setup.yml":         "80db0e834bf932198f96fe02388de5c9c92e6ba01cb2df8b6a5f672f3550e7f7",
	"mpi-comm-variability: validations.aver":  "2c372396f2359a249abd67c8d1267d810e025a3d26346905710baea0352c59b7",
	"mpi-comm-variability: vars.yml":          "e63580832e3fc33b6b01c877c211a7f944f27667ea1bd1da79c644805898d648",
}

func TestCommTemplateDigests(t *testing.T) {
	cloverleaf := func(seed string) map[string]string {
		return map[string]string{"nodes": "1,2,4,8", "iterations": "200", "problem_size": "24", "seed": seed}
	}
	cases := []struct {
		name, template string
		params         map[string]string
	}{
		{"cloverleaf seed=501", "cloverleaf", cloverleaf("501")},
		{"cloverleaf seed=611", "cloverleaf", cloverleaf("611")},
		{"mpi-comm-variability", "mpi-comm-variability", nil},
	}
	got := make(map[string]string)
	for _, c := range cases {
		p, _ := runTemplate(t, c.template, c.params)
		prefix := expPath("exp", "")
		for path, data := range p.Files {
			if rel, ok := strings.CutPrefix(path, prefix); ok {
				got[c.name+": "+rel] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
		}
	}
	if !maps.Equal(got, commTemplateDigests) {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		for k, want := range commTemplateDigests {
			if got[k] != want {
				t.Errorf("%s: digest %s, recorded %s", k, got[k], want)
			}
		}
		t.Fatalf("output digests differ from the recorded ones; this build's:\n%s", sb.String())
	}
}
