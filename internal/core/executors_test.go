package core

import (
	"bytes"
	"strings"
	"testing"

	"popper/internal/aver"
	"popper/internal/table"
)

// runTemplate instantiates a template, shrinks its parameters for test
// speed, runs it end to end and asserts the pipeline + validations pass.
func runTemplate(t *testing.T, template string, shrink map[string]string) (*Project, RunResult) {
	t.Helper()
	p := Init()
	if err := p.AddExperiment(template, "exp"); err != nil {
		t.Fatal(err)
	}
	for k, v := range shrink {
		if err := p.SetParam("exp", k, v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunExperiment("exp", &Env{Seed: 1})
	if err != nil {
		t.Fatalf("%s failed: %v\nlog:\n%s", template, err, res.Record.Log)
	}
	if !res.Passed() {
		t.Fatalf("%s validations failed:\n%s", template, aver.FormatResults(res.Validation))
	}
	return p, res
}

func resultsTable(t *testing.T, p *Project) *table.Table {
	t.Helper()
	raw, ok := p.ExperimentFile("exp", "results.csv")
	if !ok {
		t.Fatal("results.csv missing")
	}
	tb, err := table.ParseCSV(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestRunGassyfsTemplate(t *testing.T) {
	p, res := runTemplate(t, "gassyfs", map[string]string{
		"nodes": "1,2,4", "sources": "24", "segment_mb": "64",
	})
	tb := resultsTable(t, p)
	if tb.Len() != 3 {
		t.Fatalf("rows = %d", tb.Len())
	}
	// times decrease with nodes
	times, _ := tb.Floats("time")
	if !(times[0] > times[1] && times[1] > times[2]) {
		t.Fatalf("times not decreasing: %v", times)
	}
	// the paper's exact assertion was validated
	found := false
	for _, v := range res.Validation {
		if strings.Contains(v.Assertion.Source, "sublinear(nodes,time)") {
			found = true
			if !v.Passed {
				t.Fatalf("paper assertion failed: %s", v.String())
			}
		}
	}
	if !found {
		t.Fatal("paper assertion not present")
	}
	if fig, ok := p.ExperimentFile("exp", "figure.txt"); !ok || !strings.Contains(string(fig), "GassyFS") {
		t.Fatal("figure.txt missing or wrong")
	}
}

func TestRunTorporTemplate(t *testing.T) {
	p, _ := runTemplate(t, "torpor", map[string]string{"ops": "50"})
	tb := resultsTable(t, p)
	if tb.Len() < 20 {
		t.Fatalf("rows = %d, want one per stressor", tb.Len())
	}
	speedups, _ := tb.Floats("speedup")
	for _, s := range speedups {
		if s <= 1 {
			t.Fatalf("speedup %v <= 1", s)
		}
	}
	fig, _ := p.ExperimentFile("exp", "figure.txt")
	if !strings.Contains(string(fig), "Variability profile") {
		t.Fatalf("figure:\n%s", fig)
	}
}

func TestRunMPIVariabilityTemplate(t *testing.T) {
	p, _ := runTemplate(t, "mpi-comm-variability", map[string]string{
		"runs": "6", "iterations": "3", "problem_size": "24", "ranks": "8",
	})
	tb := resultsTable(t, p)
	if tb.Len() != 12 { // 6 runs x 2 conditions
		t.Fatalf("rows = %d", tb.Len())
	}
	noisy, _ := tb.Where("noisy", table.String("yes"))
	quiet, _ := tb.Where("noisy", table.String("no"))
	nt, _ := noisy.Floats("time")
	qt, _ := quiet.Floats("time")
	if table.CoeffVar(nt) <= table.CoeffVar(qt) {
		t.Fatalf("noisy CV %v should exceed quiet CV %v", table.CoeffVar(nt), table.CoeffVar(qt))
	}
	// A share of the elapsed time: never negative, never above one.
	fractions, _ := tb.Floats("mpi_fraction")
	for i, f := range fractions {
		if f < 0 || f > 1 {
			t.Fatalf("row %d: mpi_fraction %v outside [0, 1]", i, f)
		}
	}
}

func TestRunBWWTemplateSynthetic(t *testing.T) {
	p, _ := runTemplate(t, "jupyter-bww", map[string]string{
		"days": "36", "lat_step": "15", "lon_step": "45",
	})
	tb := resultsTable(t, p)
	if tb.Len() != 1 {
		t.Fatalf("rows = %d", tb.Len())
	}
	gm := tb.MustCell(0, "global_mean").Num
	if gm < 275 || gm > 300 {
		t.Fatalf("global mean = %v", gm)
	}
	if tb.MustCell(0, "amp_north").Num <= tb.MustCell(0, "amp_south").Num {
		t.Fatal("NH amplitude must exceed SH")
	}
}

func TestRunCloverleafTemplate(t *testing.T) {
	p, _ := runTemplate(t, "cloverleaf", map[string]string{
		"nodes": "1,2,4,8", "iterations": "3", "problem_size": "20",
	})
	tb := resultsTable(t, p)
	times, _ := tb.Floats("time")
	for i := 1; i < len(times); i++ {
		if times[i] >= times[i-1] {
			t.Fatalf("strong scaling not decreasing: %v", times)
		}
	}
}

func TestRunSparkTemplate(t *testing.T) {
	p, _ := runTemplate(t, "spark-standalone", map[string]string{
		"nodes": "1,2,4", "words_millions": "8",
	})
	tb := resultsTable(t, p)
	times, _ := tb.Floats("time")
	if times[len(times)-1] >= times[0] {
		t.Fatalf("word count should speed up with nodes: %v", times)
	}
}

func TestRunCephRadosTemplate(t *testing.T) {
	p, _ := runTemplate(t, "ceph-rados", map[string]string{
		"nodes": "4,8,16", "objects": "32", "object_mb": "2",
	})
	tb := resultsTable(t, p)
	ws, _ := tb.Floats("write_mbps")
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("aggregate write throughput should grow: %v", ws)
		}
	}
}

func TestRunZlogTemplate(t *testing.T) {
	p, _ := runTemplate(t, "zlog", map[string]string{
		"batches": "1,8,32", "appends": "128",
	})
	tb := resultsTable(t, p)
	rates, _ := tb.Floats("appends_per_sec")
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("batching should amortize the sequencer: %v", rates)
		}
	}
}

func TestRunProteusTMTemplate(t *testing.T) {
	p, _ := runTemplate(t, "proteustm", map[string]string{
		"threads": "1,2,4,8", "ops": "50000",
	})
	tb := resultsTable(t, p)
	aborts, _ := tb.Floats("abort_rate")
	for i := 1; i < len(aborts); i++ {
		if aborts[i] <= aborts[i-1] {
			t.Fatalf("abort rate must grow with contention: %v", aborts)
		}
	}
	if aborts[0] != 0 {
		t.Fatalf("single thread should never abort: %v", aborts[0])
	}
}

func TestRunMalacologyTemplate(t *testing.T) {
	p, _ := runTemplate(t, "malacology", map[string]string{
		"clients": "1,4,16", "ops_per_client": "500",
	})
	tb := resultsTable(t, p)
	rates, _ := tb.Floats("ops_per_sec")
	// saturation: rate grows sublinearly (16x clients far from 16x rate)
	if rates[len(rates)-1] > rates[0]*8 {
		t.Fatalf("service should saturate: %v", rates)
	}
}

func TestExecutorParameterErrors(t *testing.T) {
	cases := []struct {
		template string
		key, val string
	}{
		{"gassyfs", "nodes", "zero,abc"},
		{"gassyfs", "nodes", "0"},
		{"gassyfs", "sources", "x"},
		{"torpor", "ops", "NaNish"},
		{"torpor", "base", "unknown-machine"},
		{"mpi-comm-variability", "runs", "1"},
		{"proteustm", "conflict", "1.5"},
		{"zlog", "batches", "0"},
		{"ceph-rados", "nodes", "1"},
		{"ceph-rados", "nodes", "2"}, // below the replica count
	}
	for _, c := range cases {
		p := Init()
		if err := p.AddExperiment(c.template, "exp"); err != nil {
			t.Fatal(err)
		}
		if err := p.SetParam("exp", c.key, c.val); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunExperiment("exp", &Env{Seed: 1}); err == nil {
			t.Errorf("%s with %s=%s should fail", c.template, c.key, c.val)
		}
	}
}

// TestRunDeterministic holds every template to the convention's re-run
// promise: the same seed reproduces every file of the workspace byte for
// byte, run after run.
func TestRunDeterministic(t *testing.T) {
	const runs = 5
	for _, template := range Templates() {
		t.Run(template, func(t *testing.T) {
			run := func() map[string][]byte {
				p := Init()
				if err := p.AddExperiment(template, "exp"); err != nil {
					t.Fatal(err)
				}
				if _, err := p.RunExperiment("exp", &Env{Seed: 5}); err != nil {
					t.Fatal(err)
				}
				return p.Files
			}
			first := run()
			for i := 1; i < runs; i++ {
				again := run()
				if len(again) != len(first) {
					t.Fatalf("run %d wrote %d files, run 0 wrote %d", i, len(again), len(first))
				}
				for path, want := range first {
					if got, ok := again[path]; !ok || !bytes.Equal(got, want) {
						t.Fatalf("run %d: %s differs from run 0:\n%s\n-- run 0 --\n%s", i, path, got, want)
					}
				}
			}
		})
	}
}

func TestGassyfsTemplateWithCache(t *testing.T) {
	p, _ := runTemplate(t, "gassyfs", map[string]string{
		"nodes": "1,2,4", "sources": "24", "segment_mb": "64", "cache_blocks": "256",
	})
	tb := resultsTable(t, p)
	times, _ := tb.Floats("time")
	for i := 1; i < len(times); i++ {
		if times[i] >= times[i-1] {
			t.Fatalf("cached run must still scale: %v", times)
		}
	}
}
