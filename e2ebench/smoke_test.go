package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSmokeOneOp sets every workload up and runs one traced op: the op
// must pass its output checks and exercise the layers the workload was
// chosen for.
func TestSmokeOneOp(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := setup(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			tr.setOp(0, true)
			smp, err := s.op(newRecorder(tr, s.repo))
			if err != nil {
				t.Fatalf("op failed its checks: %v", err)
			}
			got := layerMetrics(tr, []sample{smp})
			val := func(name string) float64 {
				t.Helper()
				m, ok := got[name]
				if !ok {
					t.Fatalf("no metric %s", name)
				}
				return m.Value
			}
			expect := map[string]float64{"sched.attempts": float64(w.configs)}
			switch w.name {
			case "cold-sweep":
				expect["pipeline.cache.hit_ratio"] = 0
				expect["pipeline.restore.entries"] = 0
				expect["core.stages_replayed"] = 0
			case "warm-rerun":
				expect["pipeline.cache.hit_ratio"] = 1
				expect["core.stages_executed"] = float64(w.configs)
				expect["store.sync.files_written"] = 0
			case "replicated-scrub":
				expect["pipeline.cache.hit_ratio"] = 1
				expect["scrub.findings"] = 0
				if val("repl.commits") < 1 || val("scrub.kb_verified") <= 0 {
					t.Fatalf("repl.commits = %v, scrub.kb_verified = %v", val("repl.commits"), val("scrub.kb_verified"))
				}
			}
			for name, want := range expect {
				if v := val(name); v != want {
					t.Errorf("%s = %v, want %v", name, v, want)
				}
			}
			if val("core.run_sweep.ms") <= 0 || val(w.prefix()+".put.ms") <= 0 {
				t.Errorf("run_sweep or its Durable child spans were not recorded")
			}
			if self, total := val("core.run_sweep.self_ms"), val("core.run_sweep.ms"); self <= 0 || self >= total {
				t.Errorf("run_sweep self time %v not inside (0, %v)", self, total)
			}
			if smp.io.Writes == 0 || smp.io.AllFsyncs() == 0 {
				t.Errorf("op did no counted I/O: %+v", smp.io)
			}
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON checks that the program knows the
// workloads BENCHMARK.json names and prints exactly its metrics, with
// the same units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the program has %d", names, len(workloads))
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "warm-rerun", "--seed", "3", "--seconds", "0.01", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted <= tailBeyond {
		t.Fatalf("result = correct %v, %d/%d failed", res.Correct, res.Failed, res.Attempted)
	}
	e2e := map[string]string{}
	for name, m := range res.Metrics {
		e2e[name] = m.Unit
		if m.Value <= 0 {
			t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
		}
	}
	compare(t, "end_to_end", spec.EndToEnd, e2e)
	compare(t, "per_layer", spec.PerLayer, perLayerUnits())
}

func compare(t *testing.T, section string, listed []struct{ Name, Unit string }, emitted map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range listed {
		seen[m.Name] = true
		if unit, ok := emitted[m.Name]; !ok {
			t.Errorf("%s: %s is listed but not reported", section, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s unit %q, program reports %q", section, m.Name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range emitted {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: reported but not listed: %v", section, extra)
	}
}
