//go:build !race

package popper

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSimBenchJSONExactCounts runs the recorder's entries and requires
// each one's exact fields — ranks, iterations, message_steps,
// allocs_per_run, the bits of elapsed_s, nodes and
// allocs_per_provision — to equal the committed BENCH_sim.json's. Only
// the wall-clock fields are left to the clock: a change to the
// simulator's model or its allocations fails here until `make
// bench-json` records it. The race build allocates more, so it skips
// this file.
func TestSimBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]json.RawMessage
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	runs, prov := simBenchRecords(t, 3)
	if len(runs)+1 != len(committed) {
		t.Errorf("the recorder has %d entries, BENCH_sim.json %d", len(runs)+1, len(committed))
	}
	for name, entry := range committed {
		if name == provisionBenchName {
			var want provisionBenchRecord
			if err := json.Unmarshal(entry, &want); err != nil {
				t.Fatal(err)
			}
			got := prov
			got.NsPerNode = want.NsPerNode
			if got != want {
				t.Errorf("%s: the recorder measures %+v, BENCH_sim.json holds %+v", name, got, want)
			}
			continue
		}
		got, ok := runs[name]
		if !ok {
			t.Errorf("BENCH_sim.json records %s, which the recorder does not run", name)
			continue
		}
		var want simBenchRecord
		if err := json.Unmarshal(entry, &want); err != nil {
			t.Fatal(err)
		}
		got.NsPerMessageStep = want.NsPerMessageStep
		if got != want || math.Float64bits(got.ElapsedS.Value) != math.Float64bits(want.ElapsedS.Value) {
			t.Errorf("%s: the recorder measures %+v, BENCH_sim.json holds %+v", name, got, want)
		}
	}
}
