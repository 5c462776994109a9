package popper

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestGassyfsBenchJSONExactCounts runs the recorder's entries and
// requires each one's model output — the bits of virtual_time and
// virtual_speedup, nodes and sources — to equal the committed
// BENCH_gassyfs.json's. ns_per_op and host_speedup are left to the wall
// clock: a change to the gassyfs or compile model fails here until
// `make bench-json` records it.
func TestGassyfsBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("BENCH_gassyfs.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]gassyfsBenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	got := gassyfsBenchRecords(t, false)
	if len(got) != len(committed) {
		t.Errorf("the recorder has %d entries, BENCH_gassyfs.json %d", len(got), len(committed))
	}
	for name, want := range committed {
		g, ok := got[name]
		if !ok {
			t.Errorf("BENCH_gassyfs.json records %s, which the recorder does not run", name)
			continue
		}
		g.NsPerOp, g.HostSpeedup = want.NsPerOp, want.HostSpeedup
		if g != want || math.Float64bits(g.VirtualTime) != math.Float64bits(want.VirtualTime) || math.Float64bits(g.Speedup) != math.Float64bits(want.Speedup) {
			t.Errorf("%s: the recorder measures %+v, BENCH_gassyfs.json holds %+v", name, g, want)
		}
	}
}
