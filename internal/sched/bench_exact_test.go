//go:build !race

package sched

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSchedBenchJSONExactCounts runs the recorder's sweeps and requires
// each entry's exact fields — virtual_configs_per_sec,
// virtual_makespan_s, virtual_straggler_recovery and allocs_per_op — to
// equal the committed BENCH_sched.json's. Only ns_per_op is left to the
// wall clock: a change to the scheduler's model or its allocations
// fails here until `make bench-json` records it. The flat pool's
// allocs_per_op is an upper bound: a call's goroutine may reuse a dead
// one or allocate a new one. Gate and recorder
// count allocations alike, with the collector off (fleetAllocs). The
// race build allocates more, so it skips this file.
func TestSchedBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_sched.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]benchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	cases := schedBenchCases(benchHostCounts)
	if len(cases)+1 != len(committed) {
		t.Errorf("the recorder has %d entries, BENCH_sched.json %d", len(cases)+1, len(committed))
	}
	if want, ok := committed[poolBenchName]; !ok {
		t.Errorf("BENCH_sched.json does not record %s", poolBenchName)
	} else if got := poolAllocs(); got > want.AllocsPerOp {
		t.Errorf("%s: a pool call allocates %d, BENCH_sched.json allows %d", poolBenchName, got, want.AllocsPerOp)
	}
	recovery, _, _, _ := stragglerRecovery(t)
	for _, c := range cases {
		want, ok := committed[c.name]
		if !ok {
			t.Errorf("the recorder runs %s, which BENCH_sched.json does not record", c.name)
			continue
		}
		rep := scheduleFleet(t, c.hosts, c.rules, c.noSteal)
		got := benchRecord{
			NsPerOp: want.NsPerOp, Clock: want.Clock,
			AllocsPerOp:   fleetAllocs(t, c),
			ConfigsPerSec: rep.ConfigsPerSec(),
			Makespan:      rep.Makespan,
		}
		if c.name == "BenchmarkStragglerRecovery/straggler-steal" {
			got.Recovery = recovery
		}
		if got != want {
			t.Errorf("%s: the recorder measures %+v, BENCH_sched.json holds %+v", c.name, got, want)
		}
	}
}
