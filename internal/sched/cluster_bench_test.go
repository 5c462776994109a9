package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"popper/internal/fault"
)

// tasksPerHost is the weak-scaling load: every fleet size schedules 64
// configurations per host, so ideal makespan — and therefore ideal
// configs/sec per host — is constant across the curve.
const tasksPerHost = 64

// benchHostCounts is the scaling curve BENCH_sched.json records.
var benchHostCounts = []int{1, 16, 256, 1024}

// scheduleFleet runs a simulation-only sweep of hosts*tasksPerHost
// configurations and returns the report.
func scheduleFleet(tb testing.TB, hosts int, rules []fault.Rule, noSteal bool) *ClusterReport {
	opts := ClusterOptions{
		Hosts:       testFleet(tb, hosts),
		Seed:        42,
		NoSteal:     noSteal,
		NoSpeculate: true,
		Jobs:        1,
	}
	if rules != nil {
		opts.Faults = fault.NewInjector(42, rules)
	}
	cs, err := NewClusterScheduler(opts)
	if err != nil {
		tb.Fatal(err)
	}
	_, rep := cs.Run(hosts*tasksPerHost, nil)
	return rep
}

// stragglerRules makes host 0 run every configuration 10× slow (1s base
// + 9s injected latency) — the fault-injected straggler of the
// recovery benchmark.
func stragglerRules() []fault.Rule {
	return []fault.Rule{{Site: "sched/host/" + hostName(0), Kind: fault.Latency, Delay: 9, Prob: 1}}
}

// BenchmarkSweepScaling pins the scheduler's scaling curve: weak
// scaling at 64 configurations per host, from 1 to 1024 simulated
// hosts. ns/op is the real cost of computing the schedule; the
// configs/s metric is virtual sweep throughput, which must grow
// near-linearly with the fleet (TestSweepScalingNearLinear asserts the
// 20% envelope; `make bench-json` records the curve).
func BenchmarkSweepScaling(b *testing.B) {
	for _, hosts := range benchHostCounts {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			var rep *ClusterReport
			for i := 0; i < b.N; i++ {
				rep = scheduleFleet(b, hosts, nil, false)
			}
			if rep.Tasks != hosts*tasksPerHost {
				b.Fatalf("tasks = %d, want %d", rep.Tasks, hosts*tasksPerHost)
			}
			b.ReportMetric(rep.ConfigsPerSec(), "configs/s")
		})
	}
}

// BenchmarkStragglerRecovery measures the same 16-host sweep three
// ways: healthy, with a 10×-slow host and no stealing, and with
// stealing rescuing the backlog.
func BenchmarkStragglerRecovery(b *testing.B) {
	for _, tc := range []struct {
		name    string
		rules   []fault.Rule
		noSteal bool
	}{
		{"healthy", nil, false},
		{"straggler-nosteal", stragglerRules(), true},
		{"straggler-steal", stragglerRules(), false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rep *ClusterReport
			for i := 0; i < b.N; i++ {
				rep = scheduleFleet(b, 16, tc.rules, tc.noSteal)
			}
			b.ReportMetric(rep.ConfigsPerSec(), "configs/s")
			b.ReportMetric(rep.Makespan, "vsec-makespan")
		})
	}
}

// TestSweepScalingNearLinear asserts the acceptance envelope on the
// virtual schedule itself (deterministic, so a plain test can pin it):
// weak-scaling configs/sec from 16 to 1024 hosts stays within 20% of
// linear.
func TestSweepScalingNearLinear(t *testing.T) {
	cps := make(map[int]float64)
	for _, hosts := range []int{16, 1024} {
		rep := scheduleFleet(t, hosts, nil, false)
		if rep.Tasks != hosts*tasksPerHost || rep.Lost != 0 {
			t.Fatalf("hosts=%d: %d tasks %d lost", hosts, rep.Tasks, rep.Lost)
		}
		cps[hosts] = rep.ConfigsPerSec()
	}
	ideal := float64(1024) / float64(16)
	got := cps[1024] / cps[16]
	if got < 0.8*ideal {
		t.Fatalf("scaling 16→1024 hosts: %.1f× throughput, want >= %.1f× (80%% of linear %.0f×)",
			got, 0.8*ideal, ideal)
	}
}

// stragglerRecovery computes the fraction of straggler-lost throughput
// work stealing wins back on a 16-host fleet: 0 = as bad as no
// stealing, 1 = as good as a healthy fleet.
func stragglerRecovery(tb testing.TB) (recovery, healthy, noSteal, steal float64) {
	healthy = scheduleFleet(tb, 16, nil, false).Makespan
	noSteal = scheduleFleet(tb, 16, stragglerRules(), true).Makespan
	steal = scheduleFleet(tb, 16, stragglerRules(), false).Makespan
	if noSteal <= healthy {
		tb.Fatalf("straggler must hurt: healthy %.1f vs no-steal %.1f", healthy, noSteal)
	}
	recovery = (noSteal - steal) / (noSteal - healthy)
	return recovery, healthy, noSteal, steal
}

// TestStealRecoversStragglerThroughput is the second acceptance
// criterion: stealing recovers at least 80% of the virtual throughput
// a 10×-slow host costs a 16-host sweep.
func TestStealRecoversStragglerThroughput(t *testing.T) {
	recovery, healthy, noSteal, steal := stragglerRecovery(t)
	t.Logf("makespans: healthy %.1f, straggler+nosteal %.1f, straggler+steal %.1f (recovery %.1f%%)",
		healthy, noSteal, steal, 100*recovery)
	if recovery < 0.8 {
		t.Fatalf("stealing recovered %.1f%% of straggler-lost throughput, want >= 80%%", 100*recovery)
	}
}

// benchRecord is one BENCH_sched.json entry. ns_per_op is the host's
// wall-clock cost of scheduling the sweep; every virtual_ number is
// model output on the simulated cluster's clock (virtual configs/sec
// equals the host count by construction), not a measured speedup.
type benchRecord struct {
	NsPerOp       float64 `json:"ns_per_op"`
	Clock         string  `json:"clock"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	ConfigsPerSec float64 `json:"virtual_configs_per_sec,omitempty"`
	Makespan      float64 `json:"virtual_makespan_s,omitempty"`
	Recovery      float64 `json:"virtual_straggler_recovery,omitempty"`
}

// TestWriteBenchJSON records the scheduler's perf trajectory: when
// BENCH_JSON names an output file (`make bench-json`), it benchmarks
// the scaling curve and the straggler-recovery triple and writes
// benchmark name → {ns/op, allocs/op, virtual configs/sec} JSON. BENCH_SMOKE=1
// (wired into `make verify`) shrinks the matrix to one quick iteration
// per point so regressions in the scheduling path fail the full loop
// without a long bench run.
func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record scheduler benchmarks")
	}
	smoke := os.Getenv("BENCH_SMOKE") != ""
	hostCounts := benchHostCounts
	if smoke {
		hostCounts = []int{1, 16}
	}

	records := make(map[string]benchRecord)
	bench := func(name string, fleet int, rules []fault.Rule, noSteal bool) *ClusterReport {
		rep := scheduleFleet(t, fleet, rules, noSteal)
		var res testing.BenchmarkResult
		if smoke {
			// One hand-timed iteration: verify the scheduling path end
			// to end without testing.Benchmark's auto-scaling (the
			// output file is a throwaway).
			start := time.Now()
			scheduleFleet(t, fleet, rules, noSteal)
			res = testing.BenchmarkResult{N: 1, T: time.Since(start)}
		} else {
			res = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scheduleFleet(b, fleet, rules, noSteal)
				}
				b.ReportAllocs()
			})
		}
		records[name] = benchRecord{
			NsPerOp:       float64(res.NsPerOp()),
			Clock:         "wall",
			AllocsPerOp:   res.AllocsPerOp(),
			ConfigsPerSec: rep.ConfigsPerSec(),
			Makespan:      rep.Makespan,
		}
		return rep
	}

	for _, hosts := range hostCounts {
		bench(fmt.Sprintf("BenchmarkSweepScaling/hosts=%d", hosts), hosts, nil, false)
	}
	bench("BenchmarkStragglerRecovery/healthy", 16, nil, false)
	bench("BenchmarkStragglerRecovery/straggler-nosteal", 16, stragglerRules(), true)
	bench("BenchmarkStragglerRecovery/straggler-steal", 16, stragglerRules(), false)

	recovery, _, _, _ := stragglerRecovery(t)
	rec := records["BenchmarkStragglerRecovery/straggler-steal"]
	rec.Recovery = recovery
	records["BenchmarkStragglerRecovery/straggler-steal"] = rec
	if recovery < 0.8 {
		t.Errorf("straggler recovery %.2f below the 0.8 acceptance bar", recovery)
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}
