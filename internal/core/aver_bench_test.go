package core

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"popper/internal/aver"
	"popper/internal/table"
)

// averBenchSrc mirrors the streaming benchmark source in
// internal/aver: four incrementally-maintained assertions over the
// sweep-shaped observation schema.
const averBenchSrc = `
expect count(time) > 0
expect within(time, 0, 1000)
when workload=* expect avg(time) < 200
when machine=* expect min(time) >= 0
`

// averBenchBatch is the appended-batch size (one checkpoint of new
// observations).
const averBenchBatch = 256

func averBenchRow(t *table.Table, i int) {
	workloads := [...]string{"compile", "fsbench", "rados", "query", "sort", "join", "scan", "merge"}
	machines := [...]string{"cloudlab", "ec2", "chameleon", "probe"}
	t.MustAppend(
		table.String(workloads[i%len(workloads)]),
		table.String(machines[(i/3)%len(machines)]),
		table.Number(float64(int(1)<<uint(i%4))),
		table.Number(float64(i%97)+0.5),
	)
}

func averBenchTable(n int) *table.Table {
	t := table.New("workload", "machine", "nodes", "time")
	for i := 0; i < n; i++ {
		averBenchRow(t, i)
	}
	return t
}

// averStreamSpeedup times validating one appended batch at window size
// n, both ways: the streaming evaluator's incremental step (the mean
// over reps batches) vs a full CheckAll over the window (the median of
// five calls).
func averStreamSpeedup(tb testing.TB, n, reps int) (incNs, batchNs float64) {
	tb.Helper()
	grow := averBenchTable(n)
	sev, err := aver.NewEvaluator().Stream(averBenchSrc, aver.StreamOptions{RecheckEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sev.Observe(grow); err != nil {
		tb.Fatal(err)
	}
	appendRows := func(k int) {
		base := grow.Len()
		for i := 0; i < k; i++ {
			averBenchRow(grow, base+i)
		}
	}
	appendRows(averBenchBatch) // warm the bind path
	if err := sev.Observe(grow); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		appendRows(averBenchBatch)
		if err := sev.Observe(grow); err != nil {
			tb.Fatal(err)
		}
	}
	incNs = float64(time.Since(start).Nanoseconds()) / float64(reps)

	// The full re-scan: one untimed warm-up call, then the median of
	// batchReps timed calls, so one slow call (a GC cycle, a preempted
	// core) does not move the figure.
	ev := aver.NewEvaluator()
	base := averBenchTable(n)
	if _, err := ev.CheckAll(averBenchSrc, base); err != nil {
		tb.Fatal(err)
	}
	const batchReps = 5
	var calls [batchReps]float64
	for i := range calls {
		start = time.Now()
		if _, err := ev.CheckAll(averBenchSrc, base); err != nil {
			tb.Fatal(err)
		}
		calls[i] = float64(time.Since(start).Nanoseconds())
	}
	slices.Sort(calls[:])
	return incNs, calls[batchReps/2]
}

// averBenchRecord is one BENCH_aver.json entry: every number is a
// wall-clock measurement or an exact count.
type averBenchRecord struct {
	NsPerOp          float64 `json:"ns_per_op"`
	Clock            string  `json:"clock"`
	Speedup          float64 `json:"incremental_speedup,omitempty"`
	RowsExecuted     int64   `json:"rows_executed,omitempty"`
	ComputeSaved     float64 `json:"compute_saved,omitempty"`
	Configs          int     `json:"configs,omitempty"`
	ViolatingConfigs int     `json:"violating_configs,omitempty"`
}

// failFastBenchSweep is the fail-fast benchmark's sweep size.
const failFastBenchSweep = 20

// failFastBenchConfigs enumerates n configurations of which every
// fifth (seeded by position — deterministic across runs) violates
// `expect nodes < 16` at its second executor iteration.
func failFastBenchConfigs(n int) (configs []map[string]string, violating int) {
	for i := 0; i < n; i++ {
		nodes := "1,2,4,8"
		if i%5 == 0 {
			nodes = "1,32,4,8"
			violating++
		}
		configs = append(configs, map[string]string{"nodes": nodes})
	}
	return configs, violating
}

// failFastBenchRecords runs n configurations of the fail-fast sweep
// twice, batch and streaming with fail-fast, and returns
// BENCH_aver.json's two BenchmarkFailFastSweep entries. Every config
// runs to its verdict — no pool-level stop — so the saving is purely
// cancelled iterations. ns_per_op is wall-clock; rows_executed,
// compute_saved, configs and violating_configs are exact.
func failFastBenchRecords(t *testing.T, n int) map[string]averBenchRecord {
	configs, violating := failFastBenchConfigs(n)
	runAll := func(failFast bool) (rows int64, elapsed time.Duration) {
		start := time.Now()
		for i, cfg := range configs {
			p := failFastProject(t)
			p.SetParam("sweep", "nodes", cfg["nodes"])
			p.Files[expPath("sweep", "validations.aver")] = []byte("expect nodes < 16\n")
			res, err := p.RunExperimentOpts("sweep", &Env{Seed: int64(i + 1)},
				RunOptions{Stream: failFast, FailFast: failFast})
			if i%5 != 0 && err != nil {
				t.Fatalf("passing config %d failed: %v", i, err)
			}
			if res.Cancelled != nil {
				rows += int64(res.Cancelled.Row)
			} else {
				rows += 4 // the full nodes axis ran (violating configs fail batch validation after it)
			}
		}
		return rows, time.Since(start)
	}
	batchRows, batchTime := runAll(false)
	ffRows, ffTime := runAll(true)
	if ffRows >= batchRows {
		t.Errorf("fail-fast executed %d rows vs batch %d — cancellation saved nothing", ffRows, batchRows)
	}
	return map[string]averBenchRecord{
		"BenchmarkFailFastSweep/batch": {
			NsPerOp: float64(batchTime.Nanoseconds()), Clock: "wall", RowsExecuted: batchRows,
			Configs: len(configs), ViolatingConfigs: violating,
		},
		"BenchmarkFailFastSweep/fail-fast": {
			NsPerOp: float64(ffTime.Nanoseconds()), Clock: "wall", RowsExecuted: ffRows,
			ComputeSaved: 1 - float64(ffRows)/float64(batchRows),
			Configs:      len(configs), ViolatingConfigs: violating,
		},
	}
}

// TestWriteAverBenchJSON records the streaming-validation perf
// trajectory when BENCH_JSON names an output file (`make bench-json`):
// incremental vs full-table per-batch validation cost at 1k/100k/1M
// observations, and the compute saved by fail-fast cancellation on a
// 20%-violating sweep. BENCH_SMOKE=1 (wired into `make verify`)
// shrinks the matrix so regressions fail the full loop quickly.
func TestWriteAverBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record streaming-validation benchmarks")
	}
	smoke := os.Getenv("BENCH_SMOKE") != ""
	sizes := []struct {
		name string
		n    int
		reps int
	}{{"1k", 1_000, 200}, {"100k", 100_000, 100}, {"1M", 1_000_000, 50}}
	sweepConfigs := failFastBenchSweep
	if smoke {
		sizes = []struct {
			name string
			n    int
			reps int
		}{{"1k", 1_000, 10}, {"10k", 10_000, 10}}
		sweepConfigs = 5
	}
	records := make(map[string]averBenchRecord)

	var lastSpeedup float64
	for _, sz := range sizes {
		inc, batch := averStreamSpeedup(t, sz.n, sz.reps)
		lastSpeedup = batch / inc
		records["BenchmarkAverStreaming/incremental-"+sz.name] = averBenchRecord{
			NsPerOp: inc, Clock: "wall", Speedup: lastSpeedup,
		}
		records["BenchmarkAverStreaming/batch-"+sz.name] = averBenchRecord{NsPerOp: batch, Clock: "wall"}
	}
	if !smoke && lastSpeedup < 10 {
		t.Errorf("incremental streaming speedup %.1fx at 1M observations, want >= 10x", lastSpeedup)
	}

	for name, rec := range failFastBenchRecords(t, sweepConfigs) {
		records[name] = rec
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
