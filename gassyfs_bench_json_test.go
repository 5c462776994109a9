package popper

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/workload"
)

// benchCompileFS is the testing.TB twin of mountCompileFS so the JSON
// recorder (a Test, not a Benchmark) can drive the same gassyfs family.
func benchCompileFS(tb testing.TB, ranks int, spec workload.CompileSpec, opts gassyfs.Options) *gassyfs.FS {
	tb.Helper()
	c := cluster.New(42 + int64(ranks))
	nodes, err := c.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		tb.Fatal(err)
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := world.AttachAll(128 << 20); err != nil {
		tb.Fatal(err)
	}
	fs, err := gassyfs.Mount(world, opts)
	if err != nil {
		tb.Fatal(err)
	}
	cl, _ := fs.Client(0)
	if err := workload.GenerateTree(cl, spec); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// gassyfsBenchRecord is one BENCH_gassyfs.json entry. ns_per_op and
// host_speedup are host wall-clock measurements; every virtual_ number
// is model output on the simulated cluster's clock.
type gassyfsBenchRecord struct {
	NsPerOp     float64 `json:"ns_per_op"`
	Clock       string  `json:"clock"`
	VirtualTime float64 `json:"virtual_time,omitempty"`
	Nodes       int     `json:"nodes,omitempty"`
	Sources     int     `json:"sources,omitempty"`
	Speedup     float64 `json:"virtual_speedup,omitempty"`
	HostSpeedup float64 `json:"host_speedup,omitempty"`
}

// TestWriteGassyfsBenchJSON records the gassyfs benchmark family
// (gassyfsBenchRecords) when BENCH_JSON names an output file (`make
// bench-json`). BENCH_SMOKE=1 (wired into `make verify`) shrinks the
// matrix so regressions fail the full loop quickly.
func TestWriteGassyfsBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record gassyfs benchmarks")
	}
	records := gassyfsBenchRecords(t, os.Getenv("BENCH_SMOKE") != "")
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}

// gassyfsBenchRecords runs the gassyfs benchmark family: the compile-git
// scaling curve (virtual elapsed per node count plus the speedup the
// paper's gassyfs figure is built on) and the host-side serial vs
// parallel drive of the same simulated build. smoke shrinks the matrix.
func gassyfsBenchRecords(t *testing.T, smoke bool) map[string]gassyfsBenchRecord {
	t.Helper()
	nodeCounts := []int{1, 2, 4, 8}
	sources, parallelSources, parallelRanks := 48, 96, 8
	if smoke {
		nodeCounts = []int{1, 2}
		sources, parallelSources, parallelRanks = 8, 16, 4
	}
	records := make(map[string]gassyfsBenchRecord)

	// Compile-git scaling: same simulated build at each cluster size;
	// the virtual elapsed is deterministic, the host ns is the cost of
	// reproducing it.
	var firstVirtual, lastVirtual float64
	for _, n := range nodeCounts {
		spec := workload.GitCompileSpec()
		spec.Sources = sources
		fs := benchCompileFS(t, n, spec, gassyfs.Options{})
		start := time.Now()
		res, err := workload.CompileOnCluster(fs, spec)
		if err != nil {
			t.Fatal(err)
		}
		host := float64(time.Since(start).Nanoseconds())
		if n == nodeCounts[0] {
			firstVirtual = res.Elapsed
		}
		lastVirtual = res.Elapsed
		records[fmt.Sprintf("BenchmarkFigGassyfsGit/nodes-%d", n)] = gassyfsBenchRecord{
			NsPerOp: host, Clock: "wall", VirtualTime: res.Elapsed, Nodes: n, Sources: sources,
		}
	}
	scaling := firstVirtual / lastVirtual
	records["BenchmarkFigGassyfsGit/speedup"] = gassyfsBenchRecord{
		NsPerOp: 0, Clock: "wall", Speedup: scaling, Nodes: nodeCounts[len(nodeCounts)-1],
	}
	if !smoke && scaling <= 1 {
		t.Errorf("compile-git at %d nodes shows no speedup over 1 node: %.2fx",
			nodeCounts[len(nodeCounts)-1], scaling)
	}

	// Host parallelism: the same simulated build driven serially
	// (HostJobs=1) vs one goroutine per rank. The simulated result is
	// bit-identical either way; only the host wall clock differs.
	hostTime := func(jobs int) float64 {
		spec := workload.GitCompileSpec()
		spec.Sources = parallelSources
		spec.HostJobs = jobs
		fs := benchCompileFS(t, parallelRanks, spec, gassyfs.Options{})
		start := time.Now()
		if _, err := workload.CompileOnCluster(fs, spec); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	serial := hostTime(1)
	parallel := hostTime(0)
	records["BenchmarkGassyfsCompileGit/serial"] = gassyfsBenchRecord{
		NsPerOp: serial, Clock: "wall", Nodes: parallelRanks, Sources: parallelSources,
	}
	records["BenchmarkGassyfsCompileGit/parallel"] = gassyfsBenchRecord{
		NsPerOp: parallel, Clock: "wall", Nodes: parallelRanks, Sources: parallelSources,
		HostSpeedup: serial / parallel,
	}

	return records
}
