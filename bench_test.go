// Package popper's root benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md's experiment index E1–E12) plus the
// ablations of the design choices DESIGN.md calls out. Each benchmark
// reports the headline quantity of its artifact through b.ReportMetric,
// so `go test -bench . -benchmem` prints the reproduced numbers next to
// the timing.
package popper

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"popper/internal/aver"
	"popper/internal/baseliner"
	"popper/internal/ci"
	"popper/internal/cluster"
	"popper/internal/container"
	"popper/internal/core"
	"popper/internal/dataset"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/metrics"
	"popper/internal/mpi"
	"popper/internal/orchestrate"
	"popper/internal/pipeline"
	"popper/internal/plot"
	"popper/internal/stress"
	"popper/internal/table"
	"popper/internal/torpor"
	"popper/internal/vcs"
	"popper/internal/weather"
	"popper/internal/workload"
)

// --- E1: Figure exp_workflow — the generic experimentation loop --------

func BenchmarkFigExpWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		journal := pipeline.NewJournal()
		pl := pipeline.New("exploration")
		pl.AddStage("setup", func(c *pipeline.Context) error { return nil })
		pl.AddStage("run", func(c *pipeline.Context) error {
			c.Workspace["results.csv"] = []byte("param," + c.Param("param", "a") + "\n")
			return nil
		})
		pl.AddStage("validate", func(c *pipeline.Context) error { return nil })
		// the backwards-going arrows of Figure 1: fix, re-parameterize, re-run
		journal.Append(pl.Run(&pipeline.Context{Params: map[string]string{"param": "a"}}), "initial")
		journal.Append(pl.Run(&pipeline.Context{Params: map[string]string{"param": "b"}}), "changed parameter")
		journal.Append(pl.Run(&pipeline.Context{Params: map[string]string{"param": "a"}}), "re-run original")
		same, err := journal.Reproduced(1, 3)
		if err != nil || !same {
			b.Fatalf("journal reproduction broken: %v %v", same, err)
		}
	}
}

// --- E2: Figure devops-approach — the toolkit, audited -----------------

func BenchmarkFigDevOpsToolkit(b *testing.B) {
	templates := core.Templates()
	for i := 0; i < b.N; i++ {
		p := core.Init()
		for j, t := range templates {
			if err := p.AddExperiment(t, fmt.Sprintf("exp%d", j)); err != nil {
				b.Fatal(err)
			}
		}
		rep := p.Check()
		if !rep.Compliant() {
			b.Fatalf("toolkit audit failed:\n%s", rep.String())
		}
	}
	b.ReportMetric(float64(len(templates)), "templates")
}

// --- E3: Figure review-workflow — reader re-executes an article --------

func BenchmarkFigReviewWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// (1) the article repo with its artifacts
		author := core.Init()
		if err := author.AddExperiment("zlog", "exp"); err != nil {
			b.Fatal(err)
		}
		repo := vcs.NewRepository()
		commit, err := repo.Commit(author.Files, "author", "camera ready")
		if err != nil {
			b.Fatal(err)
		}
		// (2) the reader clones it
		clone, err := repo.Checkout(commit.Hash)
		if err != nil {
			b.Fatal(err)
		}
		// (3) single-node deploy through the container engine
		reg := container.NewRegistry()
		eng := container.NewEngine(reg)
		img, err := eng.BuildAndPush("FROM scratch\nCOPY experiments /exp\nCMD cat /exp/exp/vars.yml",
			clone, "article", "v1")
		if err != nil {
			b.Fatal(err)
		}
		ctr, err := eng.Run(img.Ref())
		if err != nil || ctr.Logs() == "" {
			b.Fatalf("container deploy failed: %v", err)
		}
		// (4) multi-node deploy through orchestration on leased bare metal
		c := cluster.New(int64(i))
		nodes, _ := c.Provision("cloudlab-c220g1", 2)
		inv := orchestrate.NewInventory()
		for _, n := range nodes {
			inv.Add(orchestrate.NewHost(n.ID(), n))
		}
		pb, err := orchestrate.ParsePlaybook(string(clone["experiments/exp/setup.yml"]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := orchestrate.NewRunner(inv).Run(pb); err != nil {
			b.Fatal(err)
		}
		// (5) large outputs go to cloud storage (the artifact store)
		store := dataset.NewStore()
		if _, err := store.Publish("results", "1.0", "", "", map[string][]byte{
			"results.csv": []byte("batch,rate\n1,100\n"),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Figure torpor-variability --------------------------------------

func BenchmarkFigTorporVariability(b *testing.B) {
	var mode plot.Bucket
	for i := 0; i < b.N; i++ {
		c := cluster.New(42)
		base, _ := c.Provision("xeon-2005", 1)
		target, _ := c.Provision("cloudlab-c220g1", 1)
		vp, err := torpor.MeasureProfile(base[0], target[0], 100)
		if err != nil {
			b.Fatal(err)
		}
		h, err := vp.Histogram(0.1)
		if err != nil {
			b.Fatal(err)
		}
		mode = h.Mode()
	}
	// Paper: 7 stressors in (2.2, 2.3].
	b.ReportMetric(float64(mode.Count), "stressors_in_mode")
	b.ReportMetric(mode.Hi, "mode_bucket_hi")
}

// --- E5/E6: Figure gassyfs-git + Listing aver-assertion ----------------

func gassyfsSweep(b *testing.B, policy gassyfs.AllocPolicy, nodeCounts []int) *table.Table {
	b.Helper()
	spec := workload.GitCompileSpec()
	spec.Sources = 48
	results := table.New("workload", "machine", "nodes", "time")
	for _, n := range nodeCounts {
		c := cluster.New(42 + int64(n))
		nodes, err := c.Provision("cloudlab-c220g1", n)
		if err != nil {
			b.Fatal(err)
		}
		world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := world.AttachAll(128 << 20); err != nil {
			b.Fatal(err)
		}
		fs, err := gassyfs.Mount(world, gassyfs.Options{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		cl, _ := fs.Client(0)
		if err := workload.GenerateTree(cl, spec); err != nil {
			b.Fatal(err)
		}
		res, err := workload.CompileOnCluster(fs, spec)
		if err != nil {
			b.Fatal(err)
		}
		results.MustAppend(table.String("compile-git"), table.String("cloudlab-c220g1"),
			table.Number(float64(n)), table.Number(res.Elapsed))
	}
	return results
}

func BenchmarkFigGassyfsGit(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		results := gassyfsSweep(b, gassyfs.AllocRoundRobin, []int{1, 2, 4, 8})
		times, _ := results.Floats("time")
		speedup = times[0] / times[len(times)-1]
	}
	// Paper's shape: speedup at 8 nodes well above 1 but below ideal 8.
	b.ReportMetric(speedup, "speedup_at_8_nodes")
}

func BenchmarkAverValidation(b *testing.B) {
	results := gassyfsSweep(b, gassyfs.AllocRoundRobin, []int{1, 2, 4, 8})
	src := "when workload=* and machine=* expect sublinear(nodes,time)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts, err := aver.NewEvaluator().CheckAll(src, results)
		if err != nil || !aver.AllPassed(verdicts) {
			b.Fatalf("paper assertion failed: %v", err)
		}
	}
}

// --- the scale-out GassyFS data path: host parallelism ablations --------

func mountCompileFS(b *testing.B, ranks int, spec workload.CompileSpec, opts gassyfs.Options) *gassyfs.FS {
	b.Helper()
	c := cluster.New(42 + int64(ranks))
	nodes, err := c.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		b.Fatal(err)
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := world.AttachAll(128 << 20); err != nil {
		b.Fatal(err)
	}
	fs, err := gassyfs.Mount(world, opts)
	if err != nil {
		b.Fatal(err)
	}
	cl, _ := fs.Client(0)
	if err := workload.GenerateTree(cl, spec); err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkGassyfsCompileGit compares host wall-clock for the same
// simulated multi-client build driven serially (HostJobs=1) and with one
// goroutine per rank. The simulated results are bit-identical (see
// TestCompileParallelMatchesSerialGolden); only the host time differs.
func BenchmarkGassyfsCompileGit(b *testing.B) {
	for _, bc := range []struct {
		name string
		jobs int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := workload.GitCompileSpec()
			spec.Sources = 96
			spec.HostJobs = bc.jobs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := mountCompileFS(b, 8, spec, gassyfs.Options{})
				b.StartTimer()
				if _, err := workload.CompileOnCluster(fs, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGassyfsReadParallel hammers the cached zero-copy read path
// from GOMAXPROCS goroutines, each with its own client (and cache), all
// reading the same warmed multi-block file.
func BenchmarkGassyfsReadParallel(b *testing.B) {
	spec := workload.GitCompileSpec()
	spec.Sources = 1
	fs := mountCompileFS(b, 4, spec, gassyfs.Options{CacheBlocks: 256})
	cl0, _ := fs.Client(0)
	big := make([]byte, 64*fs.BlockSize())
	for i := range big {
		big[i] = byte(i)
	}
	if err := cl0.WriteFile("/big", big); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(big)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl, err := fs.Client(0)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := cl.ReadFile("/big"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGasnetGetv compares the scalar per-block GetInto loop against
// one vectored Getv moving the same 64 blocks: the vectored op batches
// the lock, clock, and metric bookkeeping.
func BenchmarkGasnetGetv(b *testing.B) {
	const blocks, bs = 64, int64(8 << 10)
	c := cluster.New(42)
	nodes, err := c.Provision("cloudlab-c220g1", 2)
	if err != nil {
		b.Fatal(err)
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := world.AttachAll(1 << 20); err != nil {
		b.Fatal(err)
	}
	addrs := make([]gasnet.Addr, blocks)
	out := make([]byte, blocks*bs)
	bufs := make([][]byte, blocks)
	for i := range addrs {
		addrs[i] = gasnet.Addr{Rank: 1, Offset: int64(i) * bs}
		bufs[i] = out[int64(i)*bs : int64(i+1)*bs]
		if err := world.PutFrom(0, addrs[i], bufs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(out)))
		for i := 0; i < b.N; i++ {
			for j := range addrs {
				if err := world.GetInto(0, addrs[j], bufs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("vectored", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(out)))
		for i := 0; i < b.N; i++ {
			if _, err := world.Getv(0, addrs, bufs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: the MPI noisy-neighbour figure ---------------------------------

func BenchmarkFigMPIVariability(b *testing.B) {
	spec := workload.DefaultLuleshSpec()
	spec.Iterations = 3
	spec.ProblemSize = 20
	var cvRatio float64
	for i := 0; i < b.N; i++ {
		run := func(seed int64, load float64) float64 {
			c := cluster.New(seed)
			nodes, _ := c.Provision("ec2-m4", 8)
			if load > 0 {
				nodes[int(seed)%8].SetBackgroundLoad(load)
			}
			cm, _ := mpi.NewComm(nodes, cluster.NewNetwork())
			res, err := workload.RunLulesh(cm, spec)
			if err != nil {
				b.Fatal(err)
			}
			return res.Elapsed
		}
		var quiet, noisy []float64
		for s := int64(0); s < 8; s++ {
			quiet = append(quiet, run(s, 0))
			noisy = append(noisy, run(s, 0.1+0.08*float64(s)))
		}
		cvRatio = table.CoeffVar(noisy) / table.CoeffVar(quiet)
	}
	b.ReportMetric(cvRatio, "cv_ratio_noisy_vs_quiet")
}

// BenchmarkRunLulesh times the simulator under the MPI figure: one
// LULESH-proxy run on an 8-rank communicator, blocking and overlapped.
// Per op that is 50 iterations of 12 halo exchanges and an Allreduce,
// the message path a cloverleaf sweep spends its time in.
func BenchmarkRunLulesh(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		b.Run(haloName(overlap), func(b *testing.B) {
			cm := luleshComm(b, 8)
			spec := workload.DefaultLuleshSpec()
			spec.Overlap = overlap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workload.RunLulesh(cm, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// haloName names a LULESH halo-exchange mode.
func haloName(overlap bool) string {
	if overlap {
		return "overlap"
	}
	return "blocking"
}

// luleshComm is the communicator BenchmarkRunLulesh and its recorder
// drive: `ranks` fresh probe-opteron nodes of a seed-42 cluster.
func luleshComm(tb testing.TB, ranks int) *mpi.Comm {
	tb.Helper()
	nodes, err := cluster.New(42).Provision("probe-opteron", ranks)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := mpi.NewComm(nodes, cluster.NewNetwork())
	if err != nil {
		tb.Fatal(err)
	}
	return cm
}

// clocked is one BENCH_sim.json measurement and the clock it was read
// from: "wall" for host time, "virtual" for simulated time.
type clocked struct {
	Value float64 `json:"value"`
	Clock string  `json:"clock"`
}

// simBenchRecord is one BENCH_sim.json entry: the host cost of one
// LULESH-proxy run, per simulated point-to-point message step.
type simBenchRecord struct {
	Ranks        int `json:"ranks"`
	Iterations   int `json:"iterations"`
	MessageSteps int `json:"message_steps"`
	// AllocsPerRun is exact: the simulator's allocations do not depend
	// on the host.
	AllocsPerRun     float64 `json:"allocs_per_run"`
	NsPerMessageStep clocked `json:"ns_per_message_step"`
	ElapsedS         clocked `json:"elapsed_s"`
}

// provisionBenchRecord is BENCH_sim.json's set-up entry: the host cost
// of provisioning a cluster, which seeds one jitter generator per node.
type provisionBenchRecord struct {
	Nodes int `json:"nodes"`
	// AllocsPerProvision is exact, like AllocsPerRun.
	AllocsPerProvision float64 `json:"allocs_per_provision"`
	NsPerNode          clocked `json:"ns_per_node"`
}

// provisionBenchNodes is a cloverleaf config's cluster: its nodes axis,
// 1+2+4+8 nodes.
const provisionBenchNodes = 15

// simBenchRecords runs the BENCH_sim.json recorder's entries, timing
// `runs` runs of each: BenchmarkRunLulesh's run, blocking and
// overlapped, at 8 and 27 ranks, and a 15-node Provision.
// message_steps counts the point-to-point calls of one run in its
// profile: each halo pair's two sends and two receives (Send and Recv,
// or Isend and the Wait that completes each Irecv). elapsed_s is the
// first run's virtual makespan on a fresh communicator, so it depends
// only on the model; ns_per_message_step is a run's wall time over its
// message steps, averaged over the timed runs. Provision/nodes=15 is a
// 15-node Provision on a new cluster (the nodes of one cloverleaf
// config), timed per node.
func simBenchRecords(t *testing.T, runs int) (map[string]simBenchRecord, provisionBenchRecord) {
	t.Helper()
	p2p := map[string]bool{"Send": true, "Recv": true, "Isend": true, "Wait": true}
	records := make(map[string]simBenchRecord)
	for _, overlap := range []bool{false, true} {
		for _, ranks := range []int{8, 27} {
			spec := workload.DefaultLuleshSpec()
			spec.Overlap = overlap
			cm := luleshComm(t, ranks)
			res, err := workload.RunLulesh(cm, spec)
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			prof := cm.Profiler().Table()
			for r := 0; r < prof.Len(); r++ {
				if p2p[prof.MustCell(r, "call").Str] {
					steps += int(prof.MustCell(r, "count").Num)
				}
			}
			// A g0 x g1 x g2 grid has sum over d of (g_d - 1) * n/g_d
			// neighbour pairs, each four message steps per iteration.
			pairs := 0
			for _, g := range res.Grid {
				pairs += (g - 1) * ranks / g
			}
			if want := 4 * pairs * spec.Iterations; steps != want {
				t.Fatalf("%s at %d ranks: %d message steps per run, want %d", haloName(overlap), ranks, steps, want)
			}
			run := func() {
				if _, err := workload.RunLulesh(cm, spec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(runs, run)
			start := time.Now()
			for i := 0; i < runs; i++ {
				run()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(runs*steps)
			records[fmt.Sprintf("RunLulesh/%s/ranks=%d", haloName(overlap), ranks)] = simBenchRecord{
				Ranks: ranks, Iterations: spec.Iterations, MessageSteps: steps, AllocsPerRun: allocs,
				NsPerMessageStep: clocked{ns, "wall"}, ElapsedS: clocked{res.Elapsed, "virtual"},
			}
		}
	}
	provision := func() {
		if _, err := cluster.New(42).Provision("probe-opteron", provisionBenchNodes); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, provision)
	start := time.Now()
	for i := 0; i < runs; i++ {
		provision()
	}
	return records, provisionBenchRecord{
		Nodes: provisionBenchNodes, AllocsPerProvision: allocs,
		NsPerNode: clocked{float64(time.Since(start).Nanoseconds()) / float64(runs*provisionBenchNodes), "wall"},
	}
}

// provisionBenchName is BENCH_sim.json's key for the Provision entry.
var provisionBenchName = fmt.Sprintf("Provision/nodes=%d", provisionBenchNodes)

// TestWriteSimBenchJSON records the simulator's host time per simulated
// event when BENCH_JSON names an output file (`make bench-json`); see
// simBenchRecords for the entries. BENCH_SMOKE=1 (wired into `make
// verify`) times a single run per entry.
func TestWriteSimBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record simulator benchmarks")
	}
	runs := 200
	if os.Getenv("BENCH_SMOKE") != "" {
		runs = 1
	}
	runsRec, prov := simBenchRecords(t, runs)
	records := map[string]any{provisionBenchName: prov}
	for name, rec := range runsRec {
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

// --- E8: Figure bww-airtemp ---------------------------------------------

func BenchmarkFigBWWAirTemp(b *testing.B) {
	var an *weather.Analysis
	for i := 0; i < b.N; i++ {
		arr, err := weather.Generate(weather.ReanalysisSpec{
			Days: 365, LatStep: 10, LonStep: 30, NoiseK: 1, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		an, err = weather.Analyze(arr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.Heatmap(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(an.GlobalMeanK, "global_mean_K")
	b.ReportMetric(an.AmplitudeNorth/an.AmplitudeSouth, "nh_sh_amplitude_ratio")
}

// --- E9: Listings dir + poppercli — the CLI flow -------------------------

func BenchmarkPopperCLI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.Init()
		_ = core.FormatTemplateList()
		if err := p.AddExperiment("torpor", "myexp"); err != nil {
			b.Fatal(err)
		}
		if !p.Check().Compliant() {
			b.Fatal("fresh experiment not compliant")
		}
	}
}

// --- E10: CI integrity tier ----------------------------------------------

func BenchmarkCIPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		proj := core.Init()
		proj.AddExperiment("proteustm", "stm")
		proj.Files[core.CIFile] = []byte("script:\n  - popper check\n  - popper lint\n  - ./paper/build.sh\n")
		repo := vcs.NewRepository()
		svc, err := ci.NewService(repo, core.CIRunner(&core.Env{Seed: 1}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.Commit(proj.Files, "ci", "commit"); err != nil {
			b.Fatal(err)
		}
		if build, _ := svc.Latest(); build.Status != ci.StatusPassed {
			b.Fatalf("build %s:\n%s", build.Status, build.Log)
		}
	}
}

// --- E11: the baseline gate ------------------------------------------------

func BenchmarkBaselineGate(b *testing.B) {
	c := cluster.New(1)
	ref, _ := c.Provision("cloudlab-c220g1", 1)
	recorded := baseliner.Collect(ref[0], 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, _ := c.Provision("cloudlab-c220g1", 1)
		if _, err := baseliner.Gate(recorded, fresh[0], 100, 0.2); err != nil {
			b.Fatal(err)
		}
		c.Release(fresh...)
	}
}

// --- E12: the cost of Popperizing an ad-hoc experiment --------------------

func BenchmarkPopperize(b *testing.B) {
	adhoc := map[string][]byte{
		"measure.sh":    []byte("#!/bin/sh\nmpirun -n 27 lulesh"),
		"analysis.xlsx": []byte("opaque spreadsheet bytes"),
		"plot-paraview": []byte("paraview state"),
		"notes.txt":     []byte("remember to set OMP_NUM_THREADS"),
	}
	var created int
	for i := 0; i < b.N; i++ {
		p := core.Init()
		var err error
		created, err = p.Popperize("lulesh-study", adhoc)
		if err != nil {
			b.Fatal(err)
		}
		if !p.Check().Compliant() {
			b.Fatal("popperized repo not compliant")
		}
	}
	b.ReportMetric(float64(created), "skeleton_files_created")
}

// --- Ablations (DESIGN.md) -------------------------------------------------

// Ablation 1: GassyFS data placement. Round-robin stripes blocks across
// the cluster (balanced load, mostly remote access); local-first keeps a
// writer's data at home (fast single-client I/O, concentrated load). A
// single-client microbenchmark exposes the trade-off; the all-ranks
// compile workload hides it because every rank is a client.
func BenchmarkAblationGassyfsPlacement(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy gassyfs.AllocPolicy
	}{
		{"round-robin", gassyfs.AllocRoundRobin},
		{"local-first", gassyfs.AllocLocalFirst},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var readMBps float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(42)
				nodes, _ := c.Provision("cloudlab-c220g1", 4)
				world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
				if err != nil {
					b.Fatal(err)
				}
				world.AttachAll(64 << 20)
				fs, err := gassyfs.Mount(world, gassyfs.Options{Policy: cfg.policy})
				if err != nil {
					b.Fatal(err)
				}
				cl, _ := fs.Client(0)
				res, err := workload.RunFSBench(cl, "/bench", workload.FSBenchSpec{
					FileSize: 16 << 20, IOSize: 256 << 10, Ops: 64, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				readMBps = res.ReadMBps
			}
			b.ReportMetric(readMBps, "virtual_read_MBps")
		})
	}
}

// Ablation 1b: GassyFS metadata placement — a client colocated with the
// metadata service vs one paying a round trip per metadata operation,
// under a metadata-heavy workload (many tiny files).
func BenchmarkAblationGassyfsMetadata(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		clientRank int
	}{
		{"metadata-local", 0},
		{"metadata-remote", 3},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(42)
				nodes, _ := c.Provision("cloudlab-c220g1", 4)
				world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
				if err != nil {
					b.Fatal(err)
				}
				world.AttachAll(32 << 20)
				fs, err := gassyfs.Mount(world, gassyfs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := fs.Client(cfg.clientRank)
				if err != nil {
					b.Fatal(err)
				}
				node, _ := world.Node(cfg.clientRank)
				cl.MkdirAll("/meta")
				start := node.Now()
				for f := 0; f < 200; f++ {
					p := fmt.Sprintf("/meta/f%03d", f)
					if err := cl.WriteFile(p, []byte("tiny")); err != nil {
						b.Fatal(err)
					}
					if _, err := cl.Stat(p); err != nil {
						b.Fatal(err)
					}
				}
				elapsed = node.Now() - start
			}
			b.ReportMetric(elapsed*1000, "virtual_ms")
		})
	}
}

// Ablation 2: container image chaining vs flattening — the discussion
// section's packaging/deployment trade-off. Chained images accumulate
// shadowed bytes; flattening pays one merge to shed them.
func BenchmarkAblationImageChaining(b *testing.B) {
	build := func() *container.Image {
		reg := container.NewRegistry()
		eng := container.NewEngine(reg)
		img, err := eng.Build("FROM scratch\nCOPY f /f\nCMD true",
			map[string][]byte{"f": make([]byte, 1<<20)}, "base", "v1")
		if err != nil {
			b.Fatal(err)
		}
		// ten chained layers, each rewriting the payload
		for l := 0; l < 10; l++ {
			layer := container.NewLayer()
			layer.Files["f"] = make([]byte, 1<<20)
			img.Layers = append(img.Layers, layer)
		}
		return img
	}
	b.Run("chained", func(b *testing.B) {
		img := build()
		var size int64
		for i := 0; i < b.N; i++ {
			_ = img.RootFS()
			size = img.Size()
		}
		b.ReportMetric(float64(size)/1e6, "stored_MB")
	})
	b.Run("flattened", func(b *testing.B) {
		img := build().Flatten()
		var size int64
		for i := 0; i < b.N; i++ {
			_ = img.RootFS()
			size = img.Size()
		}
		b.ReportMetric(float64(size)/1e6, "stored_MB")
	})
}

// Ablation 3: orchestration round trips — per-task ssh vs one batched
// push per play.
func BenchmarkAblationOrchestration(b *testing.B) {
	playbook := `
- name: configure
  hosts: all
  tasks:
    - pkg: {name: gcc}
    - pkg: {name: make}
    - copy: {dest: /etc/exp.conf, content: "x"}
    - service: {name: expd, state: started}
    - shell: ./run.sh
`
	for _, batched := range []bool{false, true} {
		name := "per-task"
		if batched {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(int64(i))
				nodes, _ := c.Provision("cloudlab-c220g1", 8)
				inv := orchestrate.NewInventory()
				for _, n := range nodes {
					inv.Add(orchestrate.NewHost(n.ID(), n))
				}
				r := orchestrate.NewRunner(inv)
				r.Batched = batched
				pb, err := orchestrate.ParsePlaybook(playbook)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(pb); err != nil {
					b.Fatal(err)
				}
				makespan = cluster.MaxClock(nodes)
			}
			b.ReportMetric(makespan, "virtual_seconds")
		})
	}
}

// Ablation 6: GassyFS client block cache — a remote client re-reading a
// working set with and without the FUSE-style page cache.
func BenchmarkAblationGassyfsCache(b *testing.B) {
	for _, cacheBlocks := range []int{0, 128} {
		name := "no-cache"
		if cacheBlocks > 0 {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			var warm float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(42)
				nodes, _ := c.Provision("cloudlab-c220g1", 2)
				world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
				if err != nil {
					b.Fatal(err)
				}
				world.AttachAll(64 << 20)
				fs, err := gassyfs.Mount(world, gassyfs.Options{CacheBlocks: cacheBlocks})
				if err != nil {
					b.Fatal(err)
				}
				writer, _ := fs.Client(0)
				writer.MkdirAll("/d")
				if err := writer.WriteFile("/d/f", make([]byte, 4<<20)); err != nil {
					b.Fatal(err)
				}
				reader, _ := fs.Client(1)
				if _, err := reader.ReadFile("/d/f"); err != nil { // cold
					b.Fatal(err)
				}
				node, _ := world.Node(1)
				start := node.Now()
				for r := 0; r < 4; r++ { // re-reads
					if _, err := reader.ReadFile("/d/f"); err != nil {
						b.Fatal(err)
					}
				}
				warm = (node.Now() - start) * 1000
			}
			b.ReportMetric(warm, "virtual_ms_4_rereads")
		})
	}
}

// Ablation 5: MPI halo exchange — blocking Sendrecv after the stencil vs
// nonblocking Isend/Irecv overlapped with it. Overlap hides wire time
// behind computation, the standard optimization LULESH-class codes use.
func BenchmarkAblationMPIOverlap(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		name := "blocking"
		if overlap {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(42)
				nodes, _ := c.Provision("probe-opteron", 8)
				cm, err := mpi.NewComm(nodes, cluster.NewNetwork())
				if err != nil {
					b.Fatal(err)
				}
				spec := workload.DefaultLuleshSpec()
				spec.Iterations = 5
				spec.ProblemSize = 16
				spec.Overlap = overlap
				res, err := workload.RunLulesh(cm, spec)
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed*1000, "virtual_ms")
		})
	}
}

// Ablation 4: Aver slope estimation — least-squares regression vs the
// strict pairwise bound, on a noisy sublinear series.
func BenchmarkAblationAverSlopeMethod(b *testing.B) {
	tb := table.New("nodes", "time")
	for _, n := range []float64{1, 2, 4, 8, 16} {
		// sublinear with mild noise
		tb.MustAppend(table.Number(n), table.Number(100/math.Pow(n, 0.7)*(1+0.02*math.Sin(n))))
	}
	a, err := aver.Parse("expect sublinear(nodes,time)")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name   string
		method aver.SlopeMethod
	}{
		{"regression", aver.SlopeRegression},
		{"pairwise", aver.SlopePairwise},
	} {
		b.Run(m.name, func(b *testing.B) {
			ev := &aver.Evaluator{Method: m.method, DefaultTol: 0.05}
			for i := 0; i < b.N; i++ {
				if _, err := ev.Check(a, tb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- native stressor kernels: real machine work ----------------------------

func BenchmarkStressNative(b *testing.B) {
	for _, s := range stress.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += s.Native(10000)
			}
			_ = sink
		})
	}
}

// --- table/Aver hot path: columnar views and vectorized kernels ------------

// benchResultsTable builds a deterministic ~rows-row results table shaped
// like a large sweep merge: 12 wildcard groups (workload x machine), a
// nodes axis and a sublinear time metric with mild deterministic noise.
func benchResultsTable(rows int) *table.Table {
	workloads := []string{"compile-git", "fsbench", "lulesh", "zlog"}
	machines := []string{"cloudlab-c220g1", "ec2-m4", "probe-opteron"}
	nodeAxis := []float64{1, 2, 4, 8}
	t := table.New("workload", "machine", "nodes", "time")
	for r := 0; r < rows; r++ {
		w := workloads[r%len(workloads)]
		m := machines[(r/len(workloads))%len(machines)]
		n := nodeAxis[(r/(len(workloads)*len(machines)))%len(nodeAxis)]
		tm := 100 / math.Pow(n, 0.7) * (1 + 0.02*math.Sin(float64(r)))
		t.MustAppend(table.String(w), table.String(m), table.Number(n), table.Number(tm))
	}
	return t
}

func BenchmarkTableGroupBy(b *testing.B) {
	t := benchResultsTable(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := t.GroupBy([]string{"workload", "machine"},
			table.Agg{Col: "time", Op: "mean"}, table.Agg{Col: "time", Op: "max"})
		if err != nil || out.Len() != 12 {
			b.Fatalf("groupby: %v (len %d)", err, out.Len())
		}
	}
}

func BenchmarkTableFilterChain(b *testing.B) {
	t := benchResultsTable(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := t.Where("machine", table.String("ec2-m4"))
		if err != nil {
			b.Fatal(err)
		}
		f = f.Filter(func(r int) bool { return f.MustCell(r, "nodes").Num >= 2 })
		sel, err := f.Select("nodes", "time")
		if err != nil {
			b.Fatal(err)
		}
		if err := sel.SortBy("nodes", "time"); err != nil {
			b.Fatal(err)
		}
		if sel.Len() == 0 {
			b.Fatal("empty filter chain result")
		}
	}
}

func BenchmarkAverValidate100k(b *testing.B) {
	t := benchResultsTable(100_000)
	src := "when workload=* and machine=* expect sublinear(nodes,time) and time > 0"
	ev := aver.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts, err := ev.CheckAll(src, t)
		if err != nil || !aver.AllPassed(verdicts) {
			b.Fatalf("validation failed: %v\n%s", err, aver.FormatResults(verdicts))
		}
	}
}

// --- metrics plumbing under load -------------------------------------------

func BenchmarkMetricsPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := metrics.NewRegistry(metrics.Labels{"bench": "pipeline"}, nil)
		v := reg.WithLabels(metrics.Labels{"run": "1"})
		for j := 0; j < 1000; j++ {
			v.Observe("time", float64(j))
		}
		if reg.ResultTable().Len() == 0 {
			b.Fatal("empty result table")
		}
	}
}

// --- parallel sweep engine & stage cache -----------------------------------

// sweepBenchProject builds a cloverleaf project sized so one
// configuration takes a measurable (but small) amount of work.
func sweepBenchProject(b *testing.B) (*core.Project, []map[string]string) {
	b.Helper()
	p := core.Init()
	if err := p.AddExperiment("cloverleaf", "sweep"); err != nil {
		b.Fatal(err)
	}
	p.SetParam("sweep", "nodes", "1,2,4")
	p.SetParam("sweep", "iterations", "3")
	p.SetParam("sweep", "problem_size", "16")
	configs := make([]map[string]string, 8)
	for i := range configs {
		configs[i] = map[string]string{"seed": fmt.Sprintf("%d", i+1)}
	}
	return p, configs
}

func runSweepBench(b *testing.B, jobs int, cache *pipeline.Cache) {
	p, configs := sweepBenchProject(b)
	sr, err := p.RunSweep("sweep", &core.Env{Seed: 1}, configs, core.SweepOptions{Jobs: jobs, Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	if err := sr.Err(); err != nil {
		b.Fatal(err)
	}
	if sr.Results == nil || sr.Results.Len() == 0 {
		b.Fatal("sweep produced no merged results")
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweepBench(b, 1, nil)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweepBench(b, 8, nil)
	}
}

func BenchmarkSweepCached(b *testing.B) {
	// Warm the cache once; the measured iterations replay every
	// cacheable stage of every configuration.
	cache := pipeline.NewCache()
	runSweepBench(b, 8, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweepBench(b, 8, cache)
	}
	b.StopTimer()
	st := cache.Stats()
	if st.Hits == 0 {
		b.Fatal("cached sweep produced no cache hits")
	}
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(float64(st.Misses), "cache-misses")
}
