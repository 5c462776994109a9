// Package workload implements the applications the paper's experiments
// drive through the substrates: the "compile Git" build job used to
// evaluate GassyFS scalability (Figure gassyfs-git), a LULESH-like
// stencil proxy application for the MPI noisy-neighbour study, and a
// filesystem microbenchmark.
package workload

import (
	"fmt"

	"popper/internal/cluster"
	"popper/internal/detrand"
	"popper/internal/gassyfs"
	"popper/internal/sched"
)

// CompileSpec describes a synthetic source tree and build cost model,
// sized by default like the Git build the paper uses as its workload.
type CompileSpec struct {
	Sources    int   // number of translation units
	AvgSrcSize int   // mean bytes per source file
	Headers    int   // shared headers every unit includes
	HdrSize    int   // bytes per header
	Seed       int64 // tree generation seed

	// CompileOpsPerByte is CPU ops spent per byte of source+headers.
	CompileOpsPerByte float64
	// ObjRatio is object-file size relative to source size.
	ObjRatio float64
	// LinkOpsPerByte is CPU ops per byte of objects during the link.
	LinkOpsPerByte float64
	// JobsPerNode bounds per-node build parallelism (make -j).
	JobsPerNode int

	// HostJobs bounds the host goroutines driving the per-rank clients
	// concurrently; <= 0 means one per host CPU, 1 runs ranks serially.
	// Simulated results are bit-identical for every value — each rank's
	// client runs on its own goroutine with its own clock, and block
	// placement is interleaving-independent (see docs/SUBSTRATES.md).
	HostJobs int
	// Pool, when set, supplies the worker pool (so a sweep can share one
	// across runs); otherwise one is created from HostJobs.
	Pool *sched.Pool
}

// GitCompileSpec returns a spec shaped like building Git from source:
// several hundred translation units plus a body of shared headers.
func GitCompileSpec() CompileSpec {
	return CompileSpec{
		Sources:           480,
		AvgSrcSize:        24 << 10,
		Headers:           40,
		HdrSize:           12 << 10,
		Seed:              1,
		CompileOpsPerByte: 12000, // a compiler does real work per byte
		ObjRatio:          1.6,
		LinkOpsPerByte:    600,
		JobsPerNode:       8,
	}
}

func (s CompileSpec) validate() error {
	switch {
	case s.Sources <= 0 || s.AvgSrcSize <= 0:
		return fmt.Errorf("workload: spec needs positive sources and sizes")
	case s.Headers < 0 || s.HdrSize < 0:
		return fmt.Errorf("workload: negative header config")
	case s.CompileOpsPerByte <= 0 || s.LinkOpsPerByte < 0 || s.ObjRatio <= 0:
		return fmt.Errorf("workload: cost model must be positive")
	case s.JobsPerNode <= 0:
		return fmt.Errorf("workload: JobsPerNode must be positive")
	}
	return nil
}

func srcPath(i int) string { return fmt.Sprintf("/src/c/file%04d.c", i) }
func objPath(i int) string { return fmt.Sprintf("/src/obj/file%04d.o", i) }
func hdrPath(i int) string { return fmt.Sprintf("/src/include/hdr%03d.h", i) }

// GenerateTree writes the synthetic source tree into the filesystem
// through the given client.
func GenerateTree(cl *gassyfs.Client, spec CompileSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	rng := detrand.New(spec.Seed)
	for _, d := range []string{"/src", "/src/c", "/src/include", "/src/obj", "/src/bin"} {
		if err := cl.MkdirAll(d); err != nil {
			return err
		}
	}
	for h := 0; h < spec.Headers; h++ {
		if err := cl.WriteFile(hdrPath(h), synthBytes(rng, spec.HdrSize)); err != nil {
			return err
		}
	}
	for i := 0; i < spec.Sources; i++ {
		size := spec.AvgSrcSize/2 + rng.Intn(spec.AvgSrcSize)
		if err := cl.WriteFile(srcPath(i), synthBytes(rng, size)); err != nil {
			return err
		}
	}
	return nil
}

func synthBytes(rng *detrand.Rand, n int) []byte {
	out := make([]byte, n)
	const chars = "abcdefghijklmnopqrstuvwxyz(){};/* */\n\t#include int return"
	for i := range out {
		out[i] = chars[rng.Intn(len(chars))]
	}
	return out
}

// CompileResult summarizes one distributed build.
type CompileResult struct {
	Nodes       int
	Elapsed     float64 // virtual seconds, generation excluded
	CompileTime float64 // parallel phase
	LinkTime    float64 // serial phase on rank 0
	ObjectBytes int64
}

// compileShard runs one rank's share of the build: read the shared
// headers, compile the rank's round-robin slice of sources into object
// files, then charge the shard's compute. All costs land on the rank's
// own node clock and every filesystem op goes through the rank's own
// client, so the shard's simulated behaviour is independent of how
// shards interleave on the host.
func compileShard(fs *gassyfs.FS, spec CompileSpec, rank int) error {
	world := fs.World()
	cl, err := fs.Client(rank)
	if err != nil {
		return err
	}
	node, _ := world.Node(rank)
	// Each rank reads the shared headers once (they stay in page cache).
	var headerBytes int64
	for h := 0; h < spec.Headers; h++ {
		data, err := cl.ReadFile(hdrPath(h))
		if err != nil {
			return fmt.Errorf("workload: reading header: %w", err)
		}
		headerBytes += int64(len(data))
	}
	var shardCPU float64
	n := world.Size()
	for i := rank; i < spec.Sources; i += n {
		src, err := cl.ReadFile(srcPath(i))
		if err != nil {
			return fmt.Errorf("workload: reading source: %w", err)
		}
		unitBytes := float64(len(src)) + float64(headerBytes)
		shardCPU += float64(unitBytes * spec.CompileOpsPerByte)
		obj := make([]byte, int(float64(len(src))*spec.ObjRatio))
		if err := cl.WriteFile(objPath(i), obj); err != nil {
			return fmt.Errorf("workload: writing object: %w", err)
		}
	}
	// The shard's compute parallelizes across local cores (make -j).
	node.RunParallel(cluster.Work{CPUOps: shardCPU, MemBytes: shardCPU / 20}, spec.JobsPerNode, 0.02)
	return nil
}

// CompileOnCluster builds the tree on every rank of the filesystem's
// world: sources are sharded round-robin across ranks, each rank compiles
// its shard with JobsPerNode-way parallelism, and rank 0 links. This is
// the paper's Figure gassyfs-git workload.
//
// Ranks are driven concurrently on host goroutines (one per rank,
// bounded by HostJobs/Pool). The simulated result is bit-identical to a
// serial drive: each rank only ever advances its own logical clock, and
// the striped allocator places each writer's blocks independently of
// scheduling.
func CompileOnCluster(fs *gassyfs.FS, spec CompileSpec) (CompileResult, error) {
	if err := spec.validate(); err != nil {
		return CompileResult{}, err
	}
	world := fs.World()
	n := world.Size()
	start := world.Barrier()

	// --- parallel compile phase: one goroutine per rank ---
	pool := spec.Pool
	if pool == nil {
		pool = sched.NewPool(spec.HostJobs)
	}
	errs := pool.Each(n, func(rank int) error {
		return compileShard(fs, spec, rank)
	})
	if err := sched.FirstError(errs); err != nil {
		return CompileResult{}, err
	}
	compileEnd := world.Barrier()

	// --- serial link phase on rank 0 ---
	cl0, err := fs.Client(0)
	if err != nil {
		return CompileResult{}, err
	}
	var objTotal int64
	for i := 0; i < spec.Sources; i++ {
		obj, err := cl0.ReadFile(objPath(i))
		if err != nil {
			return CompileResult{}, fmt.Errorf("workload: reading object: %w", err)
		}
		objTotal += int64(len(obj))
	}
	node0, _ := world.Node(0)
	node0.Run(cluster.Work{CPUOps: float64(objTotal) * spec.LinkOpsPerByte, MemBytes: float64(objTotal)})
	if err := cl0.WriteFile("/src/bin/git", make([]byte, objTotal/3)); err != nil {
		return CompileResult{}, err
	}
	end := world.Barrier()

	return CompileResult{
		Nodes:       n,
		Elapsed:     end - start,
		CompileTime: compileEnd - start,
		LinkTime:    end - compileEnd,
		ObjectBytes: objTotal,
	}, nil
}
