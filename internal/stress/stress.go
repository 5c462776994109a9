// Package stress implements a stress-ng-style battery of microbenchmarks
// ("stressors"), the measurement instrument behind the paper's Torpor use
// case and the baseliner fingerprinting gate.
//
// Every stressor has two faces:
//
//   - a resource-demand model (cluster.Work per bogo-op) from which its
//     throughput on any simulated MachineProfile is derived — this is what
//     the Torpor variability experiment consumes; and
//   - a native Go kernel that performs real computation, so the benchmark
//     harness also exercises genuine CPU/memory behaviour on the machine
//     running the reproduction.
//
// The battery spans the classes stress-ng covers: scalar CPU, vectorizable
// floating point, streaming and random-access memory, branch-heavy
// control flow, syscall pressure, and mixed kernels.
package stress

import (
	"math"
	"sort"

	"popper/internal/cluster"
)

// Class labels the dominant resource a stressor exercises.
type Class string

// Stressor classes.
const (
	ClassCPU     Class = "cpu"
	ClassVector  Class = "vector"
	ClassMemory  Class = "memory"
	ClassRandMem Class = "randmem"
	ClassBranch  Class = "branch"
	ClassSyscall Class = "syscall"
	ClassMixed   Class = "mixed"
)

// Stressor is one microbenchmark.
type Stressor struct {
	Name  string
	Class Class
	// Unit is the simulated resource demand of one bogo-op.
	Unit cluster.Work
	// Native runs n real iterations and returns a checksum (to defeat
	// dead-code elimination).
	Native func(n int) float64
}

// Throughput returns simulated bogo-ops per second on a profile.
func (s Stressor) Throughput(p *cluster.MachineProfile) float64 {
	d := p.Duration(s.Unit)
	if d <= 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// Speedup returns the factor by which `target` outperforms `base` on this
// stressor (>1 means target is faster).
func (s Stressor) Speedup(base, target *cluster.MachineProfile) float64 {
	return base.Duration(s.Unit) / target.Duration(s.Unit)
}

// All returns the full battery, sorted by name.
func All() []Stressor {
	out := append([]Stressor(nil), battery...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// The battery. Unit mixes are calibrated against the builtin machine
// profiles so that the Torpor variability histogram reproduces the shape
// of the paper's Figure: a cluster of scalar-CPU stressors slightly above
// 2x (architectural improvement of a 2015 Haswell over a 2005 Xeon), a
// memory-bandwidth group near 3.3x, latency-bound stressors near 1.3x,
// and a vectorized tail.
var battery = []Stressor{
	// --- scalar CPU (the (2.2, 2.3] mode of the histogram) ---
	{Name: "cpu", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1e6},
		Native: nativeALU},
	{Name: "fibonacci", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1.2e6},
		Native: nativeFib},
	{Name: "primes", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1.5e6},
		Native: nativePrimes},
	{Name: "gcd", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 0.9e6},
		Native: nativeGCD},
	{Name: "crc", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1.1e6},
		Native: nativeCRC},
	{Name: "bitops", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1e6},
		Native: nativeBitops},
	{Name: "nsqrt", Class: ClassCPU,
		Unit:   cluster.Work{CPUOps: 1.3e6},
		Native: nativeNsqrt},

	// --- branch heavy ---
	{Name: "qsort", Class: ClassBranch,
		Unit:   cluster.Work{CPUOps: 6e5, BranchMiss: 2.5e4},
		Native: nativeQsort},
	{Name: "bsearch", Class: ClassBranch,
		Unit:   cluster.Work{CPUOps: 4e5, BranchMiss: 3e4, RandAccess: 5e3},
		Native: nativeBsearch},
	{Name: "statemachine", Class: ClassBranch,
		Unit:   cluster.Work{CPUOps: 5e5, BranchMiss: 4e4},
		Native: nativeStateMachine},

	// --- streaming memory ---
	{Name: "stream", Class: ClassMemory,
		Unit:   cluster.Work{MemBytes: 8e6, CPUOps: 1e5},
		Native: nativeStream},
	{Name: "memcpy", Class: ClassMemory,
		Unit:   cluster.Work{MemBytes: 1e7},
		Native: nativeMemcpy},
	{Name: "triad", Class: ClassMemory,
		Unit:   cluster.Work{MemBytes: 9e6, VecOps: 3e5},
		Native: nativeTriad},

	// --- random access memory (latency bound) ---
	{Name: "ptrchase", Class: ClassRandMem,
		Unit:   cluster.Work{RandAccess: 4e4, CPUOps: 4e4},
		Native: nativePtrChase},
	{Name: "cachethrash", Class: ClassRandMem,
		Unit:   cluster.Work{RandAccess: 3e4, MemBytes: 5e5, CPUOps: 5e4},
		Native: nativeCacheThrash},

	// --- syscall pressure ---
	{Name: "syscall", Class: ClassSyscall,
		Unit:   cluster.Work{Syscalls: 8e3, CPUOps: 5e4},
		Native: nativeSyscall},
	{Name: "ctxswitch", Class: ClassSyscall,
		Unit:   cluster.Work{Syscalls: 6e3, CPUOps: 1e5, RandAccess: 2e3},
		Native: nativeCtxSwitch},

	// --- vectorizable floating point (the histogram's tail) ---
	{Name: "matmul", Class: ClassVector,
		Unit:   cluster.Work{VecOps: 4e6, MemBytes: 4e5},
		Native: nativeMatmul},
	{Name: "saxpy", Class: ClassVector,
		Unit:   cluster.Work{VecOps: 3e6, MemBytes: 1.2e6},
		Native: nativeSaxpy},
	{Name: "dotprod", Class: ClassVector,
		Unit:   cluster.Work{VecOps: 3.5e6, MemBytes: 8e5},
		Native: nativeDot},

	// --- mixed ---
	{Name: "hashmap", Class: ClassMixed,
		Unit:   cluster.Work{CPUOps: 5e5, RandAccess: 2e4, BranchMiss: 8e3},
		Native: nativeHashmap},
	{Name: "strsearch", Class: ClassMixed,
		Unit:   cluster.Work{CPUOps: 7e5, MemBytes: 2e6, BranchMiss: 5e3},
		Native: nativeStrSearch},
	{Name: "treeinsert", Class: ClassMixed,
		Unit:   cluster.Work{CPUOps: 4e5, RandAccess: 3e4, BranchMiss: 1.5e4},
		Native: nativeTreeInsert},
	{Name: "compress", Class: ClassMixed,
		Unit:   cluster.Work{CPUOps: 9e5, MemBytes: 3e6, BranchMiss: 1e4},
		Native: nativeCompress},
}

// Sample is one battery measurement on one node.
type Sample struct {
	Stressor string
	Class    Class
	// Throughput in bogo-ops per virtual second, measured on the node
	// (includes jitter and background load).
	Throughput float64
	Elapsed    float64
}

// RunBattery executes `ops` bogo-ops of every stressor on the node and
// returns the measured samples. Node clock advances accordingly.
func RunBattery(node *cluster.Node, ops int) []Sample {
	if ops <= 0 {
		ops = 1
	}
	all := All()
	out := make([]Sample, 0, len(all))
	for _, s := range all {
		elapsed := node.Run(s.Unit.Scale(float64(ops)))
		out = append(out, Sample{
			Stressor:   s.Name,
			Class:      s.Class,
			Throughput: float64(ops) / elapsed,
			Elapsed:    elapsed,
		})
	}
	return out
}
