// Package cluster simulates the bare-metal-as-a-service substrate the
// paper's experiments run on (CloudLab, PRObE, EC2, lab machines).
//
// Real hardware is unavailable in this reproduction, so machines are
// modeled by MachineProfiles: a small set of capability parameters (clock,
// IPC, vector width, memory bandwidth/latency, branch-miss cost, syscall
// cost, NIC latency/bandwidth, jitter) from which the duration of any
// piece of Work is computed deterministically. Relative performance
// between profiles — the quantity the Torpor and GassyFS experiments
// study — is therefore controlled and explainable, which is exactly the
// property bare-metal providers give the paper's authors.
//
// Nodes carry logical clocks (virtual seconds). Multi-node substrates
// (gasnet, mpi, orchestrate) advance these clocks using the network cost
// model, yielding a LogP-style discrete simulation that is reproducible
// bit-for-bit for a given seed.
package cluster

import (
	"fmt"
	"sort"
)

// MachineProfile describes the capabilities of one machine model.
// All rates are in base SI units (Hz, bytes/s, seconds).
type MachineProfile struct {
	Name string
	Year int // generation marker, used in reports

	Cores       int
	ClockHz     float64 // core clock
	IPC         float64 // sustained scalar instructions/cycle
	VectorWidth float64 // float64 lanes usable by vectorizable work
	MemBWBps    float64 // sustained memory bandwidth, bytes/s
	MemLatS     float64 // random-access latency, seconds
	BranchCostS float64 // cost of one mispredicted branch, seconds
	SyscallS    float64 // cost of one syscall, seconds
	DiskBWBps   float64 // sequential disk bandwidth, bytes/s
	DiskLatS    float64 // disk access latency, seconds

	NICLatS  float64 // one-way NIC+switch latency, seconds
	NICBWBps float64 // NIC bandwidth, bytes/s

	RAMBytes int64 // installed memory

	// JitterSigma controls run-to-run variability of this platform.
	// Bare-metal research testbeds are near zero; consolidated cloud
	// infrastructure is noticeably higher (the paper's motivation for
	// bare-metal-as-a-service).
	JitterSigma float64
}

// Validate checks that the profile is physically meaningful.
func (p *MachineProfile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("cluster: profile has no name")
	case p.Cores <= 0:
		return fmt.Errorf("cluster: profile %s: cores must be positive", p.Name)
	case p.ClockHz <= 0 || p.IPC <= 0 || p.VectorWidth <= 0:
		return fmt.Errorf("cluster: profile %s: CPU parameters must be positive", p.Name)
	case p.MemBWBps <= 0 || p.MemLatS < 0:
		return fmt.Errorf("cluster: profile %s: memory parameters invalid", p.Name)
	case p.NICBWBps <= 0 || p.NICLatS < 0:
		return fmt.Errorf("cluster: profile %s: NIC parameters invalid", p.Name)
	case p.JitterSigma < 0:
		return fmt.Errorf("cluster: profile %s: jitter must be non-negative", p.Name)
	}
	return nil
}

// Builtin machine profiles. The catalog mirrors the platforms named in the
// paper: a ~10-year-old lab Xeon (the Torpor baseline), CloudLab c220g1
// nodes, an EC2-style consolidated VM, and a PRObE-style opteron.
var builtinProfiles = map[string]*MachineProfile{
	// The "10 year old Xeon" in the authors' lab (Torpor baseline machine).
	"xeon-2005": {
		Name: "xeon-2005", Year: 2005,
		Cores: 4, ClockHz: 2.0e9, IPC: 1.0, VectorWidth: 2,
		MemBWBps: 6.4e9, MemLatS: 110e-9, BranchCostS: 18e-9,
		SyscallS: 500e-9, DiskBWBps: 60e6, DiskLatS: 8e-3,
		NICLatS: 50e-6, NICBWBps: 125e6, // 1 GbE
		RAMBytes: 8 << 30, JitterSigma: 0.01,
	},
	// CloudLab Wisconsin c220g1 (Haswell E5-2630 v3 era).
	"cloudlab-c220g1": {
		Name: "cloudlab-c220g1", Year: 2015,
		Cores: 16, ClockHz: 2.4e9, IPC: 1.9, VectorWidth: 8,
		MemBWBps: 21e9, MemLatS: 85e-9, BranchCostS: 7e-9,
		SyscallS: 150e-9, DiskBWBps: 500e6, DiskLatS: 0.1e-3,
		NICLatS: 15e-6, NICBWBps: 1.25e9, // 10 GbE
		RAMBytes: 128 << 30, JitterSigma: 0.01,
	},
	// CloudLab Clemson c8220 (Ivy Bridge, bigger memory).
	"cloudlab-c8220": {
		Name: "cloudlab-c8220", Year: 2014,
		Cores: 20, ClockHz: 2.2e9, IPC: 1.7, VectorWidth: 4,
		MemBWBps: 18e9, MemLatS: 90e-9, BranchCostS: 8e-9,
		SyscallS: 170e-9, DiskBWBps: 400e6, DiskLatS: 0.12e-3,
		NICLatS: 12e-6, NICBWBps: 5e9, // 40 GbE
		RAMBytes: 256 << 30, JitterSigma: 0.01,
	},
	// Consolidated cloud VM: decent hardware, high variability
	// (the "hypervisor tax" and noisy neighbours the paper discusses).
	"ec2-m4": {
		Name: "ec2-m4", Year: 2015,
		Cores: 8, ClockHz: 2.4e9, IPC: 1.8, VectorWidth: 8,
		MemBWBps: 19e9, MemLatS: 95e-9, BranchCostS: 7.5e-9,
		SyscallS: 260e-9, DiskBWBps: 250e6, DiskLatS: 0.3e-3,
		NICLatS: 60e-6, NICBWBps: 600e6,
		RAMBytes: 64 << 30, JitterSigma: 0.08,
	},
	// PRObE-style AMD opteron HPC node with fast interconnect.
	"probe-opteron": {
		Name: "probe-opteron", Year: 2012,
		Cores: 64, ClockHz: 2.1e9, IPC: 1.4, VectorWidth: 4,
		MemBWBps: 15e9, MemLatS: 100e-9, BranchCostS: 10e-9,
		SyscallS: 200e-9, DiskBWBps: 120e6, DiskLatS: 5e-3,
		NICLatS: 3e-6, NICBWBps: 4e9, // IB QDR-ish
		RAMBytes: 128 << 30, JitterSigma: 0.005,
	},
}

// Profile returns a copy of a builtin machine profile.
func Profile(name string) (*MachineProfile, error) {
	p, ok := builtinProfiles[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown machine profile %q (have %v)", name, ProfileNames())
	}
	cp := *p
	return &cp, nil
}

// MustProfile is Profile that panics on unknown names; for tests and
// statically-known experiment configs.
func MustProfile(name string) *MachineProfile {
	p, err := Profile(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ProfileNames lists the builtin profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(builtinProfiles))
	for n := range builtinProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Work describes resource demands of a computation in hardware-neutral
// units. Durations are derived from a profile's capabilities; components
// are summed (no overlap), which keeps the model simple and monotone.
type Work struct {
	CPUOps     float64 // scalar ALU/integer operations
	VecOps     float64 // vectorizable floating-point operations
	MemBytes   float64 // bytes streamed through memory
	RandAccess float64 // dependent random memory accesses
	BranchMiss float64 // mispredicted branches
	Syscalls   float64 // kernel crossings
	DiskBytes  float64 // bytes of sequential disk I/O
	DiskOps    float64 // disk operations (seeks)
}

// Add returns the sum of two work descriptions.
func (w Work) Add(o Work) Work {
	return Work{
		CPUOps:     w.CPUOps + o.CPUOps,
		VecOps:     w.VecOps + o.VecOps,
		MemBytes:   w.MemBytes + o.MemBytes,
		RandAccess: w.RandAccess + o.RandAccess,
		BranchMiss: w.BranchMiss + o.BranchMiss,
		Syscalls:   w.Syscalls + o.Syscalls,
		DiskBytes:  w.DiskBytes + o.DiskBytes,
		DiskOps:    w.DiskOps + o.DiskOps,
	}
}

// Scale returns the work multiplied by k.
func (w Work) Scale(k float64) Work {
	return Work{
		CPUOps: w.CPUOps * k, VecOps: w.VecOps * k,
		MemBytes: w.MemBytes * k, RandAccess: w.RandAccess * k,
		BranchMiss: w.BranchMiss * k, Syscalls: w.Syscalls * k,
		DiskBytes: w.DiskBytes * k, DiskOps: w.DiskOps * k,
	}
}

// Duration computes how long the work takes on this profile with a single
// core and no contention, in seconds.
func (p *MachineProfile) Duration(w Work) float64 {
	t := 0.0
	t += w.CPUOps / (p.ClockHz * p.IPC)
	t += w.VecOps / (p.ClockHz * p.IPC * p.VectorWidth)
	t += w.MemBytes / p.MemBWBps
	t += float64(w.RandAccess * p.MemLatS)
	t += float64(w.BranchMiss * p.BranchCostS)
	t += float64(w.Syscalls * p.SyscallS)
	t += w.DiskBytes / p.DiskBWBps
	t += float64(w.DiskOps * p.DiskLatS)
	return t
}
