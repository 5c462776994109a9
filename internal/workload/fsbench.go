package workload

import (
	"fmt"

	"popper/internal/detrand"
	"popper/internal/gassyfs"
)

// FSBenchSpec configures the fio-style filesystem microbenchmark used to
// characterize GassyFS beyond the compile workload.
type FSBenchSpec struct {
	FileSize  int64 // bytes per file
	IOSize    int64 // bytes per operation
	Ops       int   // operations per phase
	Seed      int64
	RandomIO  bool // random offsets instead of sequential
	WriteOnly bool // skip the read phase
}

func (s FSBenchSpec) validate() error {
	switch {
	case s.FileSize <= 0 || s.IOSize <= 0 || s.Ops <= 0:
		return fmt.Errorf("workload: fsbench sizes and ops must be positive")
	case s.IOSize > s.FileSize:
		return fmt.Errorf("workload: io size larger than file")
	}
	return nil
}

// FSBenchResult reports virtual-time throughput for each phase.
type FSBenchResult struct {
	WriteSeconds float64
	ReadSeconds  float64
	WriteMBps    float64
	ReadMBps     float64
}

// RunFSBench writes then reads a file through the client with the
// configured access pattern, reporting virtual-time bandwidth.
func RunFSBench(cl *gassyfs.Client, path string, spec FSBenchSpec) (FSBenchResult, error) {
	if err := spec.validate(); err != nil {
		return FSBenchResult{}, err
	}
	node, err := cl.FS().World().Node(cl.Rank())
	if err != nil {
		return FSBenchResult{}, err
	}
	rng := detrand.New(spec.Seed)
	if err := cl.Create(path); err != nil {
		return FSBenchResult{}, err
	}
	buf := make([]byte, spec.IOSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	offset := func(i int) int64 {
		if spec.RandomIO {
			return rng.Int63n(spec.FileSize - spec.IOSize + 1)
		}
		return (int64(i) * spec.IOSize) % (spec.FileSize - spec.IOSize + 1)
	}

	var res FSBenchResult
	t0 := node.Now()
	for i := 0; i < spec.Ops; i++ {
		if err := cl.WriteAt(path, offset(i), buf); err != nil {
			return FSBenchResult{}, err
		}
	}
	res.WriteSeconds = node.Now() - t0
	moved := float64(spec.Ops) * float64(spec.IOSize)
	if res.WriteSeconds > 0 {
		res.WriteMBps = moved / res.WriteSeconds / 1e6
	}
	if spec.WriteOnly {
		return res, nil
	}
	t1 := node.Now()
	for i := 0; i < spec.Ops; i++ {
		if _, err := cl.ReadAt(path, offset(i), spec.IOSize); err != nil {
			return FSBenchResult{}, err
		}
	}
	res.ReadSeconds = node.Now() - t1
	if res.ReadSeconds > 0 {
		res.ReadMBps = moved / res.ReadSeconds / 1e6
	}
	return res, nil
}
