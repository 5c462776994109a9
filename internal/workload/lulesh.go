package workload

import (
	"fmt"

	"popper/internal/cluster"
	"popper/internal/mpi"
)

// LuleshSpec configures the LULESH-like shock-hydrodynamics proxy
// application used in the paper's MPI noisy-neighbour study. Each rank
// owns a ProblemSize^3 sub-domain; every iteration performs the stencil
// compute, exchanges halo faces with up to six neighbours in a 3D
// decomposition, and agrees on the next timestep with an allreduce.
type LuleshSpec struct {
	Iterations  int
	ProblemSize int // elements per dimension per rank (LULESH -s)
	// OpsPerElement is CPU ops per element per iteration.
	OpsPerElement float64
	// BytesPerFace is transferred per halo face per iteration.
	FieldsPerElement int // doubles exchanged per face element
	// Overlap posts nonblocking halo exchanges before the stencil
	// compute and waits after it, hiding wire time behind computation.
	Overlap bool
}

// DefaultLuleshSpec mirrors the common LULESH configuration (-s 30).
func DefaultLuleshSpec() LuleshSpec {
	return LuleshSpec{
		Iterations:       50,
		ProblemSize:      30,
		OpsPerElement:    450,
		FieldsPerElement: 3,
	}
}

func (s LuleshSpec) validate() error {
	switch {
	case s.Iterations <= 0:
		return fmt.Errorf("workload: lulesh iterations must be positive")
	case s.ProblemSize <= 0:
		return fmt.Errorf("workload: lulesh problem size must be positive")
	case s.OpsPerElement <= 0 || s.FieldsPerElement <= 0:
		return fmt.Errorf("workload: lulesh cost model must be positive")
	}
	return nil
}

// grid3 factors n into three dimensions as evenly as possible.
func grid3(n int) [3]int {
	best := [3]int{1, 1, n}
	bestScore := n * n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rem := n / a
		for b := a; b*b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			c := rem / b
			score := c - a // spread: smaller is more cubic
			if score < bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best
}

// halo is one neighbour pair of the decomposition: rank r and the rank
// nb one step up from it along one dimension.
type halo struct{ r, nb int }

// haloPairs lists the neighbour pairs of a dims grid in exchange order:
// by dimension, then by lower rank.
func haloPairs(dims [3]int) []halo {
	n := dims[0] * dims[1] * dims[2]
	stride := [3]int{1, dims[0], dims[0] * dims[1]}
	pairs := make([]halo, 0, n/dims[0]*(dims[0]-1)+n/dims[1]*(dims[1]-1)+n/dims[2]*(dims[2]-1))
	for dim := 0; dim < 3; dim++ {
		for r := 0; r < n; r++ {
			c := [3]int{r % dims[0], (r / dims[0]) % dims[1], r / (dims[0] * dims[1])}
			if c[dim]+1 < dims[dim] {
				pairs = append(pairs, halo{r, r + stride[dim]})
			}
		}
	}
	return pairs
}

// LuleshResult summarizes one run of the proxy app.
type LuleshResult struct {
	Ranks       int
	Grid        [3]int
	Elapsed     float64 // makespan, virtual seconds
	MPITime     float64 // summed across ranks (mpiP's headline number)
	MPIFraction float64 // mean per-rank MPI time / elapsed
}

// RunLulesh executes the proxy application on the communicator.
func RunLulesh(cm *mpi.Comm, spec LuleshSpec) (LuleshResult, error) {
	if err := spec.validate(); err != nil {
		return LuleshResult{}, err
	}
	n := cm.Size()
	dims := grid3(n)
	halos := haloPairs(dims)

	s := spec.ProblemSize
	elemsPerRank := float64(s * s * s)
	faceBytes := int64(s*s) * int64(spec.FieldsPerElement) * 8

	// Settle the ranks first, then profile: the opening barrier's wait
	// falls before start, so it must not count as MPI time either.
	cm.Barrier()
	cm.Profiler().Reset()
	start := cm.MaxClock()

	work := cluster.Work{
		VecOps:   elemsPerRank * spec.OpsPerElement * 0.6,
		CPUOps:   elemsPerRank * spec.OpsPerElement * 0.4,
		MemBytes: elemsPerRank * 8 * float64(spec.FieldsPerElement),
	}
	var reqs []*mpi.Request // the Overlap path's handles, reused every iteration
	for it := 0; it < spec.Iterations; it++ {
		if spec.Overlap {
			// nonblocking: post the halo sends, compute, then wait —
			// wire time hides behind the stencil.
			reqs = reqs[:0]
			for _, h := range halos {
				s1, err := cm.Isend(h.r, h.nb, faceBytes)
				if err != nil {
					return LuleshResult{}, err
				}
				s2, err := cm.Isend(h.nb, h.r, faceBytes)
				if err != nil {
					return LuleshResult{}, err
				}
				reqs = append(reqs, s1, s2)
			}
			for r := 0; r < n; r++ {
				if err := cm.Compute(r, work); err != nil {
					return LuleshResult{}, err
				}
			}
			for _, h := range halos {
				r1, err := cm.Irecv(h.nb, h.r)
				if err != nil {
					return LuleshResult{}, err
				}
				r2, err := cm.Irecv(h.r, h.nb)
				if err != nil {
					return LuleshResult{}, err
				}
				reqs = append(reqs, r1, r2)
			}
			if err := cm.Waitall(reqs); err != nil {
				return LuleshResult{}, err
			}
		} else {
			// blocking: compute, then exchange halos
			for r := 0; r < n; r++ {
				if err := cm.Compute(r, work); err != nil {
					return LuleshResult{}, err
				}
			}
			for _, h := range halos {
				if err := cm.Sendrecv(h.r, h.nb, faceBytes); err != nil {
					return LuleshResult{}, err
				}
			}
		}
		// global timestep computation
		cm.Allreduce(8)
	}
	end := cm.MaxClock()

	p := cm.Profiler()
	meanMPI := p.TotalMPITime() / float64(n)
	res := LuleshResult{
		Ranks:   n,
		Grid:    dims,
		Elapsed: end - start,
		MPITime: p.TotalMPITime(),
	}
	if res.Elapsed > 0 {
		res.MPIFraction = meanMPI / res.Elapsed
	}
	return res, nil
}
