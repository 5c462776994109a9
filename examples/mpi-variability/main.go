// mpi-variability reproduces the paper's HPC use case ("MPI Noisy
// Neighborhood Characterization"): a LULESH-like proxy application runs
// repeatedly over an MPI communicator while mpiP-style metrics are
// captured, with the goal of identifying root causes of variability
// across executions. The paper's authors could not re-run this
// experiment before the deadline; this reproduction completes it on the
// simulated substrate.
//
// The experiment also demonstrates the baseline-fingerprint gate: before
// the measured runs, the platform profile is compared against the
// recorded baseline, refusing to execute on a diverged machine.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"popper/internal/baseliner"
	"popper/internal/cluster"
	"popper/internal/metrics"
	"popper/internal/mpi"
	"popper/internal/table"
	"popper/internal/workload"
)

func main() {
	log.SetFlags(0)
	const (
		machine = "ec2-m4"
		ranks   = 8
		runs    = 10
		seed    = 42
	)
	spec := workload.DefaultLuleshSpec()
	spec.Iterations = 10

	// Baseline sanitization: fingerprint the platform class once, then
	// gate a fresh node against it before running anything. Consolidated
	// cloud machines are noisy, so the fingerprint averages several
	// battery runs and the tolerance is wider than a bare-metal testbed
	// would need — itself one of the paper's observations.
	fmt.Println("== baseline gate")
	rc := cluster.New(seed)
	refNode, _ := rc.Provision(machine, 1)
	recorded := averagedFingerprint(refNode[0], 7)
	fresh, _ := rc.Provision(machine, 1)
	gate, err := baseliner.Gate(recorded, fresh[0], 200, 0.30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(gate.String())

	// And show it failing on the wrong platform.
	wrong, _ := rc.Provision("xeon-2005", 1)
	if _, err := baseliner.Gate(recorded, wrong[0], 200, 0.30); err != nil {
		fmt.Println("gate on a 2005 Xeon refused as expected")
	} else {
		log.Fatal("gate should have refused the wrong platform")
	}

	// The measured runs.
	fmt.Printf("\n== %d runs x {isolated, noisy} of LULESH (-s %d) on %d ranks\n",
		runs, spec.ProblemSize, ranks)
	reg := metrics.NewRegistry(metrics.Labels{"app": "lulesh"}, nil)
	var lastProfiler *mpi.Profiler
	var lastElapsed float64
	for _, noisy := range []bool{false, true} {
		label := "isolated"
		if noisy {
			label = "noisy"
		}
		for r := 0; r < runs; r++ {
			c := cluster.New(seed + int64(r)*31 + int64(len(label)))
			nodes, err := c.Provision(machine, ranks)
			if err != nil {
				log.Fatal(err)
			}
			if noisy {
				rng := rand.New(rand.NewSource(seed + int64(r)*7919))
				for v := 0; v < 1+rng.Intn(2); v++ {
					nodes[rng.Intn(len(nodes))].SetBackgroundLoad(0.7 * rng.Float64())
				}
			}
			cm, err := mpi.NewComm(nodes, cluster.NewNetwork())
			if err != nil {
				log.Fatal(err)
			}
			res, err := workload.RunLulesh(cm, spec)
			if err != nil {
				log.Fatal(err)
			}
			v := reg.WithLabels(metrics.Labels{"condition": label})
			v.Observe("time", res.Elapsed)
			v.Observe("mpi_fraction", res.MPIFraction)
			if noisy && r == runs-1 {
				lastProfiler = cm.Profiler()
				lastElapsed = res.Elapsed
			}
		}
		s := reg.Summarize("time", metrics.Labels{"condition": label})
		fmt.Printf("%-9s %s\n", label, s.String())
	}

	quiet := reg.Series("time", metrics.Labels{"condition": "isolated"})
	noisy := reg.Series("time", metrics.Labels{"condition": "noisy"})
	fmt.Printf("\nrun-to-run CV: isolated %.3f vs noisy %.3f (%.1fx)\n",
		table.CoeffVar(quiet), table.CoeffVar(noisy),
		table.CoeffVar(noisy)/table.CoeffVar(quiet))

	fmt.Println("\n== mpiP report of the final noisy run")
	fmt.Print(lastProfiler.Report(lastElapsed))
}

// averagedFingerprint stabilizes a noisy platform's fingerprint by
// averaging several battery runs.
func averagedFingerprint(node *cluster.Node, rounds int) *baseliner.Fingerprint {
	acc := baseliner.Collect(node, 200)
	for r := 1; r < rounds; r++ {
		next := baseliner.Collect(node, 200)
		for name, v := range next.Throughput {
			acc.Throughput[name] += v
		}
	}
	for name := range acc.Throughput {
		acc.Throughput[name] /= float64(rounds)
	}
	return acc
}
