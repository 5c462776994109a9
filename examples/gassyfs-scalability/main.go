// gassyfs-scalability reproduces the paper's Figure gassyfs-git
// ("Scalability of GassyFS as the number of nodes in the GASNet cluster
// increases. The workload in question compiles Git.") on two platforms,
// and validates the result with the paper's exact Aver assertion
// (Listing lst:aver-assertion):
//
//	when workload=* and machine=* expect sublinear(nodes,time)
//
// It also demonstrates GassyFS durability: the compiled tree is
// checkpointed to stable storage and restored into a fresh cluster.
package main

import (
	"fmt"
	"log"

	"popper/internal/aver"
	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/plot"
	"popper/internal/table"
	"popper/internal/workload"
)

func main() {
	log.SetFlags(0)
	const seed = 42
	machines := []string{"cloudlab-c220g1", "probe-opteron"}
	nodeCounts := []int{1, 2, 4, 8, 16}

	spec := workload.GitCompileSpec()
	spec.Sources = 96
	spec.Seed = seed

	results := table.New("workload", "machine", "nodes", "time")
	var chart plot.LineChart
	chart.Title = "GassyFS scalability: compile Git"
	chart.XLabel, chart.YLabel = "GASNet nodes", "time (virtual s)"

	var lastFS *gassyfs.FS
	for _, machine := range machines {
		var xs, ys []float64
		for _, n := range nodeCounts {
			c := cluster.New(seed + int64(n))
			nodes, err := c.Provision(machine, n)
			if err != nil {
				log.Fatal(err)
			}
			world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
			if err != nil {
				log.Fatal(err)
			}
			if err := world.AttachAll(256 << 20); err != nil {
				log.Fatal(err)
			}
			fs, err := gassyfs.Mount(world, gassyfs.Options{})
			if err != nil {
				log.Fatal(err)
			}
			cl, err := fs.Client(0)
			if err != nil {
				log.Fatal(err)
			}
			if err := workload.GenerateTree(cl, spec); err != nil {
				log.Fatal(err)
			}
			res, err := workload.CompileOnCluster(fs, spec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-16s nodes=%-3d time=%8.3fs  speedup=%.2fx\n",
				machine, n, res.Elapsed, first(ys, res.Elapsed)/res.Elapsed)
			results.MustAppend(table.String("compile-git"), table.String(machine),
				table.Number(float64(n)), table.Number(res.Elapsed))
			xs = append(xs, float64(n))
			ys = append(ys, res.Elapsed)
			lastFS = fs
		}
		if err := chart.Add(machine, xs, ys); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println()
	ascii, err := chart.ASCII()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ascii)

	fmt.Println("\nvalidating with the paper's assertion:")
	verdicts, err := aver.NewEvaluator().CheckAll(
		"when workload=* and machine=* expect sublinear(nodes,time)", results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(aver.FormatResults(verdicts))
	if !aver.AllPassed(verdicts) {
		log.Fatal("scalability assertion failed")
	}

	// Durability: checkpoint the last cluster's filesystem and restore
	// it into a brand-new world.
	fmt.Println("\ncheckpoint/restore:")
	cl, err := lastFS.Client(0)
	if err != nil {
		log.Fatal(err)
	}
	ck, err := cl.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d files\n", len(ck.Files))

	c := cluster.New(7)
	nodes, _ := c.Provision("cloudlab-c220g1", 2)
	world, _ := gasnet.New(nodes, cluster.NewNetwork(), nil)
	world.AttachAll(512 << 20)
	fresh, err := gassyfs.Mount(world, gassyfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	freshCl, _ := fresh.Client(0)
	if err := freshCl.Restore(ck); err != nil {
		log.Fatal(err)
	}
	st, err := freshCl.Stat("/src/bin/git")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored into fresh cluster; /src/bin/git is %d bytes\n", st.Size)
}

func first(ys []float64, def float64) float64 {
	if len(ys) > 0 {
		return ys[0]
	}
	return def
}
