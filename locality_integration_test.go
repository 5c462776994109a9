package popper

import (
	"bytes"
	"fmt"
	"testing"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/sched"
)

// TestGassyFSLocalitySchedulesSweepOnDataRanks is the cross-substrate
// integration the tentpole promises: the GassyFS striped allocator
// decides where each configuration's dataset blocks live, gassyfs
// exposes that as sweep locality hints, and the cluster scheduler
// places each configuration on the rank holding its data — so the
// sweep's reads stay on loopback instead of crossing the simulated
// NIC. (sched cannot import gassyfs — gassyfs builds on sched's worker
// pool — so the handshake is plain []int hints, exercised here from
// the root package.)
func TestGassyFSLocalitySchedulesSweepOnDataRanks(t *testing.T) {
	const ranks = 4
	clus := cluster.New(11)
	nodes, err := clus.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		t.Fatal(err)
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := world.AttachAll(16 << 20); err != nil {
		t.Fatal(err)
	}
	fs, err := gassyfs.Mount(world, gassyfs.Options{Policy: gassyfs.AllocLocalFirst})
	if err != nil {
		t.Fatal(err)
	}

	// Each rank's client writes one dataset; local-first allocation
	// pins dataset i's blocks to rank i.
	bs := int(fs.BlockSize())
	paths := make([]string, 0, 2*ranks)
	for r := 0; r < ranks; r++ {
		cl, err := fs.Client(r)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			p := fmt.Sprintf("/ds-%d-%d", r, j)
			if err := cl.WriteFile(p, bytes.Repeat([]byte{byte(r)}, 2*bs)); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}

	cl0, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	hints := cl0.SweepLocality(paths)
	for i, h := range hints {
		if want := (i / 2) % ranks; h != want {
			t.Fatalf("dataset %s hints rank %d, want %d (local-first allocation)", paths[i], h, want)
		}
	}

	// Hand the allocator's verdict to the scheduler: one configuration
	// per dataset, locality placement, no stealing so placement alone
	// is visible.
	specs := make([]sched.HostSpec, ranks)
	for r, n := range nodes {
		specs[r] = sched.HostSpec{Name: n.ID(), Profile: n.Profile(), Node: n}
	}
	cs, err := sched.NewClusterScheduler(sched.ClusterOptions{
		Hosts: specs, Placement: sched.PlaceLocality, Locality: hints,
		NoSteal: true, NoSpeculate: true, Jobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs, rep := cs.Run(len(paths), func(i int) error {
		// The real work: read the dataset back through the rank that
		// the schedule says owns it.
		data, err := cl0.ReadFile(paths[i])
		if err != nil {
			return err
		}
		if len(data) != 2*bs {
			return fmt.Errorf("dataset %s: %d bytes", paths[i], len(data))
		}
		return nil
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("config %d: %v", i, e)
		}
	}
	for r := 0; r < ranks; r++ {
		if got := rep.Hosts[r].Executed; got != 2 {
			t.Fatalf("rank %d executed %d configs, want 2 (its own datasets): %+v", r, got, rep.Hosts)
		}
	}
	if rep.Winner[0] != hints[0] {
		t.Fatalf("config 0 ran on host %d, hinted %d", rep.Winner[0], hints[0])
	}
}
