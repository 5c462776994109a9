package workload

import (
	"math"
	"testing"

	"popper/internal/cluster"
	"popper/internal/mpi"
)

// luleshCase builds the communicator for one golden case: seed 42,
// `ranks` nodes of `machine`, and with `loaded` a background tenant on
// every third node.
func luleshCase(t testing.TB, machine string, loaded bool, ranks int) *mpi.Comm {
	t.Helper()
	nodes, err := cluster.New(42).Provision(machine, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if loaded {
		for i, n := range nodes {
			if i%3 == 0 {
				if err := n.SetBackgroundLoad(0.15 + 0.1*float64(i%4)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cm, err := mpi.NewComm(nodes, cluster.NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestLuleshGoldenBits pins the simulator bit for bit. The Elapsed bits
// were recorded before the message path was rewritten for speed, so any
// change to the order of a float operation or an RNG draw shows here.
// MPITime and MPIFraction were recorded by summing each rank's profile
// rows in call-name order, the order the profiler now sums in; before
// that they depended on map iteration order.
func TestLuleshGoldenBits(t *testing.T) {
	golden := []struct {
		overlap          bool
		machine          string
		ranks            int
		elapsed, mpiTime uint64
		mpiFraction      uint64
	}{
		{false, "probe-opteron", 1, 0x3f39ac8cda990926, 0x3f0c51e7a0b005b2, 0x3fc1a6204209f761},
		{false, "probe-opteron", 2, 0x3f3f15dc67ec7dfe, 0x3f31d1c241c48d18, 0x3fd257f9fd36ac0c},
		{false, "probe-opteron", 4, 0x3f43cb80aff04c56, 0x3f51cb205fed0718, 0x3fdcc3b4898d7f3a},
		{false, "probe-opteron", 8, 0x3f480f0aacab6d47, 0x3f6ab71e137f1346, 0x3fe1c446cf22ddeb},
		{false, "probe-opteron", 27, 0x3f519443085f0fbf, 0x3f94f8510bef4042, 0x3fe69ee7e083ee4d},
		{false, "ec2-m4", 1, 0x3f5326437c28ab45, 0x3f51b24bb3cf418e, 0x3fed926ae4567b68},
		{false, "ec2-m4", 2, 0x3f5c2930dee9ad77, 0x3f6a9bfa7c9ce503, 0x3fee3ca2fdef85c4},
		{false, "ec2-m4", 4, 0x3f6a6355e239424e, 0x3f8a942cd6aa3db0, 0x3ff01d9cfc6413a6},
		{false, "ec2-m4", 8, 0x3f735ca2f36bc142, 0x3fa3f3087e9a46aa, 0x3ff07c48660372a4},
		{false, "ec2-m4", 27, 0x3f80e502cb84c672, 0x3fcdd66f032ad897, 0x3ff0beccead100a3},
		{false, "ec2-m4+load", 1, 0x3f53c0b9be7c35c9, 0x3f51b24bb3cf418f, 0x3fecab2c399eb952},
		{false, "ec2-m4+load", 2, 0x3f5c980273cc8ff2, 0x3f6abe26a2dbbee8, 0x3fededb17c2aa9fb},
		{false, "ec2-m4+load", 4, 0x3f6c22834ce4da92, 0x3f8be5e92817d9dd, 0x3fefbb1282affe0a},
		{false, "ec2-m4+load", 8, 0x3f74537aa2b249d8, 0x3fa4bfb19317e29a, 0x3ff0552ecd5dc449},
		{false, "ec2-m4+load", 27, 0x3f8143c1ed099105, 0x3fce5a9d680caa7b, 0x3ff0ab7ef010a561},
		{true, "probe-opteron", 1, 0x3f39ac8cda990926, 0x3f0c51e7a0b005b2, 0x3fc1a6204209f761},
		{true, "probe-opteron", 2, 0x3f3d5fc7159fb5e4, 0x3f258a8191c0bd42, 0x3fc777782a2896df},
		{true, "probe-opteron", 4, 0x3f42089b0e6cebb7, 0x3f45715b1309ca73, 0x3fd30654ec8522e8},
		{true, "probe-opteron", 8, 0x3f456f5fd28a482d, 0x3f601ac2ee136f24, 0x3fd80acb6b086e5f},
		{true, "probe-opteron", 27, 0x3f4de6398ede9f2b, 0x3f8b042600cc116a, 0x3fe1226909fb1062},
		{true, "ec2-m4", 1, 0x3f5326437c28ab45, 0x3f51b24bb3cf418e, 0x3fed926ae4567b68},
		{true, "ec2-m4", 2, 0x3f583079609c228f, 0x3f6642ffdad71968, 0x3fed732f2a304e22},
		{true, "ec2-m4", 4, 0x3f64213ad9e1d132, 0x3f8408e978a9105e, 0x3fefd9579f38b788},
		{true, "ec2-m4", 8, 0x3f6c2ad8c530fbf3, 0x3f9cde0932370628, 0x3ff065c90efed21f},
		{true, "ec2-m4", 27, 0x3f762d15c81c8a67, 0x3fc3c354dcb5c41c, 0x3ff0e645d209d845},
		{true, "ec2-m4+load", 1, 0x3f53c0b9be7c35c9, 0x3f51b24bb3cf418f, 0x3fecab2c399eb952},
		{true, "ec2-m4+load", 2, 0x3f5838ba4ec52dec, 0x3f65f51f0100734f, 0x3fed0242df3bc8ca},
		{true, "ec2-m4+load", 4, 0x3f645dd2351c5743, 0x3f83c42275215ee4, 0x3fef0e86c4255d92},
		{true, "ec2-m4+load", 8, 0x3f6c96806fab7057, 0x3f9cd9e84b27fccd, 0x3ff025b9b69faec3},
		{true, "ec2-m4+load", 27, 0x3f768586add416bf, 0x3fc3e8c2f519c6fa, 0x3ff0c36cd2f14bad},
	}
	for _, g := range golden {
		machine, loaded := g.machine, false
		if machine == "ec2-m4+load" {
			machine, loaded = "ec2-m4", true
		}
		spec := DefaultLuleshSpec()
		spec.Iterations = 4
		spec.ProblemSize = 10
		spec.Overlap = g.overlap
		res, err := RunLulesh(luleshCase(t, machine, loaded, g.ranks), spec)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{math.Float64bits(res.Elapsed), math.Float64bits(res.MPITime), math.Float64bits(res.MPIFraction)}
		if want := [3]uint64{g.elapsed, g.mpiTime, g.mpiFraction}; got != want {
			t.Errorf("overlap=%v %s ranks=%d: (elapsed, mpi time, mpi fraction) bits = %#x, want %#x",
				g.overlap, g.machine, g.ranks, got, want)
		}
	}
}
