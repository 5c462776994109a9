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
// that they depended on map iteration order. They were re-recorded when
// the profile began after the opening barrier rather than before it:
// the barrier's wait had counted as MPI time but not as elapsed time,
// which pushed the fraction above one.
func TestLuleshGoldenBits(t *testing.T) {
	golden := []struct {
		overlap          bool
		machine          string
		ranks            int
		elapsed, mpiTime uint64
		mpiFraction      uint64
	}{
		{false, "probe-opteron", 1, 0x3f39ac8cda990926, 0x3f092c99328de928, 0x3fbf60857b79265c},
		{false, "probe-opteron", 2, 0x3f3f15dc67ec7dfe, 0x3f31086ea63c05f5, 0x3fd188b9f6f990c9},
		{false, "probe-opteron", 4, 0x3f43cb80aff04c56, 0x3f5101ccc4647ff5, 0x3fdb7e3ee0a0442b},
		{false, "probe-opteron", 8, 0x3f480f0aacab6d47, 0x3f698920aa324891, 0x3fe0fb71128389ec},
		{false, "probe-opteron", 27, 0x3f519443085f0fbf, 0x3f9423fadde541ba, 0x3fe5b9daab39f796},
		{false, "ec2-m4", 1, 0x3f5326437c28ab45, 0x3f4f75f55df3df6e, 0x3fea4957d617e24b},
		{false, "ec2-m4", 2, 0x3f5c2930dee9ad77, 0x3f68a4a977c7932c, 0x3fec00b457889c55},
		{false, "ec2-m4", 4, 0x3f6a6355e239424e, 0x3f889cdbd1d4ebd9, 0x3fedd8de7e124615},
		{false, "ec2-m4", 8, 0x3f735ca2f36bc142, 0x3fa2798bbafa4948, 0x3fee88adf6f0b055},
		{false, "ec2-m4", 27, 0x3f80e502cb84c672, 0x3fcbc3979011dc48, 0x3fef29c4d0860b00},
		{false, "ec2-m4+load", 1, 0x3f53c0b9be7c35c9, 0x3f4f75f55df3df70, 0x3fe97bca264639c9},
		{false, "ec2-m4+load", 2, 0x3f5c980273cc8ff2, 0x3f68c6d59e066d12, 0x3febba6b6d6e86dd},
		{false, "ec2-m4+load", 4, 0x3f6c22834ce4da92, 0x3f89ee9823428806, 0x3fed7e9c1babeb2b},
		{false, "ec2-m4+load", 8, 0x3f74537aa2b249d8, 0x3fa34634cf77e538, 0x3fee58135210b210},
		{false, "ec2-m4+load", 27, 0x3f8143c1ed099105, 0x3fcc47c5f4f3ae29, 0x3fef0feeb7090ade},
		{true, "probe-opteron", 1, 0x3f39ac8cda990926, 0x3f092c99328de928, 0x3fbf60857b79265c},
		{true, "probe-opteron", 2, 0x3f3d5fc7159fb5e4, 0x3f23f7da5aafaefd, 0x3fc5c0d24ba7f0c4},
		{true, "probe-opteron", 4, 0x3f42089b0e6cebb7, 0x3f43deb3dbf8bc2e, 0x3fd1a115c09d1a52},
		{true, "probe-opteron", 8, 0x3f456f5fd28a482d, 0x3f5dd98b098d48e0, 0x3fd647f59f4fba96},
		{true, "probe-opteron", 27, 0x3f4de6398ede9f2b, 0x3f895b79a4b8145c, 0x3fe015122741e584},
		{true, "ec2-m4", 1, 0x3f5326437c28ab45, 0x3f4f75f55df3df6e, 0x3fea4957d617e24b},
		{true, "ec2-m4", 2, 0x3f583079609c228f, 0x3f644baed601c791, 0x3fead9594c33b1e5},
		{true, "ec2-m4", 4, 0x3f64213ad9e1d132, 0x3f82119873d3be88, 0x3fecb93a93647a36},
		{true, "ec2-m4", 8, 0x3f6c2ad8c530fbf3, 0x3f99eb0faaf70b65, 0x3fed71de932ac5bc},
		{true, "ec2-m4", 27, 0x3f762d15c81c8a67, 0x3fc1b07d699cc7cb, 0x3fee40b12e6fe55c},
		{true, "ec2-m4+load", 1, 0x3f53c0b9be7c35c9, 0x3f4f75f55df3df70, 0x3fe97bca264639c9},
		{true, "ec2-m4+load", 2, 0x3f5838ba4ec52dec, 0x3f63fdcdfc2b2178, 0x3fea694fe44a69ca},
		{true, "ec2-m4+load", 4, 0x3f645dd2351c5743, 0x3f81ccd1704c0d0c, 0x3febf7b618198ffe},
		{true, "ec2-m4+load", 8, 0x3f6c96806fab7057, 0x3f99e6eec3e8020b, 0x3fecfe5dc680dd4d},
		{true, "ec2-m4+load", 27, 0x3f768586add416bf, 0x3fc1d5eb8200caaa, 0x3fee08ec47131358},
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
		if res.MPIFraction < 0 || res.MPIFraction > 1 {
			t.Errorf("overlap=%v %s ranks=%d: mpi fraction %v outside [0, 1]", g.overlap, g.machine, g.ranks, res.MPIFraction)
		}
	}
}
