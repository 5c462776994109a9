package popper

import (
	"testing"

	"popper/internal/aver"
	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/mpi"
	"popper/internal/table"
	"popper/internal/workload"
)

// The columnar table rewrite is allocation-bounded: grouping, view
// chains and Aver validation allocate per *group* (or per view), never
// per row. The row-oriented implementation allocated hundreds of
// thousands of times on these workloads (≈300k for GroupBy, ≈400k for
// Aver validation at 100k rows); the bounds below leave generous
// headroom over the measured columnar counts (≈66, ≈20 and ≈330) while
// still failing loudly if a per-row allocation sneaks back in.
func TestAllocationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	tbl := benchResultsTable(20000)

	check := func(name string, got, bound float64) {
		t.Helper()
		if got > bound {
			t.Errorf("%s: %v allocs/op, want <= %v — a per-row allocation crept back in", name, got, bound)
		}
	}

	check("GroupBy", testing.AllocsPerRun(3, func() {
		out, err := tbl.GroupBy(
			[]string{"workload", "machine"},
			table.Agg{Col: "time", Op: "mean"},
			table.Agg{Col: "time", Op: "max"},
		)
		if err != nil || out.Len() != 12 {
			t.Fatalf("groupby: %v rows, err=%v", out.Len(), err)
		}
	}), 500)

	check("FilterChain", testing.AllocsPerRun(3, func() {
		v, err := tbl.Where("machine", table.String("ec2-m4"))
		if err != nil {
			t.Fatal(err)
		}
		v = v.Filter(func(r int) bool { return v.MustCell(r, "nodes").Num >= 2 })
		v, err = v.Select("nodes", "time")
		if err != nil {
			t.Fatal(err)
		}
		if err := v.SortBy("nodes", "time"); err != nil {
			t.Fatal(err)
		}
	}), 100)

	ev := aver.NewEvaluator()
	asserts := `when workload=* and machine=* expect sublinear(nodes,time) and time > 0`
	check("AverValidate", testing.AllocsPerRun(3, func() {
		results, err := ev.CheckAll(asserts, tbl)
		if err != nil || !aver.AllPassed(results) {
			t.Fatalf("validate: passed=%v err=%v", aver.AllPassed(results), err)
		}
	}), 1500)
}

// The scale-out data path holds the same bar: a cached read of a warmed
// multi-block file allocates only the caller's output buffer — never per
// block — and a vectored Getv over preallocated spans allocates nothing.
// (Measured: 2 allocs for the 64-block cached read, 0 for Getv.)
func TestDataPathAllocationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	c := cluster.New(42)
	nodes, err := c.Provision("cloudlab-c220g1", 2)
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
	fs, err := gassyfs.Mount(world, gassyfs.Options{CacheBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	big := make([]byte, blocks*fs.BlockSize())
	for i := range big {
		big[i] = byte(i)
	}
	if err := cl.WriteFile("/big", big); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/big"); err != nil { // warm the cache
		t.Fatal(err)
	}

	check := func(name string, got, bound float64) {
		t.Helper()
		if got > bound {
			t.Errorf("%s: %v allocs/op, want <= %v — a per-block allocation crept back in", name, got, bound)
		}
	}

	check("CachedReadFile", testing.AllocsPerRun(3, func() {
		data, err := cl.ReadFile("/big")
		if err != nil || len(data) != len(big) {
			t.Fatalf("read: %d bytes, err=%v", len(data), err)
		}
	}), 16)

	bs := int64(8 << 10)
	addrs := make([]gasnet.Addr, blocks)
	out := make([]byte, int64(blocks)*bs)
	bufs := make([][]byte, blocks)
	for i := range addrs {
		addrs[i] = gasnet.Addr{Rank: 1, Offset: int64(i) * bs}
		bufs[i] = out[int64(i)*bs : int64(i+1)*bs]
	}
	check("VectoredGetv", testing.AllocsPerRun(3, func() {
		if _, err := world.Getv(0, addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}), 4)
}

// The simulated message path holds the same bar: a LULESH-proxy run
// allocates per run, never per message. The blocking path's allocations
// do not grow with Iterations, and the Overlap path's grow by at most its
// request handles. (Measured at 8 ranks: 1 alloc per blocking run, its
// halo pair list, at 10 and 100 iterations, and 487 and 4807 on
// Overlap, exactly its 48 handles per iteration apart. The map-and-append message path took the
// blocking path from 288 to 2448 and Overlap from 828 to 7848 over the
// same range.)
func TestSimulatorAllocationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	allocs := func(overlap bool, iterations int) float64 {
		nodes, err := cluster.New(42).Provision("probe-opteron", 8)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := mpi.NewComm(nodes, cluster.NewNetwork())
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.DefaultLuleshSpec()
		spec.ProblemSize = 10
		spec.Iterations = iterations
		spec.Overlap = overlap
		return testing.AllocsPerRun(3, func() {
			if _, err := workload.RunLulesh(cm, spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if lo, hi := allocs(false, 10), allocs(false, 100); hi > lo {
		t.Errorf("blocking: %v allocs/op at 100 iterations, %v at 10 — a per-message allocation crept back in", hi, lo)
	}
	// 8 ranks form a 2x2x2 grid: 12 neighbour pairs, each posting two
	// Isends and two Irecvs per iteration.
	const handles = 12 * 4
	if lo, hi := allocs(true, 10), allocs(true, 100); hi-lo > 90*handles {
		t.Errorf("overlap: %v allocs/op at 100 iterations, %v at 10 — more than the %d request handles per iteration",
			hi, lo, handles)
	}
}
