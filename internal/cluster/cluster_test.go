package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestProfileCatalog(t *testing.T) {
	names := ProfileNames()
	if len(names) < 5 {
		t.Fatalf("profiles = %v", names)
	}
	for _, n := range names {
		p, err := Profile(n)
		if err != nil {
			t.Fatalf("Profile(%s): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("builtin profile %s invalid: %v", n, err)
		}
	}
	if _, err := Profile("pdp-11"); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestProfileCopyIsIsolated(t *testing.T) {
	a := MustProfile("xeon-2005")
	a.ClockHz = 1
	b := MustProfile("xeon-2005")
	if b.ClockHz == 1 {
		t.Fatal("Profile must return a copy")
	}
}

func TestValidate(t *testing.T) {
	bad := []*MachineProfile{
		{},
		{Name: "x", Cores: 0, ClockHz: 1e9, IPC: 1, VectorWidth: 1, MemBWBps: 1e9, NICBWBps: 1e9},
		{Name: "x", Cores: 1, ClockHz: -1, IPC: 1, VectorWidth: 1, MemBWBps: 1e9, NICBWBps: 1e9},
		{Name: "x", Cores: 1, ClockHz: 1e9, IPC: 1, VectorWidth: 1, MemBWBps: 0, NICBWBps: 1e9},
		{Name: "x", Cores: 1, ClockHz: 1e9, IPC: 1, VectorWidth: 1, MemBWBps: 1e9, NICBWBps: 0},
		{Name: "x", Cores: 1, ClockHz: 1e9, IPC: 1, VectorWidth: 1, MemBWBps: 1e9, NICBWBps: 1e9, JitterSigma: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, p)
		}
	}
}

func TestWorkDuration(t *testing.T) {
	p := &MachineProfile{
		Name: "unit", Cores: 1, ClockHz: 1e9, IPC: 1, VectorWidth: 4,
		MemBWBps: 1e9, MemLatS: 100e-9, BranchCostS: 10e-9,
		SyscallS: 1e-6, DiskBWBps: 1e8, DiskLatS: 1e-3,
		NICLatS: 1e-6, NICBWBps: 1e9,
	}
	cases := []struct {
		w    Work
		want float64
	}{
		{Work{CPUOps: 1e9}, 1.0},
		{Work{VecOps: 4e9}, 1.0},
		{Work{MemBytes: 1e9}, 1.0},
		{Work{RandAccess: 1e7}, 1.0},
		{Work{BranchMiss: 1e8}, 1.0},
		{Work{Syscalls: 1e6}, 1.0},
		{Work{DiskBytes: 1e8}, 1.0},
		{Work{DiskOps: 1e3}, 1.0},
		{Work{CPUOps: 1e9, MemBytes: 1e9}, 2.0},
	}
	for i, c := range cases {
		if got := p.Duration(c.w); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: duration = %v, want %v", i, got, c.want)
		}
	}
}

func TestWorkAddScale(t *testing.T) {
	w := Work{CPUOps: 1, MemBytes: 2}.Add(Work{CPUOps: 3, Syscalls: 4})
	if w.CPUOps != 4 || w.MemBytes != 2 || w.Syscalls != 4 {
		t.Fatalf("add = %+v", w)
	}
	s := w.Scale(2)
	if s.CPUOps != 8 || s.MemBytes != 4 || s.Syscalls != 8 {
		t.Fatalf("scale = %+v", s)
	}
}

func TestProvisionAndRelease(t *testing.T) {
	c := New(1)
	nodes, err := c.Provision("xeon-2005", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	ids := map[string]bool{}
	for _, n := range nodes {
		if ids[n.ID()] {
			t.Fatalf("duplicate node id %s", n.ID())
		}
		ids[n.ID()] = true
		if !strings.HasPrefix(n.ID(), "xeon-2005-") {
			t.Fatalf("id = %s", n.ID())
		}
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("leased = %d", got)
	}
	c.Release(nodes[0])
	if got := len(c.Nodes()); got != 2 {
		t.Fatalf("after release = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("using a released node should panic")
		}
	}()
	nodes[0].Run(Work{CPUOps: 1})
}

func TestProvisionErrors(t *testing.T) {
	c := New(1)
	if _, err := c.Provision("nope", 1); err == nil {
		t.Fatal("unknown profile should fail")
	}
	if _, err := c.Provision("xeon-2005", 0); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := c.ProvisionProfile(&MachineProfile{}, 1); err == nil {
		t.Fatal("invalid profile should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		c := New(42)
		nodes, _ := c.Provision("ec2-m4", 2)
		var out []float64
		for i := 0; i < 20; i++ {
			out = append(out, nodes[i%2].Run(Work{CPUOps: 1e8}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesJitter(t *testing.T) {
	sample := func(seed int64) float64 {
		c := New(seed)
		n, _ := c.Provision("ec2-m4", 1)
		return n[0].Run(Work{CPUOps: 1e9})
	}
	if sample(1) == sample(2) {
		t.Fatal("different seeds should give different jitter")
	}
}

func TestClockAdvances(t *testing.T) {
	c := New(7)
	nodes, _ := c.Provision("cloudlab-c220g1", 1)
	n := nodes[0]
	if n.Now() != 0 {
		t.Fatalf("initial clock = %v", n.Now())
	}
	d := n.Run(Work{CPUOps: 1e9})
	if d <= 0 || n.Now() != d {
		t.Fatalf("d = %v, clock = %v", d, n.Now())
	}
	n.AdvanceTo(d - 1) // never backwards
	if n.Now() != d {
		t.Fatal("AdvanceTo moved clock backwards")
	}
	n.Advance(1)
	if math.Abs(n.Now()-(d+1)) > 1e-12 {
		t.Fatalf("clock = %v", n.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance should panic")
		}
	}()
	n.Advance(-1)
}

func TestBackgroundLoadSlowsDown(t *testing.T) {
	c := New(3)
	nodes, _ := c.Provision("probe-opteron", 2)
	quiet, noisy := nodes[0], nodes[1]
	if err := noisy.SetBackgroundLoad(0.5); err != nil {
		t.Fatal(err)
	}
	w := Work{CPUOps: 1e9}
	dq := quiet.Run(w)
	dn := noisy.Run(w)
	if dn < dq*1.8 {
		t.Fatalf("noisy %v should be ~2x quiet %v", dn, dq)
	}
	if err := noisy.SetBackgroundLoad(1.5); err == nil {
		t.Fatal("load > 0.95 should fail")
	}
	if err := noisy.SetBackgroundLoad(-0.1); err == nil {
		t.Fatal("negative load should fail")
	}
}

func TestRunParallelAmdahl(t *testing.T) {
	c := New(5)
	nodes, _ := c.Provision("cloudlab-c220g1", 1)
	n := nodes[0]
	w := Work{CPUOps: 1e10}
	serial := n.Profile().Duration(w)
	elapsed := n.RunParallel(w, 16, 0) // perfectly parallel
	if ratio := serial / elapsed; ratio < 14 || ratio > 18 {
		t.Fatalf("16-way speedup = %v", ratio)
	}
	elapsed = n.RunParallel(w, 16, 0.5) // half serial: max 2x
	if ratio := serial / elapsed; ratio > 2.0 {
		t.Fatalf("speedup with 50%% serial = %v, must be < 2", ratio)
	}
	// thread count clamped to cores, floor of 1
	e1 := n.RunParallel(w, 0, 0)
	if e1 < serial*0.9 {
		t.Fatalf("threads=0 should clamp to 1: %v vs %v", e1, serial)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := New(9)
	nodes, _ := c.Provision("xeon-2005", 1)
	n := nodes[0]
	ram := n.Profile().RAMBytes
	if err := n.Alloc(ram / 2); err != nil {
		t.Fatal(err)
	}
	if err := n.Alloc(ram); err == nil {
		t.Fatal("over-allocation should fail")
	}
	if n.UsedBytes() != ram/2 {
		t.Fatalf("used = %d", n.UsedBytes())
	}
	if err := n.Alloc(-1); err == nil {
		t.Fatal("negative alloc should fail")
	}
}

func TestFacts(t *testing.T) {
	c := New(11)
	nodes, _ := c.Provision("cloudlab-c220g1", 1)
	f := nodes[0].Facts()
	if f["machine"] != "cloudlab-c220g1" || f["cores"] != "16" {
		t.Fatalf("facts = %v", f)
	}
	if f["year"] != "2015" {
		t.Fatalf("year = %v", f["year"])
	}
}

func TestNetworkTransferTime(t *testing.T) {
	c := New(13)
	nodes, _ := c.Provision("cloudlab-c220g1", 2)
	net := NewNetwork()
	a, b := nodes[0], nodes[1]
	p := a.Profile()

	// tiny message: dominated by latency
	small := net.TransferTime(a, b, 1)
	if math.Abs(small-2*p.NICLatS) > p.NICLatS {
		t.Fatalf("small transfer = %v, want ~%v", small, 2*p.NICLatS)
	}
	// large message: dominated by bandwidth
	large := net.TransferTime(a, b, 1<<30)
	wantBW := float64(1<<30) / p.NICBWBps
	if math.Abs(large-wantBW)/wantBW > 0.01 {
		t.Fatalf("large transfer = %v, want ~%v", large, wantBW)
	}
	// loopback goes through memory, much faster than NIC
	loop := net.TransferTime(a, a, 1<<30)
	if loop >= large {
		t.Fatalf("loopback %v should beat network %v", loop, large)
	}
}

func TestNetworkHeterogeneousBottleneck(t *testing.T) {
	c := New(17)
	slow, _ := c.Provision("xeon-2005", 1)      // 1 GbE
	fast, _ := c.Provision("cloudlab-c8220", 1) // 40 GbE
	net := NewNetwork()
	tt := net.TransferTime(slow[0], fast[0], 1<<30)
	wantBW := float64(1<<30) / slow[0].Profile().NICBWBps
	if math.Abs(tt-wantBW)/wantBW > 0.01 {
		t.Fatalf("mixed transfer should bottleneck on slow NIC: %v vs %v", tt, wantBW)
	}
}

func TestSendAdvancesBothClocks(t *testing.T) {
	c := New(19)
	nodes, _ := c.Provision("cloudlab-c220g1", 2)
	net := NewNetwork()
	a, b := nodes[0], nodes[1]
	b.Advance(5) // receiver is ahead
	arrival := net.Send(a, b, 1<<20)
	if a.Now() <= 0 {
		t.Fatal("sender clock did not advance")
	}
	if b.Now() != 5 {
		t.Fatalf("receiver ahead should stay at 5, got %v", b.Now())
	}
	if arrival != a.Now() {
		t.Fatalf("arrival %v != sender clock %v", arrival, a.Now())
	}
	// now sender is behind receiver; send again, receiver unchanged
	a2 := net.Send(a, b, 1<<20)
	if b.Now() != 5 && b.Now() != a2 {
		t.Fatalf("receiver clock = %v", b.Now())
	}
}

func TestRDMAOneSided(t *testing.T) {
	c := New(23)
	nodes, _ := c.Provision("probe-opteron", 2)
	net := NewNetwork()
	caller, target := nodes[0], nodes[1]
	before := target.Now()
	d := net.RDMARead(caller, target, 1<<20)
	if d <= 0 {
		t.Fatalf("rdma read = %v", d)
	}
	if target.Now() != before {
		t.Fatal("one-sided read must not advance target clock")
	}
	if caller.Now() != d {
		t.Fatalf("caller clock = %v, want %v", caller.Now(), d)
	}
	dw := net.RDMAWrite(caller, target, 1<<20)
	if dw <= 0 {
		t.Fatal("rdma write should cost time")
	}
	// local rdma is memory-speed
	dl := net.RDMARead(caller, caller, 1<<20)
	if dl >= d {
		t.Fatalf("local access %v should beat remote %v", dl, d)
	}
}

func TestBarrier(t *testing.T) {
	c := New(29)
	nodes, _ := c.Provision("cloudlab-c220g1", 4)
	nodes[2].Advance(10)
	end := NewNetwork().Barrier(nodes)
	if end < 10 {
		t.Fatalf("barrier end = %v", end)
	}
	for _, n := range nodes {
		if n.Now() != end {
			t.Fatalf("node %s at %v, want %v", n.ID(), n.Now(), end)
		}
	}
	if MaxClock(nodes) != end {
		t.Fatalf("MaxClock = %v", MaxClock(nodes))
	}
	if got := NewNetwork().Barrier(nil); got != 0 {
		t.Fatalf("empty barrier = %v", got)
	}
}

func TestNewerMachineIsFaster(t *testing.T) {
	old := MustProfile("xeon-2005")
	new_ := MustProfile("cloudlab-c220g1")
	w := Work{CPUOps: 1e9, MemBytes: 1e8, BranchMiss: 1e6}
	if old.Duration(w) <= new_.Duration(w) {
		t.Fatal("2015 machine should beat 2005 machine on mixed work")
	}
}

// Property: Duration is additive and scales linearly.
func TestQuickDurationLinear(t *testing.T) {
	p := MustProfile("cloudlab-c220g1")
	f := func(aOps, bOps uint32, k uint8) bool {
		wa := Work{CPUOps: float64(aOps), MemBytes: float64(bOps)}
		wb := Work{BranchMiss: float64(bOps % 1000), Syscalls: float64(aOps % 1000)}
		sum := p.Duration(wa.Add(wb))
		parts := p.Duration(wa) + p.Duration(wb)
		if math.Abs(sum-parts) > 1e-9*(1+parts) {
			return false
		}
		kk := float64(k%7 + 1)
		scaled := p.Duration(wa.Scale(kk))
		if math.Abs(scaled-kk*p.Duration(wa)) > 1e-9*(1+scaled) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: node clock is monotone under any Run sequence.
func TestQuickClockMonotone(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(99)
		nodes, _ := c.Provision("ec2-m4", 1)
		n := nodes[0]
		prev := 0.0
		for _, o := range ops {
			n.Run(Work{CPUOps: float64(o)})
			if n.Now() < prev {
				return false
			}
			prev = n.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The network holds no state: concurrent sends each pay exactly what a
// lone transfer pays.
func TestNetworkSendIsStateless(t *testing.T) {
	c := New(41)
	nodes, _ := c.Provision("cloudlab-c220g1", 16)
	net := NewNetwork()
	lone := net.TransferTime(nodes[0], nodes[1], 1<<20)
	if lone <= 0 {
		t.Fatal("lone transfer must cost time")
	}
	var wg sync.WaitGroup
	for i := 0; i < len(nodes); i += 2 {
		wg.Add(1)
		go func(src, dst *Node) {
			defer wg.Done()
			net.Send(src, dst, 1<<20)
		}(nodes[i], nodes[i+1])
	}
	wg.Wait()
	for _, n := range nodes {
		if n.Now() != lone {
			t.Fatalf("%s at %v after a concurrent send, want the lone cost %v", n.ID(), n.Now(), lone)
		}
	}
}

// The clock contract: Now and MaxClock take no lock while each node has
// one writer at a time. In phase 1 readers poll every node while one
// writer per node steps its lease through a seeded sequence; each
// reader must see every clock only move forward, and the final clocks
// must equal a serial replay of the same sequences. Phase 2 has many
// locked writers share one free node with exactly representable steps,
// where a lost update would show as a short total.
func TestClockConcurrentReadersAndWriters(t *testing.T) {
	// units is large enough that an unlocked Advance loses updates.
	const writers, steps, units = 4, 2000, 100000
	apply := func(l *Lease, i, step int) {
		w := Work{CPUOps: float64(1000 + 37*step)}
		d := MustProfile("ec2-m4").Duration(w)
		switch (i + step) % 4 {
		case 0:
			l.RunThenAdvance(d, 0)
		case 1:
			l.AdvanceTo(l.Now() + 2e-6)
		case 2:
			l.RunThenAdvance(d, 3e-6)
		case 3:
			l.AdvanceToThenRun(l.Now()+1e-6, d)
		}
	}
	lease := func(nodes []*Node) []*Lease {
		leases, err := LeaseAll(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return leases
	}
	replay, _ := New(47).Provision("ec2-m4", writers)
	for i, l := range lease(replay) {
		for step := 0; step < steps; step++ {
			apply(l, i, step)
		}
	}

	nodes, _ := New(47).Provision("ec2-m4", writers)
	leases := lease(nodes)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make([]float64, len(nodes))
			lastMax := 0.0
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, n := range nodes {
					now := n.Now()
					if now < last[i] {
						t.Errorf("%s clock went back: %v after %v", n.ID(), now, last[i])
						return
					}
					last[i] = now
				}
				m := MaxClock(nodes)
				if m < lastMax {
					t.Errorf("MaxClock went back: %v after %v", m, lastMax)
					return
				}
				lastMax = m
			}
		}()
	}
	var ws sync.WaitGroup
	for i, l := range leases {
		ws.Add(1)
		go func(i int, l *Lease) {
			defer ws.Done()
			for step := 0; step < steps; step++ {
				apply(l, i, step)
			}
		}(i, l)
	}
	ws.Wait()
	close(done)
	readers.Wait()
	for i, n := range nodes {
		if n.Now() != replay[i].Now() {
			t.Fatalf("%s ended at %v, serial replay at %v", n.ID(), n.Now(), replay[i].Now())
		}
	}

	free, _ := New(47).Provision("ec2-m4", 1)
	shared := free[0]
	var sw sync.WaitGroup
	for w := 0; w < writers; w++ {
		sw.Add(1)
		go func() {
			defer sw.Done()
			for step := 0; step < units; step++ {
				shared.Advance(1)
			}
		}()
	}
	sw.Wait()
	if want := float64(writers * units); shared.Now() != want {
		t.Fatalf("shared clock = %v after %d concurrent unit advances, want %v",
			shared.Now(), writers*units, want)
	}
}

// The leased message steps, given the precomputed nominal cost of the
// work, are the two locked calls they replace, bit for bit: same clocks,
// same jitter draws, on loaded and unloaded nodes, with the arrival both
// ahead of and behind the receiver.
func TestFusedMessageStepsMatchTwoCalls(t *testing.T) {
	w := Work{CPUOps: 2e4}
	for _, load := range []float64{0, 0.4} {
		fused, _ := New(53).Provision("ec2-m4", 2)
		split, _ := New(53).Provision("ec2-m4", 2)
		for i := range fused {
			fused[i].SetBackgroundLoad(load)
			split[i].SetBackgroundLoad(load)
		}
		leases, err := LeaseAll(fused)
		if err != nil {
			t.Fatal(err)
		}
		d := fused[0].Profile().Duration(w)
		for step := 0; step < 200; step++ {
			wire := float64(step%5) * 3e-6
			start, arrival := leases[0].RunThenAdvance(d, wire)
			before := split[0].Now()
			split[0].Run(w)
			split[0].Advance(wire)
			if start != before || arrival != split[0].Now() || arrival != fused[0].Now() {
				t.Fatalf("load %v step %d: RunThenAdvance = (%v, %v), Run+Advance = (%v, %v)",
					load, step, start, arrival, before, split[0].Now())
			}
			if step%3 == 0 {
				arrival = 0 // the receiver is already past it
			}
			start, end := leases[1].AdvanceToThenRun(arrival, d)
			before = split[1].Now()
			split[1].AdvanceTo(arrival)
			split[1].Run(w)
			if start != before || end != split[1].Now() || end != fused[1].Now() {
				t.Fatalf("load %v step %d: AdvanceToThenRun = (%v, %v), AdvanceTo+Run = (%v, %v)",
					load, step, start, end, before, split[1].Now())
			}
		}
	}
}

// Exchange is the four message steps it fuses, bit for bit: each
// side's RunThenAdvance, then each side's AdvanceToThenRun with the
// other's arrival. Twin pairs run 200 exchanges each way, on unloaded
// and loaded nodes and against a peer of another profile, with one side
// or the other pushed ahead now and then, so each side's arrival lands
// both before and after the other's clock. Both clocks, the four
// elapsed times and each node's next draw must match.
func TestFusedExchangeMatchesFourSteps(t *testing.T) {
	w := Work{CPUOps: 2e4}
	pair := func(profiles [2]string, loads [2]float64) []*Node {
		c := New(59)
		var nodes []*Node
		for i, p := range profiles {
			ns, err := c.Provision(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ns[0].SetBackgroundLoad(loads[i]); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, ns[0])
		}
		return nodes
	}
	lease := func(nodes []*Node) []*Lease {
		leases, err := LeaseAll(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return leases
	}
	bits := math.Float64bits
	for _, tc := range []struct {
		profiles [2]string
		loads    [2]float64
	}{
		{[2]string{"ec2-m4", "ec2-m4"}, [2]float64{0, 0}},
		{[2]string{"ec2-m4", "ec2-m4"}, [2]float64{0.4, 0.4}},
		{[2]string{"ec2-m4", "probe-opteron"}, [2]float64{0.4, 0}},
		{[2]string{"probe-opteron", "ec2-m4"}, [2]float64{0, 0.3}},
	} {
		fusedNodes, splitNodes := pair(tc.profiles, tc.loads), pair(tc.profiles, tc.loads)
		fused, split := lease(fusedNodes), lease(splitNodes)
		d := [2]float64{fusedNodes[0].Profile().Duration(w), fusedNodes[1].Profile().Duration(w)}
		var late [2]int // [0]: node 0's message lands after node 1's clock; [1]: the reverse
		for step := 0; step < 200; step++ {
			if k := step % 3; k < 2 {
				ahead := fused[k].Now() + float64(step%7)*2e-6
				fused[k].AdvanceTo(ahead)
				split[k].AdvanceTo(ahead)
			}
			wire := float64(step%5) * 3e-6
			send, recv, peerSend, peerRecv := fused[0].Exchange(fused[1], d[0], d[1], wire)

			s0, arr0 := split[0].RunThenAdvance(d[0], wire)
			s1, arr1 := split[1].RunThenAdvance(d[1], wire)
			r1, end1 := split[1].AdvanceToThenRun(arr0, d[1])
			r0, end0 := split[0].AdvanceToThenRun(arr1, d[0])
			if arr0 > arr1 {
				late[0]++
			} else if arr1 > arr0 {
				late[1]++
			}
			got := [6]float64{fusedNodes[0].Now(), fusedNodes[1].Now(), send, recv, peerSend, peerRecv}
			want := [6]float64{end0, end1, arr0 - s0, end0 - r0, arr1 - s1, end1 - r1}
			for i := range got {
				if bits(got[i]) != bits(want[i]) {
					t.Fatalf("%v loads %v step %d: Exchange gives (clocks, elapsed) %v, the four steps %v",
						tc.profiles, tc.loads, step, got, want)
				}
			}
		}
		if late[0] == 0 || late[1] == 0 {
			t.Fatalf("%v loads %v: late arrivals %v, want some each way", tc.profiles, tc.loads, late)
		}
		for i := range fused {
			_, f := fused[i].RunThenAdvance(d[i], 0)
			_, s := split[i].RunThenAdvance(d[i], 0)
			if bits(f) != bits(s) {
				t.Fatalf("%v loads %v: node %d's next draw ends at %v after Exchange, %v after the four steps",
					tc.profiles, tc.loads, i, f, s)
			}
		}
	}
}

// Exchange refuses a node exchanging with itself.
func TestExchangeWithItselfPanics(t *testing.T) {
	nodes, _ := New(73).Provision("ec2-m4", 1)
	leases, err := LeaseAll(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exchanging with itself") {
			t.Fatalf("recovered %v, want the self-exchange panic", r)
		}
	}()
	leases[0].Exchange(leases[0], 1e-6, 1e-6, 1e-6)
}

// Every Node writer of a clock, load or jitter RNG refuses a released
// node and a leased one, whose only writer is its lease; the refused
// write changes nothing and leaves the node's lock free. Releasing a
// leased node panics too.
func TestWritersPanicOnReleasedAndLeasedNodes(t *testing.T) {
	writers := []struct {
		name  string
		write func(*Node)
	}{
		{"Run", func(n *Node) { n.Run(Work{CPUOps: 1e6}) }},
		{"RunParallel", func(n *Node) { n.RunParallel(Work{CPUOps: 1e6}, 2, 0.1) }},
		{"Advance", func(n *Node) { n.Advance(1) }},
		{"AdvanceTo", func(n *Node) { n.AdvanceTo(1) }},
		{"SetBackgroundLoad", func(n *Node) { n.SetBackgroundLoad(0.5) }},
	}
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: recovered %v, want a panic naming %q", what, r, want)
			}
		}()
		f()
	}
	for _, state := range []struct{ name, want string }{
		{"released", "used after release"},
		{"leased", "written while leased"},
	} {
		c := New(61)
		nodes, _ := c.Provision("ec2-m4", 1)
		n := nodes[0]
		if state.name == "released" {
			c.Release(n)
		} else if _, err := LeaseAll(nodes); err != nil {
			t.Fatal(err)
		}
		for _, w := range writers {
			mustPanic(w.name+" on a "+state.name+" node", state.want, func() { w.write(n) })
		}
		if n.Now() != 0 || n.bgLoad != 0 {
			t.Errorf("refused writes on a %s node moved it: clock %v, load %v", state.name, n.Now(), n.bgLoad)
		}
		if state.name == "leased" {
			mustPanic("Release of a leased node", "release of leased node", func() { c.Release(n) })
			if got := len(c.Nodes()); got != 1 {
				t.Errorf("a refused release left %d nodes in the cluster, want 1", got)
			}
		}
	}
}

// LeaseAll leases all of its nodes or none.
func TestLeaseAllIsAllOrNothing(t *testing.T) {
	c := New(71)
	nodes, _ := c.Provision("ec2-m4", 3)
	c.Release(nodes[2])
	for _, bad := range [][]*Node{
		{nodes[0], nodes[1], nodes[0]},
		{nodes[0], nodes[1], nodes[2]},
	} {
		if _, err := LeaseAll(bad); err == nil {
			t.Fatal("LeaseAll over a duplicate or released node must fail")
		}
		nodes[0].Run(Work{CPUOps: 1}) // panics if the failed lease kept it
		nodes[1].Run(Work{CPUOps: 1})
	}
	leases, err := LeaseAll(nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeaseAll(nodes[1:2]); err == nil {
		t.Fatal("leasing a leased node must fail")
	}
	start, end := leases[1].RunThenAdvance(nodes[1].Profile().Duration(Work{CPUOps: 1e6}), 0)
	if leases[1].Now() != nodes[1].Now() || end <= start {
		t.Fatalf("lease clock %v, node clock %v after a run from %v to %v", leases[1].Now(), nodes[1].Now(), start, end)
	}
}

// Release and a Run on another goroutine order on the node's lock: each
// Run either completes before the release or panics after it (`make
// race` checks the ordering).
func TestReleaseRacesRun(t *testing.T) {
	c := New(67)
	nodes, _ := c.Provision("ec2-m4", 1)
	n := nodes[0]
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		for {
			n.Run(Work{CPUOps: 1e3})
		}
	}()
	c.Release(n)
	if r := <-done; !strings.Contains(fmt.Sprint(r), "used after release") {
		t.Fatalf("Run racing Release ended with %v, want the used-after-release panic", r)
	}
}
