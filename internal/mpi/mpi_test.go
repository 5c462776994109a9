package mpi

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"popper/internal/cluster"
	"popper/internal/table"
)

func comm(t *testing.T, n int, seed int64) (*Comm, []*cluster.Node) {
	return commAfter(t, n, seed, func([]*cluster.Node) {})
}

// commAfter is comm with setup run on the nodes first: a Comm leases its
// nodes, so a straggler is made before NewComm.
func commAfter(t *testing.T, n int, seed int64, setup func([]*cluster.Node)) (*Comm, []*cluster.Node) {
	t.Helper()
	c := cluster.New(seed)
	nodes, err := c.Provision("probe-opteron", n)
	if err != nil {
		t.Fatal(err)
	}
	setup(nodes)
	cm, err := NewComm(nodes, cluster.NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return cm, nodes
}

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(nil, cluster.NewNetwork()); err == nil {
		t.Fatal("empty comm must fail")
	}
	c := cluster.New(1)
	nodes, _ := c.Provision("xeon-2005", 3)
	if _, err := NewComm(nodes[:1], nil); err == nil {
		t.Fatal("nil network must fail")
	}

	// One rank per node: a node listed twice, a released node or a node
	// another Comm holds is refused, and the failed NewComm leases
	// nothing.
	c.Release(nodes[2])
	for _, bad := range [][]*cluster.Node{
		{nodes[0], nodes[1], nodes[0]},
		{nodes[0], nodes[1], nodes[2]},
	} {
		if _, err := NewComm(bad, cluster.NewNetwork()); err == nil {
			t.Fatalf("NewComm over %d nodes with a duplicate or released one must fail", len(bad))
		}
		nodes[0].Run(cluster.Work{CPUOps: 1}) // still free: panics if leased
		nodes[1].Run(cluster.Work{CPUOps: 1})
	}
	if _, err := NewComm(nodes[:2], cluster.NewNetwork()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewComm(nodes[1:2], cluster.NewNetwork()); err == nil {
		t.Fatal("a node another Comm leases must be refused")
	}
}

func TestSendRecv(t *testing.T) {
	cm, nodes := comm(t, 2, 1)
	if err := cm.Send(0, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Now() <= 0 {
		t.Fatal("sender must pay send cost")
	}
	got, err := cm.Recv(1, 0)
	if err != nil || got != 1<<20 {
		t.Fatalf("recv = %d, %v", got, err)
	}
	if nodes[1].Now() < nodes[0].Now() {
		t.Fatalf("receiver clock %v must reach arrival %v", nodes[1].Now(), nodes[0].Now())
	}
}

func TestRecvWithoutSendDeadlocks(t *testing.T) {
	cm, _ := comm(t, 2, 2)
	if _, err := cm.Recv(1, 0); err == nil {
		t.Fatal("recv without send must report deadlock")
	}
}

func TestSendValidation(t *testing.T) {
	cm, _ := comm(t, 2, 3)
	if err := cm.Send(0, 0, 10); err == nil {
		t.Fatal("self-send must fail")
	}
	if err := cm.Send(0, 9, 10); err == nil {
		t.Fatal("bad dst must fail")
	}
	if err := cm.Send(9, 0, 10); err == nil {
		t.Fatal("bad src must fail")
	}
	if err := cm.Send(0, 1, -1); err == nil {
		t.Fatal("negative size must fail")
	}
	if _, err := cm.Recv(0, 9); err == nil {
		t.Fatal("bad recv src must fail")
	}
	if err := cm.Compute(9, cluster.Work{}); err == nil {
		t.Fatal("bad compute rank must fail")
	}
	if _, err := cm.Node(9); err == nil {
		t.Fatal("bad node rank must fail")
	}
}

func TestMessageOrderFIFO(t *testing.T) {
	cm, _ := comm(t, 2, 4)
	cm.Send(0, 1, 100)
	cm.Send(0, 1, 200)
	a, _ := cm.Recv(1, 0)
	b, _ := cm.Recv(1, 0)
	if a != 100 || b != 200 {
		t.Fatalf("order = %d, %d", a, b)
	}
}

func TestSendrecvExchange(t *testing.T) {
	cm, nodes := comm(t, 2, 5)
	if err := cm.Sendrecv(0, 1, 4096); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Now() <= 0 || nodes[1].Now() <= 0 {
		t.Fatal("both ranks must advance")
	}
}

func TestBarrierSynchronizesRanks(t *testing.T) {
	cm, nodes := commAfter(t, 8, 6, func(nodes []*cluster.Node) { nodes[3].Advance(5) })
	cm.Barrier()
	end := nodes[0].Now()
	for _, n := range nodes {
		if n.Now() != end {
			t.Fatalf("ranks not synchronized: %v vs %v", n.Now(), end)
		}
	}
	if end < 5 {
		t.Fatalf("barrier end %v must cover straggler", end)
	}
}

func TestCollectives(t *testing.T) {
	cm, nodes := comm(t, 4, 7)
	if err := cm.Bcast(0, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := cm.Reduce(0, 1<<16); err != nil {
		t.Fatal(err)
	}
	cm.Allreduce(8)
	cm.Allgather(1024)
	if err := cm.Bcast(99, 1); err == nil {
		t.Fatal("bad root must fail")
	}
	if err := cm.Reduce(-1, 1); err == nil {
		t.Fatal("bad root must fail")
	}
	end := nodes[0].Now()
	for _, n := range nodes {
		if n.Now() != end {
			t.Fatal("collectives must leave ranks synchronized")
		}
	}
	// allreduce costs more than bcast of same size (two tree phases)
	cmA, nodesA := comm(t, 8, 8)
	cmA.Bcast(0, 1<<20)
	bcastEnd := nodesA[0].Now()
	cmB, nodesB := comm(t, 8, 8)
	cmB.Allreduce(1 << 20)
	allreduceEnd := nodesB[0].Now()
	if allreduceEnd <= bcastEnd {
		t.Fatalf("allreduce %v should cost more than bcast %v", allreduceEnd, bcastEnd)
	}
}

func TestStragglerDominatesCollective(t *testing.T) {
	cm, nodes := commAfter(t, 4, 9, func(nodes []*cluster.Node) {
		nodes[2].SetBackgroundLoad(0.8) // noisy neighbour on rank 2
	})
	for r := 0; r < 4; r++ {
		cm.Compute(r, cluster.Work{CPUOps: 1e9})
	}
	cm.Barrier()
	// Every rank's finish time is pinned to the straggler.
	slowest := nodes[2].Now()
	for r, n := range nodes {
		if n.Now() < slowest-1e-9 {
			t.Fatalf("rank %d at %v, straggler at %v", r, n.Now(), slowest)
		}
	}
	// mpiP should show the idle ranks waiting in Barrier.
	p := cm.Profiler()
	if p.MPITime(0) <= p.MPITime(2) {
		t.Fatalf("idle rank 0 (%.4g) should wait longer than straggler 2 (%.4g)",
			p.MPITime(0), p.MPITime(2))
	}
}

func TestProfilerAccounting(t *testing.T) {
	cm, _ := comm(t, 2, 10)
	cm.Send(0, 1, 512)
	cm.Recv(1, 0)
	cm.Barrier()
	p := cm.Profiler()

	tb := p.Table()
	if tb.Len() != 4 { // Send@0, Barrier@0, Recv@1, Barrier@1
		t.Fatalf("profile rows = %d\n%s", tb.Len(), tb.Format())
	}
	sub, _ := tb.Where("call", table.String("Send"))
	if sub.Len() != 1 || sub.MustCell(0, "bytes").Num != 512 {
		t.Fatalf("send row:\n%s", sub.Format())
	}
	if p.TotalMPITime() <= 0 {
		t.Fatal("total MPI time must be positive")
	}
	report := p.Report(cm.MaxClock())
	for _, want := range []string{"MPI Time", "Aggregate Time", "Barrier", "Send"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	p.Reset()
	if p.TotalMPITime() != 0 {
		t.Fatal("reset must clear stats")
	}
}

func TestComputeAdvancesOnlyThatRank(t *testing.T) {
	cm, nodes := comm(t, 3, 11)
	cm.Compute(1, cluster.Work{CPUOps: 1e9})
	if nodes[1].Now() <= 0 || nodes[0].Now() != 0 || nodes[2].Now() != 0 {
		t.Fatalf("clocks = %v %v %v", nodes[0].Now(), nodes[1].Now(), nodes[2].Now())
	}
	if cm.MaxClock() != nodes[1].Now() {
		t.Fatal("MaxClock mismatch")
	}
	if cm.Size() != 3 {
		t.Fatal("size mismatch")
	}
}

// Property: after any sequence of collectives, all rank clocks are equal.
func TestQuickCollectivesSynchronize(t *testing.T) {
	f := func(ops []uint8) bool {
		cm, nodes := commQuick(len(ops)%7 + 2)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				cm.Barrier()
			case 1:
				cm.Bcast(int(op)%cm.Size(), int64(op)*100)
			case 2:
				cm.Allreduce(int64(op))
			case 3:
				cm.Compute(int(op)%cm.Size(), cluster.Work{CPUOps: float64(op) * 1e5})
				cm.Barrier()
			}
		}
		end := nodes[0].Now()
		for _, n := range nodes {
			if math.Abs(n.Now()-end) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func commQuick(n int) (*Comm, []*cluster.Node) {
	c := cluster.New(99)
	nodes, _ := c.Provision("probe-opteron", n)
	cm, _ := NewComm(nodes, cluster.NewNetwork())
	return cm, nodes
}

// Property: sender clock is monotone and every Send is eventually
// receivable exactly once.
func TestQuickSendRecvConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		cm, _ := commQuick(2)
		for _, s := range sizes {
			if err := cm.Send(0, 1, int64(s)); err != nil {
				return false
			}
		}
		for range sizes {
			if _, err := cm.Recv(1, 0); err != nil {
				return false
			}
		}
		_, err := cm.Recv(1, 0)
		return err != nil // queue must now be empty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingSendRecv(t *testing.T) {
	cm, nodes := comm(t, 2, 20)
	req, err := cm.Isend(0, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// sender pays only overhead, not the wire
	overheadOnly := nodes[0].Now()
	cmB, nodesB := comm(t, 2, 20)
	cmB.Send(0, 1, 1<<20)
	blocking := nodesB[0].Now()
	if overheadOnly >= blocking {
		t.Fatalf("Isend %v should cost less than Send %v", overheadOnly, blocking)
	}
	// sender-side wait is free
	if err := cm.Wait(req); err != nil {
		t.Fatal(err)
	}
	// receiver wait blocks until arrival
	rreq, err := cm.Irecv(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Wait(rreq); err != nil {
		t.Fatal(err)
	}
	if nodes[1].Now() < overheadOnly {
		t.Fatalf("receiver %v must reach arrival after %v", nodes[1].Now(), overheadOnly)
	}
	// double wait rejected
	if err := cm.Wait(rreq); err == nil {
		t.Fatal("double wait must fail")
	}
	if err := cm.Wait(nil); err == nil {
		t.Fatal("nil wait must fail")
	}
}

func TestNonblockingValidation(t *testing.T) {
	cm, _ := comm(t, 2, 21)
	if _, err := cm.Isend(0, 0, 1); err == nil {
		t.Fatal("self isend must fail")
	}
	if _, err := cm.Isend(0, 9, 1); err == nil {
		t.Fatal("bad dst must fail")
	}
	if _, err := cm.Isend(0, 1, -1); err == nil {
		t.Fatal("negative size must fail")
	}
	if _, err := cm.Irecv(1, 0); err == nil {
		t.Fatal("irecv without message must fail")
	}
	if _, err := cm.Irecv(1, 9); err == nil {
		t.Fatal("bad src must fail")
	}
}

func TestOverlapHidesWireTime(t *testing.T) {
	// compute long enough to hide the transfer entirely
	cm, nodes := comm(t, 2, 22)
	req, _ := cm.Isend(0, 1, 1<<20)
	cm.Compute(1, cluster.Work{CPUOps: 5e9}) // receiver computes meanwhile
	rr, err := cm.Irecv(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := nodes[1].Now()
	cm.Wait(rr)
	cm.Wait(req)
	waited := nodes[1].Now() - before
	if waited > 1e-9 {
		t.Fatalf("fully-overlapped wait should be ~free, waited %v", waited)
	}
}

// The call-ID table is in name order; the profiler's summation order
// and its tables rely on it.
func TestCallNamesSorted(t *testing.T) {
	for c := callID(1); c < numCalls; c++ {
		if callNames[c-1] >= callNames[c] {
			t.Fatalf("callNames out of order at %d: %q before %q", c, callNames[c-1], callNames[c])
		}
	}
}

// MPITime adds a rank's calls in name order, whatever order they were
// recorded in. In record order (Send, Barrier, Allreduce) the two tiny
// terms would add up before meeting the large one and round to a
// different result.
func TestMPITimeSumsInCallNameOrder(t *testing.T) {
	p := NewProfiler(2)
	p.record(1, callSend, 1e-16, 0)
	p.record(1, callBarrier, 1e-16, 0)
	p.record(1, callAllreduce, 1, 0)
	if got := p.MPITime(1); got != 1 {
		t.Fatalf("MPITime = %v, want exactly 1 (call-name order)", got)
	}
	if got := p.TotalMPITime(); got != 1 {
		t.Fatalf("TotalMPITime = %v, want 1", got)
	}
}

// Report lists calls by aggregate time, and calls with equal times by
// name.
func TestReportOrdersTiesByName(t *testing.T) {
	p := NewProfiler(2)
	for r := 0; r < 2; r++ {
		p.record(r, callWait, 0.5, 8)
		p.record(r, callSend, 0.5, 8)
		p.record(r, callBarrier, 0.5, 0)
		p.record(r, callAllreduce, 2, 8)
	}
	report := p.Report(10)
	var order []string
	for _, line := range strings.Split(report, "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && strings.Contains(line, "calls=") {
			order = append(order, name)
		}
	}
	if got := strings.Join(order, ","); got != "Allreduce,Barrier,Send,Wait" {
		t.Fatalf("report order = %s, want Allreduce,Barrier,Send,Wait\n%s", got, report)
	}
}

// A pair's queue stays FIFO and bounded when it never drains: a full
// queue compacts before it grows.
func TestFIFOReusesBacking(t *testing.T) {
	var q fifo
	next, want := int64(0), int64(0)
	for i := 0; i < 10000; i++ {
		for len(q.msgs)-q.head < 4 {
			q.push(pendingMsg{bytes: next})
			next++
		}
		m, ok := q.pop()
		if !ok || m.bytes != want {
			t.Fatalf("pop %d = %v, %v; want %d", i, m.bytes, ok, want)
		}
		want++
	}
	if cap(q.msgs) > 8 {
		t.Fatalf("queue with at most 4 in flight grew to cap %d", cap(q.msgs))
	}
	for len(q.msgs)-q.head > 0 {
		q.pop()
	}
	if _, ok := q.pop(); ok {
		t.Fatal("drained queue must be empty")
	}
}
