package mpi

import (
	"fmt"
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

// sendrecvByFour is Sendrecv as the four calls it stands for.
func sendrecvByFour(cm *Comm, a, b int, bytes int64) error {
	if err := cm.Send(a, b, bytes); err != nil {
		return err
	}
	if err := cm.Send(b, a, bytes); err != nil {
		return err
	}
	if _, err := cm.Recv(b, a); err != nil {
		return err
	}
	_, err := cm.Recv(a, b)
	return err
}

// sameState fails unless the twin communicators' nodes hold the same
// clock bits and their profiles the same table.
func sameState(t *testing.T, what string, fused, split *Comm) {
	t.Helper()
	for r := range fused.nodes {
		f, s := fused.nodes[r].Now(), split.nodes[r].Now()
		if math.Float64bits(f) != math.Float64bits(s) {
			t.Fatalf("%s: rank %d's clock is %v after Sendrecv, %v after the four calls", what, r, f, s)
		}
	}
	if f, s := fused.Profiler().Table().CSV(), split.Profiler().Table().CSV(); f != s {
		t.Fatalf("%s: profiles differ\nSendrecv:\n%s\nfour calls:\n%s", what, f, s)
	}
}

// Sendrecv between two ranks with no message pending is one Exchange
// step per side, and that must be the four calls it stands for, bit for
// bit: twin communicators, one calling Sendrecv and the other Send,
// Send, Recv, Recv, over rotating pairs, sizes from 0 bytes up, a
// loaded rank and ranks pushed ahead by Compute, hold the same clock
// bits and the same profile after every exchange.
func TestSendrecvMatchesFourCalls(t *testing.T) {
	setup := func(nodes []*cluster.Node) {
		nodes[2].SetBackgroundLoad(0.5)
		nodes[5].Advance(3e-5)
	}
	fused, _ := commAfter(t, 6, 31, setup)
	split, _ := commAfter(t, 6, 31, setup)
	for step := 0; step < 300; step++ {
		a, b := step%6, (step*5+1)%6
		if a == b {
			b = (a + 1) % 6
		}
		bytes := int64(step%4) << (step % 17)
		if step%4 == 0 {
			w := cluster.Work{CPUOps: float64(1e5 * (1 + step%3))}
			for _, cm := range []*Comm{fused, split} {
				if err := cm.Compute((step/4)%6, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fused.Sendrecv(a, b, bytes); err != nil {
			t.Fatal(err)
		}
		if err := sendrecvByFour(split, a, b, bytes); err != nil {
			t.Fatal(err)
		}
		sameState(t, fmt.Sprintf("step %d, Sendrecv(%d, %d, %d)", step, a, b, bytes), fused, split)
	}
}

// A message pending between the two ranks sends Sendrecv down the four
// calls, so receives keep FIFO order on both twins: after an Isend the
// Sendrecv's receive on the Isend's destination takes the Isend's
// message, and its own message waits for the next receive.
func TestSendrecvWithPendingMessageKeepsFIFO(t *testing.T) {
	for _, pending := range [][2]int{{0, 1}, {1, 0}} {
		fused, _ := comm(t, 2, 33)
		split, _ := comm(t, 2, 33)
		for _, cm := range []*Comm{fused, split} {
			if _, err := cm.Isend(pending[0], pending[1], 100); err != nil {
				t.Fatal(err)
			}
		}
		if err := fused.Sendrecv(0, 1, 200); err != nil {
			t.Fatal(err)
		}
		if err := sendrecvByFour(split, 0, 1, 200); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("Isend(%d, %d) then Sendrecv(0, 1)", pending[0], pending[1])
		sameState(t, what, fused, split)
		for _, cm := range []*Comm{fused, split} {
			if got := cm.prof.stats[pending[1]][callRecv].Bytes; got != 100 {
				t.Fatalf("%s: rank %d received %d bytes, want the Isend's 100", what, pending[1], got)
			}
			if got, err := cm.Recv(pending[1], pending[0]); err != nil || got != 200 {
				t.Fatalf("%s: the next receive got %d, %v; want the Sendrecv's 200 bytes", what, got, err)
			}
			if _, err := cm.Recv(pending[1], pending[0]); err == nil {
				t.Fatalf("%s: a third message is queued", what)
			}
		}
		sameState(t, what+" and a Recv", fused, split)
	}
}

// Sendrecv's bad arguments return Send's errors and move no clock.
func TestSendrecvErrors(t *testing.T) {
	cm, nodes := comm(t, 2, 35)
	for _, c := range []struct {
		a, b  int
		bytes int64
		want  string
	}{
		{0, 9, 8, "mpi: rank 9 out of range [0,2)"},
		{-1, 1, 8, "mpi: rank -1 out of range [0,2)"},
		{1, 1, 8, "mpi: rank 1 sending to itself"},
		{0, 1, -1, "mpi: negative message size"},
	} {
		if err := cm.Sendrecv(c.a, c.b, c.bytes); err == nil || err.Error() != c.want {
			t.Errorf("Sendrecv(%d, %d, %d) = %v, want %q", c.a, c.b, c.bytes, err, c.want)
		}
	}
	if nodes[0].Now() != 0 || nodes[1].Now() != 0 || cm.Profiler().Table().Len() != 0 {
		t.Fatalf("refused exchanges moved clocks to %v, %v or profiled\n%s",
			nodes[0].Now(), nodes[1].Now(), cm.Profiler().Table().Format())
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
	if err := cm.Reduce(0, 1<<16); err != nil {
		t.Fatal(err)
	}
	cm.Allreduce(8)
	if err := cm.Reduce(99, 1); err == nil {
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
	// allreduce costs more than reduce of same size (two tree phases)
	cmA, nodesA := comm(t, 8, 8)
	cmA.Reduce(0, 1<<20)
	reduceEnd := nodesA[0].Now()
	cmB, nodesB := comm(t, 8, 8)
	cmB.Allreduce(1 << 20)
	allreduceEnd := nodesB[0].Now()
	if allreduceEnd <= reduceEnd {
		t.Fatalf("allreduce %v should cost more than reduce %v", allreduceEnd, reduceEnd)
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

// Compute is Node.Run on the rank's node, bit for bit, while a rank
// repeats its Work, switches to another and back, and while ranks
// interleave: a free twin cluster running the same Work through
// Node.Run ends every step at the same clock bits.
func TestComputeMatchesNodeRun(t *testing.T) {
	setup := func(nodes []*cluster.Node) { nodes[1].SetBackgroundLoad(0.3) }
	cm, nodes := commAfter(t, 3, 37, setup)
	free, err := cluster.New(37).Provision("probe-opteron", 3)
	if err != nil {
		t.Fatal(err)
	}
	setup(free)
	works := []cluster.Work{{CPUOps: 1e6}, {CPUOps: 1e6}, {VecOps: 3e6, MemBytes: 1e5}, {CPUOps: 1e6}, {}}
	for step := 0; step < 60; step++ {
		r, w := step%3, works[(step/3)%len(works)]
		if err := cm.Compute(r, w); err != nil {
			t.Fatal(err)
		}
		free[r].Run(w)
		if got, want := nodes[r].Now(), free[r].Now(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: rank %d's clock is %v after Compute(%+v), %v after Node.Run", step, r, got, w, want)
		}
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
				cm.Reduce(int(op)%cm.Size(), int64(op)*100)
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
