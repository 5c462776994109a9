// Package mpi implements the message-passing substrate of the paper's
// HPC use case: an MPI-like communicator over simulated cluster nodes,
// with point-to-point messaging, tree-based collectives, and an
// mpiP-style communication profiler.
//
// The noisy-neighbour experiment (Section "MPI Noisy Neighborhood
// Characterization") runs a LULESH-like proxy application over this
// communicator many times and studies run-to-run variability of the
// captured MPI metrics. Collectives synchronize ranks, so a single
// straggler (a rank on a loaded node) inflates everyone's MPI wait time
// — the mechanism behind the variability the original study measured
// with mpiP.
package mpi

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"popper/internal/cluster"
	"popper/internal/table"
)

// Comm is an MPI communicator: one rank per cluster node. A Comm is
// driven from one goroutine: it leases its nodes for its lifetime, so
// its clock steps, message queues and profiler take no locks. Other
// goroutines may still read the nodes' clocks (Node.Now, MaxClock), but
// writing one — Run, Advance, SetBackgroundLoad — panics from NewComm
// on.
type Comm struct {
	nodes []*cluster.Node
	ranks []rank
	net   *cluster.Network
	// maxLat and minBW are the collectives' per-round cost terms: the
	// slowest NIC latency and the narrowest NIC bandwidth of any rank.
	maxLat, minBW float64
	// queues[src*Size()+dst] holds the in-flight messages from src to
	// dst.
	queues []fifo
	prof   *Profiler
}

// rank is one rank's lease on its node, the nominal cost of the
// per-message software overhead on the node's profile, and the last
// Work the rank computed (Work{} before the first) with its nominal
// cost.
type rank struct {
	lease    *cluster.Lease
	overhead float64
	work     cluster.Work
	workCost float64
}

type pendingMsg struct {
	arrival float64
	bytes   int64
}

// fifo is one rank pair's message queue. It reuses its backing array:
// a drained queue rewinds, and a full one compacts before it grows, so a
// pair that never has more than k messages in flight allocates for at
// most k of them, once.
type fifo struct {
	msgs []pendingMsg
	head int
}

func (q *fifo) push(m pendingMsg) {
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
}

func (q *fifo) empty() bool { return q.head == len(q.msgs) }

func (q *fifo) pop() (pendingMsg, bool) {
	if q.empty() {
		return pendingMsg{}, false
	}
	m := q.msgs[q.head]
	q.head++
	if q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	return m, true
}

// queue returns the FIFO of messages from src to dst.
func (c *Comm) queue(src, dst int) *fifo { return &c.queues[src*len(c.nodes)+dst] }

// NewComm builds a communicator with one rank per node and leases the
// nodes to it: set up a node (SetBackgroundLoad, Advance) before
// NewComm, not after. It fails, leasing nothing, if a node is released,
// already leased or listed twice. It reads each node's profile once, so
// a profile changed afterwards does not change the Comm's costs.
func NewComm(nodes []*cluster.Node, net *cluster.Network) (*Comm, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mpi: communicator needs at least one rank")
	}
	if net == nil {
		return nil, fmt.Errorf("mpi: nil network")
	}
	leases, err := cluster.LeaseAll(nodes)
	if err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	c := &Comm{
		nodes:  nodes,
		ranks:  make([]rank, len(nodes)),
		net:    net,
		minBW:  math.Inf(1),
		queues: make([]fifo, len(nodes)*len(nodes)),
		prof:   NewProfiler(len(nodes)),
	}
	for i, n := range nodes {
		p := n.Profile()
		c.ranks[i] = rank{lease: leases[i], overhead: p.Duration(overhead), workCost: p.Duration(cluster.Work{})}
		if p.NICLatS > c.maxLat {
			c.maxLat = p.NICLatS
		}
		if p.NICBWBps < c.minBW {
			c.minBW = p.NICBWBps
		}
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.nodes) }

// Node returns the node behind a rank.
func (c *Comm) Node(rank int) (*cluster.Node, error) {
	if rank < 0 || rank >= len(c.nodes) {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, len(c.nodes))
	}
	return c.nodes[rank], nil
}

// Profiler returns the attached mpiP-style profiler.
func (c *Comm) Profiler() *Profiler { return c.prof }

// overhead is the per-message software overhead each side pays.
var overhead = cluster.Work{CPUOps: 2e4}

// Send posts a message; the sender pays software overhead plus the wire
// time, and the message is queued with its arrival timestamp.
func (c *Comm) Send(src, dst int, bytes int64) error {
	if err := c.checkRank(src); err != nil {
		return err
	}
	if err := c.checkRank(dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("mpi: rank %d sending to itself", src)
	}
	if bytes < 0 {
		return fmt.Errorf("mpi: negative message size")
	}
	wire := c.net.TransferTime(c.nodes[src], c.nodes[dst], bytes)
	s := &c.ranks[src]
	start, arrival := s.lease.RunThenAdvance(s.overhead, wire)
	c.queue(src, dst).push(pendingMsg{arrival: arrival, bytes: bytes})
	c.prof.record(src, callSend, arrival-start, bytes)
	return nil
}

// Recv consumes the oldest message from src; the receiver blocks until
// the message has arrived.
func (c *Comm) Recv(dst, src int) (int64, error) {
	if err := c.checkRank(src); err != nil {
		return 0, err
	}
	if err := c.checkRank(dst); err != nil {
		return 0, err
	}
	msg, ok := c.queue(src, dst).pop()
	if !ok {
		return 0, fmt.Errorf("mpi: rank %d has no message from %d (deadlock)", dst, src)
	}
	d := &c.ranks[dst]
	start, end := d.lease.AdvanceToThenRun(msg.arrival, d.overhead)
	c.prof.record(dst, callRecv, end-start, msg.bytes)
	return msg.bytes, nil
}

// Request is an outstanding nonblocking operation.
type Request struct {
	rank    int     // the rank that must Wait
	arrival float64 // when the data is available (receive side)
	bytes   int64
	recv    bool
	done    bool
}

// Isend posts a message without blocking for the wire: the sender pays
// only the software overhead, and the transfer proceeds "in the
// background" (its completion time is the arrival timestamp the matching
// receive observes). Wait on the returned request is free for the
// sender — the classic communication/computation overlap.
func (c *Comm) Isend(src, dst int, bytes int64) (*Request, error) {
	if err := c.checkRank(src); err != nil {
		return nil, err
	}
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, fmt.Errorf("mpi: rank %d sending to itself", src)
	}
	if bytes < 0 {
		return nil, fmt.Errorf("mpi: negative message size")
	}
	// No wait for the wire: the transfer proceeds in the background.
	s := &c.ranks[src]
	start, now := s.lease.RunThenAdvance(s.overhead, 0)
	wire := c.net.TransferTime(c.nodes[src], c.nodes[dst], bytes)
	c.queue(src, dst).push(pendingMsg{arrival: now + wire, bytes: bytes})
	c.prof.record(src, callIsend, now-start, bytes)
	return &Request{rank: src}, nil
}

// Irecv posts a receive for the oldest in-flight message from src
// without blocking; Wait blocks until the data has arrived. The model
// requires the matching Isend/Send to have been posted first (receives
// cannot be pre-posted) — a deliberate simplification of MPI's matching
// rules that all the bundled communication patterns satisfy.
func (c *Comm) Irecv(dst, src int) (*Request, error) {
	if err := c.checkRank(src); err != nil {
		return nil, err
	}
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	msg, ok := c.queue(src, dst).pop()
	if !ok {
		return nil, fmt.Errorf("mpi: rank %d has no posted message from %d", dst, src)
	}
	d := &c.ranks[dst]
	d.lease.RunThenAdvance(d.overhead, 0)
	return &Request{rank: dst, arrival: msg.arrival, bytes: msg.bytes, recv: true}, nil
}

// Wait completes a nonblocking operation: a receive blocks until the
// message's arrival time; a send is already complete. The blocked time
// is recorded as "Wait" in the profile.
func (c *Comm) Wait(r *Request) error {
	if r == nil || r.done {
		return fmt.Errorf("mpi: wait on nil or completed request")
	}
	r.done = true
	if !r.recv {
		return nil
	}
	l := c.ranks[r.rank].lease
	start := l.Now()
	l.AdvanceTo(r.arrival)
	c.prof.record(r.rank, callWait, l.Now()-start, r.bytes)
	return nil
}

// Waitall completes a batch of requests.
func (c *Comm) Waitall(reqs []*Request) error {
	for _, r := range reqs {
		if err := c.Wait(r); err != nil {
			return err
		}
	}
	return nil
}

// Sendrecv exchanges messages between two ranks (halo-exchange
// pattern): Send(a, b), Send(b, a), Recv(b, a), Recv(a, b). When no
// message is pending between the two ranks, which is always so in a
// blocking halo loop, it is one Lease.Exchange step per rank, with the
// clocks, draws and profile of those four calls. It falls back to the
// four calls when a message is pending, so the receives keep FIFO
// order, and on a bad argument, so the errors are Send's.
func (c *Comm) Sendrecv(a, b int, bytes int64) error {
	n := len(c.nodes)
	if a >= 0 && a < n && b >= 0 && b < n && a != b && bytes >= 0 &&
		c.queue(a, b).empty() && c.queue(b, a).empty() {
		ra, rb := &c.ranks[a], &c.ranks[b]
		// TransferTime is symmetric to the bit, so one call serves
		// both directions.
		wire := c.net.TransferTime(c.nodes[a], c.nodes[b], bytes)
		sendA, recvA, sendB, recvB := ra.lease.Exchange(rb.lease, ra.overhead, rb.overhead, wire)
		c.prof.record(a, callSend, sendA, bytes)
		c.prof.record(b, callSend, sendB, bytes)
		c.prof.record(b, callRecv, recvB, bytes)
		c.prof.record(a, callRecv, recvA, bytes)
		return nil
	}
	if err := c.Send(a, b, bytes); err != nil {
		return err
	}
	if err := c.Send(b, a, bytes); err != nil {
		return err
	}
	if _, err := c.Recv(b, a); err != nil {
		return err
	}
	_, err := c.Recv(a, b)
	return err
}

// collective advances every rank to the end of a tree collective that
// moves `bytes` per round over `rounds` rounds.
func (c *Comm) collective(call callID, bytes int64, rounds float64) {
	start := cluster.MaxClock(c.nodes)
	perRound := 2*c.maxLat + float64(bytes)/c.minBW
	end := start + float64(rounds*perRound)
	for r := range c.ranks {
		l := c.ranks[r].lease
		before := l.Now()
		l.AdvanceTo(end)
		c.prof.record(r, call, end-before, bytes)
	}
}

func (c *Comm) rounds() float64 {
	r := math.Ceil(math.Log2(float64(len(c.nodes))))
	if r < 1 {
		r = 1
	}
	return r
}

// Barrier synchronizes all ranks.
func (c *Comm) Barrier() { c.collective(callBarrier, 0, c.rounds()) }

// Reduce combines bytes to a root over a binomial tree.
func (c *Comm) Reduce(root int, bytes int64) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	c.collective(callReduce, bytes, c.rounds())
	return nil
}

// Allreduce combines and redistributes (reduce + broadcast).
func (c *Comm) Allreduce(bytes int64) {
	c.collective(callAllreduce, bytes, 2*c.rounds())
}

// Compute runs application (non-MPI) work on a rank: Node.Run on its
// leased node. The rank keeps the nominal cost of the last Work it ran
// and reuses it while the Work repeats, as a stencil loop's does.
func (c *Comm) Compute(rank int, w cluster.Work) error {
	if err := c.checkRank(rank); err != nil {
		return err
	}
	r := &c.ranks[rank]
	if w != r.work {
		r.work, r.workCost = w, c.nodes[rank].Profile().Duration(w)
	}
	r.lease.RunThenAdvance(r.workCost, 0)
	return nil
}

// MaxClock returns the application makespan.
func (c *Comm) MaxClock() float64 { return cluster.MaxClock(c.nodes) }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= len(c.nodes) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, len(c.nodes))
	}
	return nil
}

// callID names one profiled MPI call. The IDs follow the calls'
// names in byte order, so every loop over them visits calls
// alphabetically; that order is the profiler's summation order.
type callID uint8

const (
	callAllreduce callID = iota
	callBarrier
	callIsend
	callRecv
	callReduce
	callSend
	callWait
	numCalls
)

var callNames = [numCalls]string{
	callAllreduce: "Allreduce",
	callBarrier:   "Barrier",
	callIsend:     "Isend",
	callRecv:      "Recv",
	callReduce:    "Reduce",
	callSend:      "Send",
	callWait:      "Wait",
}

// Profiler captures per-rank, per-call MPI statistics like mpiP.
//
// Every sum it reports adds its terms in a fixed order — calls by name,
// ranks by number — so a rank's MPI time, and every figure derived from
// it, has the same bits on every run.
type Profiler struct {
	ranks int
	// stats[rank] accumulates time and counts per call.
	stats [][numCalls]callStats
}

type callStats struct {
	Count int
	Time  float64
	Bytes int64
}

// NewProfiler creates a profiler for n ranks.
func NewProfiler(n int) *Profiler {
	return &Profiler{ranks: n, stats: make([][numCalls]callStats, n)}
}

func (p *Profiler) record(rank int, call callID, elapsed float64, bytes int64) {
	cs := &p.stats[rank][call]
	cs.Count++
	cs.Time += elapsed
	cs.Bytes += bytes
}

// Reset clears all recorded statistics.
func (p *Profiler) Reset() { clear(p.stats) }

// MPITime returns the total time a rank spent inside MPI calls, summed
// in call-name order.
func (p *Profiler) MPITime(rank int) float64 {
	total := 0.0
	for _, cs := range &p.stats[rank] {
		total += cs.Time
	}
	return total
}

// TotalMPITime sums MPI time across ranks in rank order.
func (p *Profiler) TotalMPITime() float64 {
	total := 0.0
	for r := 0; r < p.ranks; r++ {
		total += p.MPITime(r)
	}
	return total
}

// Table exports per-rank per-call statistics (the mpiP report body):
// one row for each call a rank made, in call-name order.
func (p *Profiler) Table() *table.Table {
	t := table.New("rank", "call", "count", "time", "bytes")
	for r := 0; r < p.ranks; r++ {
		for call, cs := range &p.stats[r] {
			if cs.Count == 0 {
				continue
			}
			t.MustAppend(
				table.Number(float64(r)),
				table.String(callNames[call]),
				table.Number(float64(cs.Count)),
				table.Number(cs.Time),
				table.Number(float64(cs.Bytes)),
			)
		}
	}
	return t
}

// Report renders an mpiP-style text summary: aggregate time per call
// type, plus the rank-level min/mean/max MPI time. Calls are listed by
// aggregate time, longest first; equal times list by name.
func (p *Profiler) Report(appTime float64) string {
	var sb strings.Builder
	sb.WriteString("@--- MPI Time (seconds) ---------------------------------\n")
	times := make([]float64, p.ranks)
	for r := range times {
		times[r] = p.MPITime(r)
	}
	lo, hi := times[0], times[0]
	for _, t := range times {
		lo, hi = math.Min(lo, t), math.Max(hi, t)
	}
	fmt.Fprintf(&sb, "ranks=%d app=%.4g mpi(min=%.4g mean=%.4g max=%.4g)\n",
		p.ranks, appTime, lo, table.Mean(times), hi)
	if appTime > 0 {
		fmt.Fprintf(&sb, "mpi fraction of app time: %.1f%%\n", table.Mean(times)/appTime*100)
	}
	sb.WriteString("@--- Aggregate Time (top, by call) ----------------------\n")
	var agg [numCalls]callStats
	calls := make([]callID, 0, numCalls)
	for call := range agg {
		a := &agg[call]
		for r := 0; r < p.ranks; r++ {
			cs := p.stats[r][call]
			a.Count += cs.Count
			a.Time += cs.Time
			a.Bytes += cs.Bytes
		}
		if a.Count > 0 {
			calls = append(calls, callID(call))
		}
	}
	// calls is in name order, so a stable sort breaks ties by name.
	sort.SliceStable(calls, func(i, j int) bool { return agg[calls[i]].Time > agg[calls[j]].Time })
	for _, call := range calls {
		a := agg[call]
		fmt.Fprintf(&sb, "%-10s calls=%-8d time=%-12.4g bytes=%d\n", callNames[call], a.Count, a.Time, a.Bytes)
	}
	return sb.String()
}
