package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Cluster is a pool of simulated machines, provisioned by profile name
// the way CloudLab or PRObE lease bare-metal nodes.
type Cluster struct {
	mu    sync.Mutex
	seed  int64
	next  int
	nodes map[string]*Node
}

// New creates an empty cluster. All stochastic behaviour (jitter, noise)
// derives from seed, so a cluster is reproducible bit-for-bit.
func New(seed int64) *Cluster {
	return &Cluster{seed: seed, nodes: make(map[string]*Node)}
}

// Provision allocates n fresh nodes of the named builtin profile.
func (c *Cluster) Provision(profile string, n int) ([]*Node, error) {
	p, err := Profile(profile)
	if err != nil {
		return nil, err
	}
	return c.ProvisionProfile(p, n)
}

// ProvisionProfile allocates n fresh nodes with an explicit profile.
func (c *Cluster) ProvisionProfile(p *MachineProfile, n int) ([]*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("cluster: cannot provision %d nodes", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, n)
	for i := range out {
		id := fmt.Sprintf("%s-%d", p.Name, c.next)
		c.next++
		node := &Node{
			id:      id,
			profile: p,
			rng:     rand.New(rand.NewSource(c.seed ^ int64(c.next)*0x5851f42d4c957f2d)),
		}
		c.nodes[id] = node
		out[i] = node
	}
	return out, nil
}

// Release returns nodes to the provider; writing a released node's
// clock, load or jitter RNG panics. Releasing a leased node panics: the
// node belongs to its lease holder.
func (c *Cluster) Release(nodes ...*Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		n.release()
		delete(c.nodes, n.id)
	}
}

// Nodes lists the provisioned nodes not yet released, sorted by id.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Node is one simulated machine with a logical clock.
//
// Clock contract: a node's clock, jitter RNG and background load have
// one writer at a time. A free node's writers (Run, RunParallel,
// Advance, AdvanceTo, SetBackgroundLoad) hold mu, so concurrent writers
// serialize. A leased node's only writer is its Lease, whose steps take
// no lock: while the lease holds the node, those Node writers panic, as
// they do on a released node, and so does Release. Either way each step
// publishes the clock with one atomic store, and Now (and so MaxClock)
// reads it with one atomic load and no lock: a reader racing a writer
// sees the clock from just before or just after that step, never a torn
// value. mu also guards the node's state and its RAM accounting.
type Node struct {
	mu        sync.Mutex
	id        string
	profile   *MachineProfile
	clock     atomic.Uint64 // Float64bits of virtual seconds since provisioning
	bgLoad    float64       // background ("noisy neighbour") load in [0,1)
	rng       *rand.Rand
	state     nodeState
	usedBytes int64 // allocated simulated RAM
}

// nodeState says who may write a node's clock, load and RNG.
type nodeState uint8

const (
	nodeFree     nodeState = iota // the locked Node writers
	nodeLeased                    // its Lease alone
	nodeReleased                  // nobody
)

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// Profile returns the node's machine profile.
func (n *Node) Profile() *MachineProfile { return n.profile }

// Now returns the node's logical clock in virtual seconds. It takes no
// lock.
func (n *Node) Now() float64 { return math.Float64frombits(n.clock.Load()) }

// setClock publishes a new clock value; the caller is the node's writer.
func (n *Node) setClock(t float64) { n.clock.Store(math.Float64bits(t)) }

// lockForWrite takes mu for a locked writer. Unless the node is free
// it releases mu and panics. The caller defers n.mu.Unlock.
func (n *Node) lockForWrite() {
	n.mu.Lock()
	switch n.state {
	case nodeLeased:
		n.mu.Unlock()
		panic(fmt.Sprintf("cluster: node %s written while leased", n.id))
	case nodeReleased:
		n.mu.Unlock()
		panic(fmt.Sprintf("cluster: node %s used after release", n.id))
	}
}

// release marks the node released; it panics on a leased node.
func (n *Node) release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == nodeLeased {
		panic(fmt.Sprintf("cluster: release of leased node %s", n.id))
	}
	n.state = nodeReleased
}

// AdvanceTo moves the clock forward to at least t (never backwards).
func (n *Node) AdvanceTo(t float64) {
	n.lockForWrite()
	defer n.mu.Unlock()
	n.advanceTo(t)
}

// Advance moves the clock forward by d seconds (d must be >= 0).
func (n *Node) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("cluster: negative advance %g on %s", d, n.id))
	}
	n.lockForWrite()
	defer n.mu.Unlock()
	n.setClock(n.Now() + d)
}

// SetBackgroundLoad models noisy neighbours: a fraction of the machine's
// resources consumed by other tenants. load must be in [0, 0.95].
func (n *Node) SetBackgroundLoad(load float64) error {
	if load < 0 || load > 0.95 {
		return fmt.Errorf("cluster: background load %g out of range [0,0.95]", load)
	}
	n.lockForWrite()
	defer n.mu.Unlock()
	n.bgLoad = load
	return nil
}

// BackgroundLoad reports the current noisy-neighbour load.
func (n *Node) BackgroundLoad() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bgLoad
}

// inflate turns a nominal duration into the node's actual one: it slows
// d by the background load and by a half-normal jitter draw — most runs
// near nominal, occasional runs slower, the shape real systems show.
// The caller is the node's writer (the draw advances the RNG).
func (n *Node) inflate(d float64) float64 {
	if n.bgLoad > 0 {
		d /= 1 - n.bgLoad
	}
	if sigma := n.profile.JitterSigma; sigma > 0 {
		d *= 1 + math.Abs(n.rng.NormFloat64())*sigma
	}
	return d
}

// The clock steps. Each runs for the node's writer: a Node method
// holding mu, or the lease holder.

// run spends the nominal duration d, inflated, and returns the
// inflated duration.
func (n *Node) run(d float64) float64 {
	d = n.inflate(d)
	n.setClock(n.Now() + d)
	return d
}

// advanceTo moves the clock forward to t unless it is already past it.
func (n *Node) advanceTo(t float64) {
	if t > n.Now() {
		n.setClock(t)
	}
}

// Run executes work on the node: the duration is computed from the
// profile, inflated by background load and jitter, the clock advances,
// and the elapsed virtual seconds are returned.
func (n *Node) Run(w Work) float64 {
	n.lockForWrite()
	defer n.mu.Unlock()
	return n.run(n.profile.Duration(w))
}

// RunParallel executes work that parallelizes over up to `threads` cores
// following Amdahl with the given serial fraction. Returns elapsed time.
func (n *Node) RunParallel(w Work, threads int, serialFrac float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if threads > n.profile.Cores {
		threads = n.profile.Cores
	}
	if serialFrac < 0 {
		serialFrac = 0
	}
	if serialFrac > 1 {
		serialFrac = 1
	}
	speedup := 1 / (serialFrac + (1-serialFrac)/float64(threads))
	serial := n.profile.Duration(w)
	n.lockForWrite()
	defer n.mu.Unlock()
	return n.run(serial / speedup)
}

// Lease is one goroutine's exclusive use of a node, from LeaseAll on.
// Its clock steps take no lock: while the node is leased, every Node
// method that writes its clock, load or jitter RNG panics, and so does
// Release, so the lease holder is the only writer. Each step still
// publishes the clock with the atomic store Now reads, so Now and
// MaxClock see every step from any goroutine. The steps are the ones
// the locked writers run, so a leased node's clock and draws are bit
// for bit what the same calls on a free node give. A Lease is not safe
// for concurrent use, and nothing ends one: the node stays leased.
type Lease struct{ n *Node }

// LeaseAll leases every node, in order, or none: it fails if a node is
// released, already leased or listed twice.
func LeaseAll(nodes []*Node) ([]*Lease, error) {
	leases := make([]*Lease, 0, len(nodes))
	for _, n := range nodes {
		if err := n.lease(); err != nil {
			for _, l := range leases {
				l.n.unlease()
			}
			return nil, err
		}
		leases = append(leases, &Lease{n: n})
	}
	return leases, nil
}

// lease marks a free node leased.
func (n *Node) lease() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.state {
	case nodeLeased:
		return fmt.Errorf("cluster: node %s is already leased", n.id)
	case nodeReleased:
		return fmt.Errorf("cluster: node %s is released", n.id)
	}
	n.state = nodeLeased
	return nil
}

// unlease frees a node whose lease was never handed out.
func (n *Node) unlease() {
	n.mu.Lock()
	n.state = nodeFree
	n.mu.Unlock()
}

// Now returns the leased node's clock.
func (l *Lease) Now() float64 { return l.n.Now() }

// Run is Node.Run on the leased node.
func (l *Lease) Run(w Work) float64 { return l.n.run(l.n.profile.Duration(w)) }

// AdvanceTo is Node.AdvanceTo on the leased node.
func (l *Lease) AdvanceTo(t float64) { l.n.advanceTo(t) }

// RunThenAdvance spends the nominal duration d, inflated, and then
// blocks for wait seconds, in one clock update: the sending side of a
// blocking message, which pays its software overhead and then waits for
// the wire. Given d = Profile().Duration(w), it is Run(w) followed by
// Advance(wait). It returns the clock before and after.
func (l *Lease) RunThenAdvance(d, wait float64) (start, end float64) {
	n := l.n
	start = n.Now()
	end = start + n.inflate(d)
	end += wait
	n.setClock(end)
	return start, end
}

// AdvanceToThenRun waits until t and then spends the nominal duration
// d, inflated, in one clock update: the receiving side of a message,
// which waits for the arrival and then pays its software overhead.
// Given d = Profile().Duration(w), it is AdvanceTo(t) followed by
// Run(w). It returns the clock before and after.
func (l *Lease) AdvanceToThenRun(t, d float64) (start, end float64) {
	n := l.n
	start = n.Now()
	end = start
	if t > end {
		end = t
	}
	end += n.inflate(d)
	n.setClock(end)
	return start, end
}

// Alloc reserves simulated RAM on the node (for GassyFS segments).
func (n *Node) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("cluster: negative allocation")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.usedBytes+bytes > n.profile.RAMBytes {
		return fmt.Errorf("cluster: node %s out of memory: used %d + %d > %d",
			n.id, n.usedBytes, bytes, n.profile.RAMBytes)
	}
	n.usedBytes += bytes
	return nil
}

// Free releases previously allocated simulated RAM.
func (n *Node) Free(bytes int64) {
	n.mu.Lock()
	n.usedBytes -= bytes
	if n.usedBytes < 0 {
		n.usedBytes = 0
	}
	n.mu.Unlock()
}

// UsedBytes reports currently allocated simulated RAM.
func (n *Node) UsedBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.usedBytes
}

// Facts returns the "facts" an orchestration tool would gather from the
// machine (the paper's baseline-sanitization input).
func (n *Node) Facts() map[string]string {
	p := n.profile
	return map[string]string{
		"node_id":     n.id,
		"machine":     p.Name,
		"year":        fmt.Sprint(p.Year),
		"cores":       fmt.Sprint(p.Cores),
		"clock_ghz":   fmt.Sprintf("%.2f", p.ClockHz/1e9),
		"mem_gb":      fmt.Sprint(p.RAMBytes >> 30),
		"mem_bw_gbps": fmt.Sprintf("%.1f", p.MemBWBps/1e9),
		"nic_gbps":    fmt.Sprintf("%.1f", p.NICBWBps*8/1e9),
	}
}

// Network models the interconnect between nodes: a latency + bandwidth
// (alpha-beta) cost model. It holds no state, so one Network can be
// shared by any number of goroutines and every cost it computes is a
// pure function of the endpoints and the size.
type Network struct{}

// NewNetwork creates a network.
func NewNetwork() *Network { return &Network{} }

// TransferTime returns the virtual seconds needed to move `bytes` from
// src to dst without advancing any clock.
func (net *Network) TransferTime(src, dst *Node, bytes int64) float64 {
	if src == dst {
		// Loopback: memory copy at the node's memory bandwidth.
		return float64(bytes) / src.profile.MemBWBps
	}
	lat := src.profile.NICLatS + dst.profile.NICLatS
	bw := math.Min(src.profile.NICBWBps, dst.profile.NICBWBps)
	return lat + float64(bytes)/bw
}

// Send moves bytes from src to dst: src blocks for the transfer, and
// dst's clock is advanced to the arrival time (message-passing send).
// Returns the arrival time on dst's clock.
func (net *Network) Send(src, dst *Node, bytes int64) float64 {
	src.Advance(net.TransferTime(src, dst, bytes))
	arrival := src.Now()
	dst.AdvanceTo(arrival)
	return arrival
}

// RDMACost returns the virtual seconds a one-sided transfer of `bytes`
// between the two nodes takes, without advancing any clock. The cost is
// a pure function of the endpoints and the size (no RNG), which is what
// lets parallel engines compute transfer costs on worker goroutines and
// apply them to clocks later in a deterministic order.
func (net *Network) RDMACost(caller, target *Node, bytes int64) float64 {
	if caller == target {
		return float64(bytes) / caller.profile.MemBWBps
	}
	rtt := 2 * (caller.profile.NICLatS + target.profile.NICLatS)
	bw := math.Min(caller.profile.NICBWBps, target.profile.NICBWBps)
	return rtt + float64(bytes)/bw
}

// RDMARead models a one-sided get: the caller blocks for a round trip
// plus payload; the target's clock is untouched (one-sided semantics).
func (net *Network) RDMARead(caller, target *Node, bytes int64) float64 {
	t := net.RDMACost(caller, target, bytes)
	caller.Advance(t)
	return t
}

// RDMAWrite models a one-sided put (same cost shape as a get).
func (net *Network) RDMAWrite(caller, target *Node, bytes int64) float64 {
	return net.RDMARead(caller, target, bytes)
}

// Barrier synchronizes the nodes: all clocks advance to the maximum plus
// a log2(n) latency term, the standard tree-barrier cost.
func (net *Network) Barrier(nodes []*Node) float64 {
	if len(nodes) == 0 {
		return 0
	}
	maxT := nodes[0].Now()
	maxLat := 0.0
	for _, n := range nodes {
		if t := n.Now(); t > maxT {
			maxT = t
		}
		if l := n.profile.NICLatS; l > maxLat {
			maxLat = l
		}
	}
	rounds := math.Ceil(math.Log2(float64(len(nodes))))
	if rounds < 1 {
		rounds = 1
	}
	end := maxT + 2*maxLat*rounds
	for _, n := range nodes {
		n.AdvanceTo(end)
	}
	return end
}

// MaxClock returns the maximum logical clock across nodes — the makespan
// of a distributed computation.
func MaxClock(nodes []*Node) float64 {
	m := 0.0
	for _, n := range nodes {
		if t := n.Now(); t > m {
			m = t
		}
	}
	return m
}
