package cas

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"

	"popper/internal/cluster"
	"popper/internal/gasnet"
)

// Federation is the peer-to-peer layer of the tier: a per-host index
// of which hosts hold which cache entries, with object transfer over
// the gasnet vectored RDMA path. Before a cache miss triggers
// recompute, the consumer asks the federation whether a peer already
// holds the entry; if so, the bytes move from the cheapest peer per
// the same alpha-beta (latency + size/bandwidth) cost model the
// scheduler uses for placement, and the transfer is charged to the
// caller's virtual clock. Everything the federation does is
// accounting and byte movement over content-addressed data — it never
// changes what a replayed entry contains, which is the determinism
// argument (docs/CACHE.md): sweep artifacts stay byte-identical
// whether an entry was computed locally, fetched from a peer, or
// recomputed.
type Federation struct {
	tier     *Tier
	world    *gasnet.World
	profiles []*cluster.MachineProfile

	mu      sync.Mutex
	entries map[[sha256.Size]byte]*fedEntry
	cursor  []int64                             // per-host segment allocation cursor
	segAddr []map[[sha256.Size]byte]gasnet.Addr // per-host chunk hash → segment address

	publishes    int64
	localHits    int64
	remoteFetch  int64
	misses       int64
	remoteBytes  int64
	fetchSeconds float64
}

// fedHolder records that one host holds an entry, with the segment
// addresses of its chunks on that host.
type fedHolder struct {
	host  int
	addrs []gasnet.Addr
}

// fedEntry is the federation's view of one cache entry: its chunk refs
// and the hosts that hold it.
type fedEntry struct {
	refs    []Ref
	size    int64
	holders []fedHolder
}

// NewFederation binds a tier to a gasnet world. profiles[r] is the
// machine profile of rank r (used by the transfer cost model); every
// rank must have an attached segment, which models the host-local
// cache memory chunks are published into.
func NewFederation(tier *Tier, world *gasnet.World, profiles []*cluster.MachineProfile) (*Federation, error) {
	if tier == nil || world == nil {
		return nil, fmt.Errorf("cas: federation needs a tier and a world")
	}
	if len(profiles) != world.Size() {
		return nil, fmt.Errorf("cas: %d profiles for %d ranks", len(profiles), world.Size())
	}
	f := &Federation{
		tier:     tier,
		world:    world,
		profiles: profiles,
		entries:  make(map[[sha256.Size]byte]*fedEntry),
		cursor:   make([]int64, world.Size()),
		segAddr:  make([]map[[sha256.Size]byte]gasnet.Addr, world.Size()),
	}
	for r := 0; r < world.Size(); r++ {
		if world.SegmentSize(r) == 0 {
			return nil, fmt.Errorf("cas: rank %d has no attached segment", r)
		}
		f.segAddr[r] = make(map[[sha256.Size]byte]gasnet.Addr)
	}
	return f, nil
}

// Size returns the number of federated hosts.
func (f *Federation) Size() int { return f.world.Size() }

// transferCost mirrors cluster.Network.RDMACost / sched.hostCost: a
// host reading its own copy pays memory bandwidth; a peer transfer
// pays round-trip NIC latency plus size over the bottleneck bandwidth.
func (f *Federation) transferCost(caller, holder int, bytes int64) float64 {
	a, b := f.profiles[caller], f.profiles[holder]
	if caller == holder {
		return float64(bytes) / a.MemBWBps
	}
	return 2*(a.NICLatS+b.NICLatS) + float64(bytes)/math.Min(a.NICBWBps, b.NICBWBps)
}

// allocLocked reserves segment space on host for one chunk, reusing
// the address if the host's segment already has that chunk (segment
// space dedups by content just like the tier). Returns false when the
// segment is full. Caller holds f.mu.
func (f *Federation) allocLocked(host int, ref Ref) (gasnet.Addr, bool, bool) {
	if addr, ok := f.segAddr[host][ref.Hash]; ok {
		return addr, false, true
	}
	size := ref.Size
	if size == 0 {
		size = 1 // zero-size chunks still need a distinct address
	}
	if f.cursor[host]+size > f.world.SegmentSize(host) {
		return gasnet.Addr{}, false, false
	}
	addr := gasnet.Addr{Rank: host, Offset: f.cursor[host]}
	f.cursor[host] += size
	f.segAddr[host][ref.Hash] = addr
	return addr, true, true
}

// Publish records that host now holds the entry key with the given
// chunk refs, writing any chunks not yet in the host's segment. The
// chunk bytes must be resident in the tier; if any is not (or the
// segment is full) the publish is skipped — the entry simply stays
// unavailable for peer fetch, never wrong.
func (f *Federation) Publish(host int, key [sha256.Size]byte, refs []Ref) error {
	if host < 0 || host >= f.world.Size() {
		return fmt.Errorf("cas: publish from host %d of %d", host, f.world.Size())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.entries[key]
	if ok {
		for _, h := range ent.holders {
			if h.host == host {
				return nil // already published here
			}
		}
	}
	addrs := make([]gasnet.Addr, len(refs))
	var writeAddrs []gasnet.Addr
	var writeBufs [][]byte
	var size int64
	for i, ref := range refs {
		data, resident := f.tier.View(ref)
		if !resident {
			return nil // not admitted: skip, peer fetch just misses
		}
		addr, fresh, fits := f.allocLocked(host, ref)
		if !fits {
			return nil // segment full: this host can't serve the entry
		}
		addrs[i] = addr
		size += ref.Size
		if fresh {
			writeAddrs = append(writeAddrs, addr)
			writeBufs = append(writeBufs, data)
		}
	}
	if len(writeAddrs) > 0 {
		// Writing into the host's own segment is a local (memory
		// bandwidth) charge on the host's clock.
		if _, err := f.world.Putv(host, writeAddrs, writeBufs); err != nil {
			return fmt.Errorf("cas: publish to host %d: %w", host, err)
		}
	}
	if !ok {
		ent = &fedEntry{refs: append([]Ref(nil), refs...), size: size}
		f.entries[key] = ent
	}
	ent.holders = append(ent.holders, fedHolder{host: host, addrs: addrs})
	f.publishes++
	return nil
}

// FetchKind classifies a Fetch outcome.
type FetchKind int

const (
	// FetchMiss: no federated holder; the caller falls back to its
	// local entry or recompute.
	FetchMiss FetchKind = iota
	// FetchLocal: the caller itself holds the entry; cost is a local
	// memory read.
	FetchLocal
	// FetchRemote: the entry moved from the cheapest peer over gasnet.
	FetchRemote
)

func (k FetchKind) String() string {
	switch k {
	case FetchLocal:
		return "local"
	case FetchRemote:
		return "remote"
	default:
		return "miss"
	}
}

// FetchResult describes where an entry came from and what it cost.
type FetchResult struct {
	Kind  FetchKind
	From  int     // serving host (meaningless on miss)
	Cost  float64 // virtual seconds charged to the caller
	Bytes int64
}

// Fetch locates entry key for caller. On a remote hit the chunk bytes
// move over the gasnet vectored path from the cheapest holder (ties
// break toward the lowest host index, so the choice is deterministic
// for a given holder set), are verified against their digests,
// re-inserted into the tier, and the caller becomes a holder. The
// caller's virtual clock is advanced by the transfer cost in every
// non-miss case.
func (f *Federation) Fetch(caller int, key [sha256.Size]byte) (FetchResult, error) {
	if caller < 0 || caller >= f.world.Size() {
		return FetchResult{}, fmt.Errorf("cas: fetch from host %d of %d", caller, f.world.Size())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.entries[key]
	if !ok || len(ent.holders) == 0 {
		f.misses++
		return FetchResult{Kind: FetchMiss}, nil
	}
	// Caller already holds it: local memory read.
	for _, h := range ent.holders {
		if h.host == caller {
			cost := f.transferCost(caller, caller, ent.size)
			if node, err := f.world.Node(caller); err == nil {
				node.Advance(cost)
			}
			f.localHits++
			return FetchResult{Kind: FetchLocal, From: caller, Cost: cost, Bytes: ent.size}, nil
		}
	}
	// Cheapest peer under the alpha-beta model, lowest index on ties.
	best := ent.holders[0]
	bestCost := f.transferCost(caller, best.host, ent.size)
	for _, h := range ent.holders[1:] {
		if c := f.transferCost(caller, h.host, ent.size); c < bestCost ||
			(c == bestCost && h.host < best.host) {
			best, bestCost = h, c
		}
	}
	bufs := make([][]byte, len(ent.refs))
	for i, ref := range ent.refs {
		bufs[i] = make([]byte, ref.Size)
	}
	cost, err := f.world.Getv(caller, best.addrs, bufs)
	if err != nil {
		return FetchResult{}, fmt.Errorf("cas: fetch %x from host %d: %w", key[:4], best.host, err)
	}
	for i, ref := range ent.refs {
		if Sum(bufs[i]) != ref {
			return FetchResult{}, fmt.Errorf("cas: fetch %x: chunk %d digest mismatch from host %d",
				key[:4], i, best.host)
		}
		f.tier.Put(bufs[i]) // re-warm the shared tier with the verified bytes
	}
	f.remoteFetch++
	f.remoteBytes += ent.size
	f.fetchSeconds += cost
	// The caller now holds the entry: register it (local segment copy).
	addrs := make([]gasnet.Addr, len(ent.refs))
	var writeAddrs []gasnet.Addr
	var writeBufs [][]byte
	complete := true
	for i, ref := range ent.refs {
		addr, fresh, fits := f.allocLocked(caller, ref)
		if !fits {
			complete = false
			break
		}
		addrs[i] = addr
		if fresh {
			writeAddrs = append(writeAddrs, addr)
			writeBufs = append(writeBufs, bufs[i])
		}
	}
	if complete {
		if len(writeAddrs) > 0 {
			if _, err := f.world.Putv(caller, writeAddrs, writeBufs); err != nil {
				return FetchResult{}, fmt.Errorf("cas: caching fetch on host %d: %w", caller, err)
			}
		}
		ent.holders = append(ent.holders, fedHolder{host: caller, addrs: addrs})
	}
	return FetchResult{Kind: FetchRemote, From: best.host, Cost: cost, Bytes: ent.size}, nil
}

// Present reports whether host holds entry key.
func (f *Federation) Present(host int, key [sha256.Size]byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.entries[key]
	if !ok {
		return false
	}
	for _, h := range ent.holders {
		if h.host == host {
			return true
		}
	}
	return false
}

// FedStats is a point-in-time aggregate of federation activity.
type FedStats struct {
	Publishes     int64
	LocalHits     int64
	RemoteFetches int64
	Misses        int64
	RemoteBytes   int64
	FetchSeconds  float64
	SegmentBytes  int64 // segment space allocated across hosts
}

// Stats sums the federation counters.
func (f *Federation) Stats() FedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FedStats{
		Publishes:     f.publishes,
		LocalHits:     f.localHits,
		RemoteFetches: f.remoteFetch,
		Misses:        f.misses,
		RemoteBytes:   f.remoteBytes,
		FetchSeconds:  f.fetchSeconds,
	}
	for _, c := range f.cursor {
		st.SegmentBytes += c
	}
	return st
}
