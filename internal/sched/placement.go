package sched

import (
	"sort"

	"popper/internal/cluster"
)

// placementRefBytes is the reference transfer size the cost order
// weighs bandwidth against latency with — one dataset block.
const placementRefBytes = 64 << 10

// hostCost is the alpha-beta cost of moving a reference block between
// two machine profiles — the same shape as cluster.Network.RDMACost,
// computed from profiles alone so re-placement needs no live nodes.
func hostCost(a, b *cluster.MachineProfile) float64 {
	if a == b {
		return placementRefBytes / a.MemBWBps
	}
	rtt := 2 * (a.NICLatS + b.NICLatS)
	bw := b.NICBWBps
	if a.NICBWBps < bw {
		bw = a.NICBWBps
	}
	return rtt + placementRefBytes/bw
}

// costOrder returns every host rank sorted by rising transfer cost from
// rank `from` (ties broken by rank index, so the order is deterministic
// for uniform fleets). order[0] is `from` itself: loopback is a memory
// copy, always the cheapest.
func costOrder(hosts []HostSpec, from int) []int {
	order := make([]int, len(hosts))
	for i := range order {
		order[i] = i
	}
	src := hosts[from].Profile
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		// `from` sorts first unconditionally: uniform fleets share one
		// profile value, which would otherwise tie loopback with every
		// remote host.
		if a == from || b == from {
			return a == from
		}
		ci, cj := hostCost(src, hosts[a].Profile), hostCost(src, hosts[b].Profile)
		if ci != cj {
			return ci < cj
		}
		return a < b
	})
	return order
}

// place queues n tasks round robin across the per-host deques, in index
// order. Placement is a pure function of (n, fleet size), so the initial
// schedule is identical across runs, worker counts and machine load —
// stealing and speculation then adapt it without perturbing journaled
// artifacts (results are keyed by task index, never by host).
func place(n int, hosts []*schedHost) {
	for i := 0; i < n; i++ {
		h := hosts[i%len(hosts)]
		h.dq.push(i)
		h.placed++
	}
}
