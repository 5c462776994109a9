package gasnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"popper/internal/cluster"
	"popper/internal/metrics"
)

func world(t *testing.T, n int, segSize int64) (*World, []*cluster.Node) {
	t.Helper()
	c := cluster.New(11)
	nodes, err := c.Provision("cloudlab-c220g1", n)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if segSize > 0 {
		if err := w.AttachAll(segSize); err != nil {
			t.Fatal(err)
		}
	}
	return w, nodes
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, cluster.NewNetwork(), nil); err == nil {
		t.Fatal("empty world should fail")
	}
	c := cluster.New(1)
	nodes, _ := c.Provision("xeon-2005", 1)
	if _, err := New(nodes, nil, nil); err == nil {
		t.Fatal("nil network should fail")
	}
}

func TestAttachSegment(t *testing.T) {
	w, nodes := world(t, 2, 0)
	if err := w.AttachSegment(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := w.AttachSegment(0, 1<<20); err == nil {
		t.Fatal("double attach must fail")
	}
	if err := w.AttachSegment(5, 1<<20); err == nil {
		t.Fatal("bad rank must fail")
	}
	if err := w.AttachSegment(1, 0); err == nil {
		t.Fatal("zero size must fail")
	}
	if err := w.AttachSegment(1, nodes[1].Profile().RAMBytes*2); err == nil {
		t.Fatal("oversized segment must fail")
	}
	if w.SegmentSize(0) != 1<<20 || w.SegmentSize(1) != 0 {
		t.Fatalf("sizes = %d, %d", w.SegmentSize(0), w.SegmentSize(1))
	}
	if w.SegmentSize(-1) != 0 {
		t.Fatal("bad rank size should be 0")
	}
	// RAM accounting
	if nodes[0].UsedBytes() != 1<<20 {
		t.Fatalf("used = %d", nodes[0].UsedBytes())
	}
}

func TestTotalMemoryAggregates(t *testing.T) {
	w, _ := world(t, 4, 1<<24)
	if w.TotalMemory() != 4<<24 {
		t.Fatalf("total = %d", w.TotalMemory())
	}
	if w.Size() != 4 {
		t.Fatalf("size = %d", w.Size())
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	w, _ := world(t, 3, 1<<20)
	data := []byte("gassyfs block payload")
	addr := Addr{Rank: 2, Offset: 4096}
	if err := w.Put(0, addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := w.Get(1, addr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	w, _ := world(t, 1, 1<<16)
	w.Put(0, Addr{0, 0}, []byte("abc"))
	got, _ := w.Get(0, Addr{0, 0}, 3)
	got[0] = 'X'
	again, _ := w.Get(0, Addr{0, 0}, 3)
	if string(again) != "abc" {
		t.Fatal("Get must return an isolated copy")
	}
}

func TestBoundsChecking(t *testing.T) {
	w, _ := world(t, 2, 1024)
	cases := []struct {
		caller int
		addr   Addr
		n      int64
	}{
		{-1, Addr{0, 0}, 4},   // bad caller
		{0, Addr{7, 0}, 4},    // bad target
		{0, Addr{1, -8}, 4},   // negative offset
		{0, Addr{1, 1020}, 8}, // spills past end
		{0, Addr{1, 0}, -1},   // negative length
		{0, Addr{1, 2048}, 1}, // offset past end
	}
	for i, c := range cases {
		if _, err := w.Get(c.caller, c.addr, c.n); err == nil {
			t.Errorf("case %d: Get should fail", i)
		}
		if c.n < 0 {
			continue // a negative length cannot be expressed as a Put payload
		}
		if err := w.Put(c.caller, c.addr, make([]byte, max64(c.n, 1))); err == nil {
			t.Errorf("case %d: Put should fail", i)
		}
	}
	// no segment attached
	w2, _ := world(t, 1, 0)
	if _, err := w2.Get(0, Addr{0, 0}, 1); err == nil {
		t.Fatal("access without segment must fail")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestRemoteCostsMoreThanLocal(t *testing.T) {
	w, nodes := world(t, 2, 1<<22)
	data := make([]byte, 1<<20)

	before := nodes[0].Now()
	w.Put(0, Addr{Rank: 0, Offset: 0}, data)
	localCost := nodes[0].Now() - before

	before = nodes[0].Now()
	w.Put(0, Addr{Rank: 1, Offset: 0}, data)
	remoteCost := nodes[0].Now() - before

	if remoteCost <= localCost*2 {
		t.Fatalf("remote put %v should be much slower than local %v", remoteCost, localCost)
	}
	// one-sidedness: target clock untouched by remote put
	if nodes[1].Now() != 0 {
		t.Fatalf("target clock = %v, must stay 0", nodes[1].Now())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w, nodes := world(t, 4, 1<<16)
	nodes[2].Advance(3)
	end := w.Barrier()
	for _, n := range nodes {
		if n.Now() != end {
			t.Fatalf("node at %v, barrier end %v", n.Now(), end)
		}
	}
	if w.MaxClock() != end {
		t.Fatalf("MaxClock = %v", w.MaxClock())
	}
}

func TestCompute(t *testing.T) {
	w, _ := world(t, 2, 1<<16)
	d, err := w.Compute(1, cluster.Work{CPUOps: 1e8})
	if err != nil || d <= 0 {
		t.Fatalf("compute = %v, %v", d, err)
	}
	if _, err := w.Compute(9, cluster.Work{}); err == nil {
		t.Fatal("bad rank must fail")
	}
	if _, err := w.Node(0); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsInstrumentation(t *testing.T) {
	c := cluster.New(13)
	nodes, _ := c.Provision("cloudlab-c220g1", 2)
	reg := metrics.NewRegistry(metrics.Labels{"exp": "gasnet"}, nil)
	w, err := New(nodes, cluster.NewNetwork(), reg)
	if err != nil {
		t.Fatal(err)
	}
	w.AttachAll(1 << 20)
	w.Put(0, Addr{0, 0}, []byte("local"))
	w.Put(0, Addr{1, 0}, []byte("remote!"))
	w.Get(0, Addr{1, 0}, 7)

	if got := reg.Counter("gasnet_put_ops_local"); got != 1 {
		t.Fatalf("local puts = %v", got)
	}
	if got := reg.Counter("gasnet_put_ops_remote"); got != 1 {
		t.Fatalf("remote puts = %v", got)
	}
	if got := reg.Counter("gasnet_get_bytes_remote"); got != 7 {
		t.Fatalf("remote get bytes = %v", got)
	}
	if n := len(reg.Series("gasnet_put_seconds", nil)); n != 2 {
		t.Fatalf("put timings = %d", n)
	}
}

// Property: Put then Get at any in-bounds (offset, length) returns the
// written bytes.
func TestQuickPutGetIdentity(t *testing.T) {
	w, _ := world(t, 3, 1<<16)
	f := func(rank uint8, off uint16, payload []byte) bool {
		r := int(rank) % 3
		o := int64(off) % (1<<16 - 256)
		if len(payload) > 256 {
			payload = payload[:256]
		}
		if len(payload) == 0 {
			return true
		}
		addr := Addr{Rank: r, Offset: o}
		if err := w.Put(0, addr, payload); err != nil {
			return false
		}
		got, err := w.Get(1, addr, int64(len(payload)))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
