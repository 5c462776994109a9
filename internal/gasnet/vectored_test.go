package gasnet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"popper/internal/cluster"
	"popper/internal/metrics"
)

func TestPutFromGetIntoRoundTrip(t *testing.T) {
	w, nodes := world(t, 2, 1<<20)
	payload := bytes.Repeat([]byte("zero-copy"), 1000)
	if err := w.PutFrom(0, Addr{Rank: 1, Offset: 128}, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if err := w.GetInto(0, Addr{Rank: 1, Offset: 128}, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("round trip mismatch")
	}
	if nodes[0].Now() == 0 {
		t.Fatal("caller clock should advance")
	}
	if nodes[1].Now() != 0 {
		t.Fatal("one-sided ops must not disturb the target clock")
	}
}

// buildSpans cuts a payload into per-block (addr, buf) pairs.
func buildSpans(payload []byte, block int64, mkAddr func(i int) Addr) ([]Addr, [][]byte) {
	var addrs []Addr
	var bufs [][]byte
	for i, pos := 0, int64(0); pos < int64(len(payload)); i++ {
		n := block
		if rem := int64(len(payload)) - pos; rem < n {
			n = rem
		}
		addrs = append(addrs, mkAddr(i))
		bufs = append(bufs, payload[pos:pos+n])
		pos += n
	}
	return addrs, bufs
}

// Vectored transfers must be observationally equivalent to the scalar
// per-block loop: same bytes, same metric counters, and the same total
// clock cost (up to float summation rounding).
func TestVectoredMatchesScalar(t *testing.T) {
	const block = 8 << 10
	payload := bytes.Repeat([]byte("abcdefg"), 6*block/7)
	mkAddr := func(i int) Addr { return Addr{Rank: i % 2, Offset: int64(i/2) * block} }

	regScalar := metrics.NewRegistry(nil, nil)
	wS, nodesS := worldWithReg(t, 2, 1<<20, regScalar)
	addrs, bufs := buildSpans(payload, block, mkAddr)
	for i := range addrs {
		if err := wS.Put(0, addrs[i], bufs[i]); err != nil {
			t.Fatal(err)
		}
	}

	regVec := metrics.NewRegistry(nil, nil)
	wV, nodesV := worldWithReg(t, 2, 1<<20, regVec)
	if _, err := wV.Putv(0, addrs, bufs); err != nil {
		t.Fatal(err)
	}

	// bytes identical
	for i := range addrs {
		got := make([]byte, len(bufs[i]))
		want := make([]byte, len(bufs[i]))
		if err := wV.GetInto(1, addrs[i], got); err != nil {
			t.Fatal(err)
		}
		if err := wS.GetInto(1, addrs[i], want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d differs between scalar and vectored put", i)
		}
	}
	// clock cost identical up to summation rounding
	cs, cv := nodesS[0].Now(), nodesV[0].Now()
	if math.Abs(cs-cv) > 1e-12*math.Max(cs, cv) {
		t.Fatalf("clock diverged: scalar %.18g vectored %.18g", cs, cv)
	}
	// counter totals identical (get counters differ: the byte check above
	// ran one extra read pass per world, symmetric on both sides)
	for _, key := range []string{
		"gasnet_put_ops_local", "gasnet_put_ops_remote",
		"gasnet_put_bytes_local", "gasnet_put_bytes_remote",
		"gasnet_get_ops_local", "gasnet_get_ops_remote",
		"gasnet_get_bytes_local", "gasnet_get_bytes_remote",
	} {
		if s, v := regScalar.Counter(key), regVec.Counter(key); s != v {
			t.Fatalf("%s: scalar %v vectored %v", key, s, v)
		}
	}
}

func worldWithReg(t *testing.T, n int, segSize int64, reg *metrics.Registry) (*World, []*cluster.Node) {
	t.Helper()
	c := cluster.New(11)
	nodes, err := c.Provision("cloudlab-c220g1", n)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(nodes, cluster.NewNetwork(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(segSize); err != nil {
		t.Fatal(err)
	}
	return w, nodes
}

// The *DeferClock variants must move bytes and report the cost without
// touching any clock; applying the cost by hand must match the eager
// variant exactly.
func TestVectoredDeferClock(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 40<<10)
	addrs, bufs := buildSpans(payload, 16<<10, func(i int) Addr {
		return Addr{Rank: 1, Offset: int64(i) * (16 << 10)}
	})

	wD, nodesD := world(t, 2, 1<<20)
	cost, err := wD.PutvDeferClock(0, addrs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if nodesD[0].Now() != 0 || nodesD[1].Now() != 0 {
		t.Fatal("deferred op advanced a clock")
	}
	if cost <= 0 {
		t.Fatal("deferred op must report a positive cost")
	}
	out := make([]byte, len(payload))
	if _, err := wD.GetvDeferClock(0, addrs, buildBufs(out, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("deferred put/get round trip mismatch")
	}
	nodesD[0].Advance(cost)

	wE, nodesE := world(t, 2, 1<<20)
	if _, err := wE.Putv(0, addrs, bufs); err != nil {
		t.Fatal(err)
	}
	if nodesD[0].Now() != nodesE[0].Now() {
		t.Fatalf("deferred+applied %.18g != eager %.18g", nodesD[0].Now(), nodesE[0].Now())
	}
}

func buildBufs(out []byte, block int64) [][]byte {
	var bufs [][]byte
	for pos := int64(0); pos < int64(len(out)); {
		n := block
		if rem := int64(len(out)) - pos; rem < n {
			n = rem
		}
		bufs = append(bufs, out[pos:pos+n])
		pos += n
	}
	return bufs
}

// Transfers crossing the internal chunk boundaries must behave exactly
// like a flat buffer, including zero-fill of unmaterialized chunks.
func TestChunkBoundarySpans(t *testing.T) {
	w, _ := world(t, 1, 2<<20) // 8 chunks of 256 KiB
	payload := bytes.Repeat([]byte("spanning"), 80<<10/8)
	off := chunkSize - 1234 // starts near the end of chunk 0
	if err := w.PutFrom(0, Addr{Rank: 0, Offset: off}, payload); err != nil {
		t.Fatal(err)
	}
	// read a window that covers untouched bytes before and after
	buf := make([]byte, int64(len(payload))+4096)
	for i := range buf {
		buf[i] = 0xff // GetInto must overwrite, zeros included
	}
	if err := w.GetInto(0, Addr{Rank: 0, Offset: off - 2048}, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte before write at %d = %#x, want 0", i, buf[i])
		}
	}
	if !bytes.Equal(buf[2048:2048+len(payload)], payload) {
		t.Fatal("payload corrupted across chunk boundary")
	}
	for i := 2048 + len(payload); i < len(buf); i++ {
		if buf[i] != 0 {
			t.Fatalf("byte after write at %d = %#x, want 0", i, buf[i])
		}
	}
}

// A vectored op validates every block before moving any byte or
// advancing any clock: all-or-nothing at the bounds level.
func TestVectoredValidatesUpFront(t *testing.T) {
	w, nodes := world(t, 2, 64<<10)
	good := Addr{Rank: 0, Offset: 0}
	bad := Addr{Rank: 1, Offset: 60 << 10} // 8 KiB span overruns the segment
	data := bytes.Repeat([]byte{1}, 8<<10)
	if _, err := w.Putv(0, []Addr{good, bad}, [][]byte{data, data}); err == nil {
		t.Fatal("out-of-bounds vectored put must fail")
	}
	if nodes[0].Now() != 0 {
		t.Fatal("failed vectored op advanced the clock")
	}
	probe := make([]byte, 8<<10)
	if err := w.GetInto(0, good, probe); err != nil {
		t.Fatal(err)
	}
	for _, b := range probe {
		if b != 0 {
			t.Fatal("failed vectored op wrote bytes")
		}
	}
	if _, err := w.Getv(0, []Addr{good}, [][]byte{data, data}); err == nil {
		t.Fatal("addr/buffer length mismatch must fail")
	}
	if cost, err := w.Getv(0, nil, nil); err != nil || cost != 0 {
		t.Fatalf("empty vectored op: cost=%v err=%v", cost, err)
	}
}

// Concurrent clients hammering disjoint ranges of the same segment must
// be race-free (chunk striping) and end with every range intact.
func TestConcurrentDisjointAccess(t *testing.T) {
	const (
		workers = 8
		region  = 96 << 10 // crosses chunk boundaries between workers
	)
	w, _ := world(t, 2, int64(workers)*region)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, region)
			addr := Addr{Rank: 1, Offset: int64(g) * region}
			for iter := 0; iter < 4; iter++ {
				if err := w.PutFrom(0, addr, payload); err != nil {
					errc <- err
					return
				}
				got := make([]byte, region)
				if err := w.GetInto(0, addr, got); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errc <- fmt.Errorf("worker %d read corrupted data", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// AttachAll attempts every rank and aggregates the failures, naming each
// failing rank, instead of stopping at the first error.
func TestAttachAllAggregatesErrors(t *testing.T) {
	w, _ := world(t, 3, 0)
	if err := w.AttachSegment(1, 4<<10); err != nil {
		t.Fatal(err)
	}
	err := w.AttachAll(1 << 20)
	if err == nil {
		t.Fatal("AttachAll with a pre-attached rank must fail")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not name the failing rank: %v", err)
	}
	if !strings.Contains(err.Error(), "1/3 ranks") {
		t.Fatalf("error does not aggregate counts: %v", err)
	}
	// the healthy ranks still attached
	if w.SegmentSize(0) != 1<<20 || w.SegmentSize(2) != 1<<20 {
		t.Fatalf("healthy ranks not attached: %d %d", w.SegmentSize(0), w.SegmentSize(2))
	}
}
