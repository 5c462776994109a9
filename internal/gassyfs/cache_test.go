package gassyfs

import (
	"bytes"
	"testing"
)

func TestCacheHitsServeReads(t *testing.T) {
	fs, _ := mount(t, 2, Options{BlockSize: 64 << 10, CacheBlocks: 64})
	cl, _ := fs.Client(1) // remote from rank-0 blocks under round robin
	cl.MkdirAll("/d")
	data := bytes.Repeat([]byte("x"), 4<<20) // data transfer dominates metadata
	if err := cl.WriteFile("/d/f", data); err != nil {
		t.Fatal(err)
	}
	node, _ := fs.World().Node(1)

	before := node.Now()
	got, err := cl.ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first read: %v", err)
	}
	cold := node.Now() - before

	before = node.Now()
	got, err = cl.ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second read: %v", err)
	}
	warm := node.Now() - before

	if warm >= cold/5 {
		t.Fatalf("cached read %v should be far cheaper than cold %v", warm, cold)
	}
	st := cl.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Blocks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheWriteThrough(t *testing.T) {
	fs, _ := mount(t, 1, Options{BlockSize: 1024, CacheBlocks: 8})
	cl, _ := fs.Client(0)
	cl.WriteFile("/f", bytes.Repeat([]byte("A"), 2048))
	cl.ReadFile("/f") // populate cache
	// local write must be visible through the cache
	if err := cl.WriteAt("/f", 1000, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	got, _ := cl.ReadAt("/f", 998, 8)
	if string(got) != "AABBBBAA" {
		t.Fatalf("read-after-write through cache = %q", got)
	}
}

func TestCacheFlushedOnFree(t *testing.T) {
	fs, _ := mount(t, 1, Options{BlockSize: 1024, CacheBlocks: 8})
	cl, _ := fs.Client(0)
	cl.WriteFile("/a", bytes.Repeat([]byte("1"), 1024))
	cl.ReadFile("/a") // cache /a's block
	// free the block and let a new file reuse it
	if err := cl.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/b", bytes.Repeat([]byte("2"), 1024)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/b")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c != '2' {
			t.Fatal("stale cached bytes served after block reuse")
		}
	}
}

func TestCacheEviction(t *testing.T) {
	fs, _ := mount(t, 1, Options{BlockSize: 1024, CacheBlocks: 2})
	cl, _ := fs.Client(0)
	cl.WriteFile("/f", bytes.Repeat([]byte("z"), 8*1024)) // 8 blocks
	if _, err := cl.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if st := cl.CacheStats(); st.Blocks > 2 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	// contents still correct despite eviction churn
	got, _ := cl.ReadFile("/f")
	if len(got) != 8*1024 || got[0] != 'z' || got[8*1024-1] != 'z' {
		t.Fatal("eviction corrupted reads")
	}
}

func TestCacheDisabledStats(t *testing.T) {
	fs, cl := mount(t, 1, Options{})
	_ = fs
	if st := cl.CacheStats(); st.Hits != 0 || st.Blocks != 0 {
		t.Fatalf("disabled cache stats = %+v", st)
	}
}

func TestCacheCorrectnessRandomOps(t *testing.T) {
	// mirror of the fsck property but with caching enabled: a cached
	// client and an uncached one must observe identical contents.
	fsC, _ := mount(t, 2, Options{BlockSize: 512, CacheBlocks: 4})
	cached, _ := fsC.Client(0)
	fsU, _ := mount(t, 2, Options{BlockSize: 512})
	plain, _ := fsU.Client(0)

	cached.MkdirAll("/q")
	plain.MkdirAll("/q")
	ops := []uint16{3, 700, 1499, 2, 90, 4000, 77, 1200, 5, 2999, 42, 511, 513, 1024}
	for i, op := range ops {
		p := "/q/f"
		switch op % 4 {
		case 0:
			buf := bytes.Repeat([]byte{byte(i)}, int(op)%1500)
			cached.WriteFile(p, buf)
			plain.WriteFile(p, buf)
		case 1:
			cached.Remove(p)
			plain.Remove(p)
		case 2:
			buf := bytes.Repeat([]byte{byte(i)}, int(op)%300)
			cached.Append(p, buf)
			plain.Append(p, buf)
		case 3:
			a, _ := cached.ReadFile(p)
			b, _ := plain.ReadFile(p)
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: cached %d bytes != plain %d bytes", i, len(a), len(b))
			}
		}
	}
	a, _ := cached.ReadFile("/q/f")
	b, _ := plain.ReadFile("/q/f")
	if !bytes.Equal(a, b) {
		t.Fatal("final contents diverge")
	}
	if err := fsC.Fsck(); err != nil {
		t.Fatal(err)
	}
}
