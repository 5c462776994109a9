package gassyfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/metrics"
)

func mount(t *testing.T, ranks int, opts Options) (*FS, *Client) {
	t.Helper()
	c := cluster.New(21)
	nodes, err := c.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), opts.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(16 << 20); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	return fs, cl
}

func TestMountValidation(t *testing.T) {
	c := cluster.New(1)
	nodes, _ := c.Provision("xeon-2005", 1)
	w, _ := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if _, err := Mount(w, Options{}); err == nil {
		t.Fatal("mount without segments must fail")
	}
	w.AttachAll(1 << 20)
	if _, err := Mount(w, Options{BlockSize: 16}); err == nil {
		t.Fatal("tiny block size must fail")
	}
	if _, err := Mount(w, Options{MetadataRank: 5}); err == nil {
		t.Fatal("bad metadata rank must fail")
	}
	fs, err := Mount(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fs.BlockSize() != 64<<10 {
		t.Fatalf("default block size = %d", fs.BlockSize())
	}
	if _, err := fs.Client(3); err == nil {
		t.Fatal("bad client rank must fail")
	}
}

func TestWriteReadFile(t *testing.T) {
	_, cl := mount(t, 2, Options{})
	data := []byte("int main() { return 0; }\n")
	if err := cl.WriteFile("/src/main.c", data); err == nil {
		t.Fatal("write without parent dir must fail")
	}
	if err := cl.MkdirAll("/src"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/src/main.c", data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/src/main.c")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read = %q, %v", got, err)
	}
	st, err := cl.Stat("/src/main.c")
	if err != nil || st.Size != int64(len(data)) || st.IsDir {
		t.Fatalf("stat = %+v, %v", st, err)
	}
}

func TestLargeFileSpansBlocks(t *testing.T) {
	fs, cl := mount(t, 4, Options{BlockSize: 4096})
	data := make([]byte, 3*4096+123) // 4 blocks
	for i := range data {
		data[i] = byte(i * 7)
	}
	cl.MkdirAll("/d")
	if err := cl.WriteFile("/d/big", data); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stat("/d/big")
	if st.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", st.Blocks)
	}
	got, err := cl.ReadFile("/d/big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large read mismatch (err=%v)", err)
	}
	// blocks striped across ranks (round robin)
	used := fs.UsedBlocks()
	maxUsed := 0
	for _, u := range used {
		if u > maxUsed {
			maxUsed = u
		}
	}
	if maxUsed > 1 {
		t.Fatalf("round robin should stripe: %v", used)
	}
}

func TestPartialAndOffsetIO(t *testing.T) {
	_, cl := mount(t, 2, Options{BlockSize: 1024})
	cl.MkdirAll("/f")
	cl.WriteFile("/f/x", bytes.Repeat([]byte("A"), 2000))
	// overwrite the middle across a block boundary
	if err := cl.WriteAt("/f/x", 1000, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	got, _ := cl.ReadAt("/f/x", 998, 8)
	if string(got) != "AABBBBAA" {
		t.Fatalf("read = %q", got)
	}
	// read past EOF is short
	got, err := cl.ReadAt("/f/x", 1990, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("eof read = %d bytes, %v", len(got), err)
	}
	// read at/after EOF returns empty
	got, err = cl.ReadAt("/f/x", 5000, 10)
	if err != nil || got != nil {
		t.Fatalf("past-eof = %v, %v", got, err)
	}
	// sparse extension via WriteAt beyond EOF
	if err := cl.WriteAt("/f/x", 4096, []byte("end")); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stat("/f/x")
	if st.Size != 4099 {
		t.Fatalf("size = %d", st.Size)
	}
}

func TestAppend(t *testing.T) {
	_, cl := mount(t, 1, Options{})
	cl.WriteFile("/log", []byte("one\n"))
	cl.Append("/log", []byte("two\n"))
	got, _ := cl.ReadFile("/log")
	if string(got) != "one\ntwo\n" {
		t.Fatalf("append = %q", got)
	}
}

func TestCreateTruncatesAndFreesBlocks(t *testing.T) {
	fs, cl := mount(t, 2, Options{BlockSize: 1024})
	cl.WriteFile("/f", make([]byte, 10*1024))
	before := sum(fs.UsedBlocks())
	if before != 10 {
		t.Fatalf("blocks = %d", before)
	}
	cl.Create("/f") // truncate
	if after := sum(fs.UsedBlocks()); after != 0 {
		t.Fatalf("blocks after truncate = %d", after)
	}
	st, _ := cl.Stat("/f")
	if st.Size != 0 {
		t.Fatalf("size = %d", st.Size)
	}
}

func TestTruncate(t *testing.T) {
	fs, cl := mount(t, 2, Options{BlockSize: 1024})
	cl.WriteFile("/f", bytes.Repeat([]byte("z"), 3000))
	if err := cl.Truncate("/f", 1000); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stat("/f")
	if st.Size != 1000 || st.Blocks != 1 {
		t.Fatalf("stat = %+v", st)
	}
	if got := sum(fs.UsedBlocks()); got != 1 {
		t.Fatalf("used = %d", got)
	}
	got, _ := cl.ReadFile("/f")
	if len(got) != 1000 || got[999] != 'z' {
		t.Fatalf("content after truncate: %d bytes", len(got))
	}
	// grow
	if err := cl.Truncate("/f", 5000); err != nil {
		t.Fatal(err)
	}
	st, _ = cl.Stat("/f")
	if st.Size != 5000 || st.Blocks != 5 {
		t.Fatalf("grown stat = %+v", st)
	}
	if err := cl.Truncate("/f", -1); err == nil {
		t.Fatal("negative truncate must fail")
	}
	if err := cl.Truncate("/nope", 0); err == nil {
		t.Fatal("truncate of missing file must fail")
	}
}

func TestDirectoryOps(t *testing.T) {
	_, cl := mount(t, 1, Options{})
	if err := cl.Mkdir("/a/b"); err == nil {
		t.Fatal("mkdir without parent must fail")
	}
	cl.Mkdir("/a")
	cl.Mkdir("/a/b")
	if err := cl.Mkdir("/a"); err == nil {
		t.Fatal("duplicate mkdir must fail")
	}
	cl.WriteFile("/a/f1", []byte("x"))
	cl.WriteFile("/a/f2", []byte("y"))
	entries, err := cl.Readdir("/a")
	if err != nil || len(entries) != 3 {
		t.Fatalf("readdir = %+v, %v", entries, err)
	}
	if entries[0].Path != "/a/b" || !entries[0].IsDir {
		t.Fatalf("entries = %+v", entries)
	}
	if _, err := cl.Readdir("/a/f1"); err == nil {
		t.Fatal("readdir of file must fail")
	}
	// remove: non-empty dir protected
	if err := cl.Remove("/a"); err == nil {
		t.Fatal("removing non-empty dir must fail")
	}
	cl.Remove("/a/f1")
	cl.Remove("/a/f2")
	cl.Remove("/a/b")
	if err := cl.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("/"); err == nil {
		t.Fatal("removing root must fail")
	}
	if err := cl.Remove("/ghost"); err == nil {
		t.Fatal("removing missing path must fail")
	}
}

func TestMkdirAllIdempotent(t *testing.T) {
	_, cl := mount(t, 1, Options{})
	if err := cl.MkdirAll("/x/y/z"); err != nil {
		t.Fatal(err)
	}
	if err := cl.MkdirAll("/x/y/z"); err != nil {
		t.Fatal(err)
	}
	cl.WriteFile("/x/file", []byte("f"))
	if err := cl.MkdirAll("/x/file/sub"); err == nil {
		t.Fatal("mkdirall through a file must fail")
	}
}

func TestRename(t *testing.T) {
	_, cl := mount(t, 2, Options{})
	cl.MkdirAll("/src/dir")
	cl.WriteFile("/src/dir/f", []byte("data"))
	cl.WriteFile("/src/top", []byte("t"))

	if err := cl.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/src"); err == nil {
		t.Fatal("old path should be gone")
	}
	got, err := cl.ReadFile("/dst/dir/f")
	if err != nil || string(got) != "data" {
		t.Fatalf("moved file = %q, %v", got, err)
	}
	// error cases
	if err := cl.Rename("/ghost", "/x"); err != nil {
		// ok
	} else {
		t.Fatal("renaming missing must fail")
	}
	cl.MkdirAll("/other")
	if err := cl.Rename("/dst", "/other"); err == nil {
		t.Fatal("rename onto existing must fail")
	}
	if err := cl.Rename("/dst", "/dst/inside"); err == nil {
		t.Fatal("rename into itself must fail")
	}
	if err := cl.Rename("/", "/x"); err == nil {
		t.Fatal("renaming root must fail")
	}
	if err := cl.Rename("/dst", "/noparent/x"); err == nil {
		t.Fatal("rename without target parent must fail")
	}
}

func TestPathValidation(t *testing.T) {
	_, cl := mount(t, 1, Options{})
	for _, bad := range []string{"", "../escape", "/.."} {
		if err := cl.Mkdir(bad); err == nil {
			t.Errorf("Mkdir(%q) should fail", bad)
		}
	}
	// relative paths are rooted
	if err := cl.Mkdir("relative"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/relative"); err != nil {
		t.Fatal("relative path should root at /")
	}
}

func TestLocalFirstPolicy(t *testing.T) {
	fs, _ := mount(t, 4, Options{BlockSize: 4096, Policy: AllocLocalFirst})
	cl2, _ := fs.Client(2)
	cl2.MkdirAll("/d")
	cl2.WriteFile("/d/f", make([]byte, 10*4096))
	used := fs.UsedBlocks()
	if used[2] != 10 {
		t.Fatalf("local-first should place all on rank 2: %v", used)
	}
}

func TestRoundRobinBalances(t *testing.T) {
	fs, cl := mount(t, 4, Options{BlockSize: 4096, Policy: AllocRoundRobin})
	cl.MkdirAll("/d")
	cl.WriteFile("/d/f", make([]byte, 16*4096))
	used := fs.UsedBlocks()
	for r, u := range used {
		if u != 4 {
			t.Fatalf("rank %d has %d blocks, want 4: %v", r, u, used)
		}
	}
}

func TestOutOfSpace(t *testing.T) {
	c := cluster.New(31)
	nodes, _ := c.Provision("cloudlab-c220g1", 1)
	w, _ := gasnet.New(nodes, cluster.NewNetwork(), nil)
	w.AttachAll(8 << 10) // 8 KiB = 2 blocks of 4 KiB
	fs, err := Mount(w, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := fs.Client(0)
	if err := cl.WriteFile("/f", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/g", []byte("x")); err == nil {
		t.Fatal("allocation beyond aggregate memory must fail")
	}
	// freeing makes space again
	if err := cl.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/g", []byte("x")); err != nil {
		t.Fatalf("allocation after free: %v", err)
	}
}

func TestRemoteClientPaysMore(t *testing.T) {
	// A client colocated with all blocks (local-first on rank 0) is
	// faster than a remote client reading the same data.
	c := cluster.New(33)
	nodes, _ := c.Provision("cloudlab-c220g1", 2)
	w, _ := gasnet.New(nodes, cluster.NewNetwork(), nil)
	w.AttachAll(32 << 20)
	fs, _ := Mount(w, Options{Policy: AllocLocalFirst})
	cl0, _ := fs.Client(0)
	cl1, _ := fs.Client(1)
	data := make([]byte, 4<<20)
	cl0.WriteFile("/big", data)

	t0 := nodes[0].Now()
	cl0.ReadFile("/big")
	localCost := nodes[0].Now() - t0

	t1 := nodes[1].Now()
	cl1.ReadFile("/big")
	remoteCost := nodes[1].Now() - t1

	if remoteCost <= localCost*2 {
		t.Fatalf("remote read %v should cost much more than local %v", remoteCost, localCost)
	}
}

func TestCheckpointRestore(t *testing.T) {
	_, cl := mount(t, 3, Options{})
	cl.MkdirAll("/proj/src")
	cl.WriteFile("/proj/src/a.c", []byte("alpha"))
	cl.WriteFile("/proj/src/b.c", []byte("beta"))
	cl.MkdirAll("/proj/empty")

	ck, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Files) != 2 || len(ck.Dirs) != 3 {
		t.Fatalf("checkpoint = %d files, %v dirs", len(ck.Files), ck.Dirs)
	}

	// restore into a fresh fs
	_, cl2 := mount(t, 2, Options{})
	if err := cl2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	got, err := cl2.ReadFile("/proj/src/b.c")
	if err != nil || string(got) != "beta" {
		t.Fatalf("restored = %q, %v", got, err)
	}
	if _, err := cl2.Readdir("/proj/empty"); err != nil {
		t.Fatal("empty dir should be restored")
	}
	if err := cl2.Restore(nil); err == nil {
		t.Fatal("nil checkpoint must fail")
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := metrics.NewRegistry(nil, nil)
	_, cl := mount(t, 2, Options{Registry: reg})
	cl.WriteFile("/f", []byte("hello"))
	cl.ReadFile("/f")
	if reg.Counter("gassyfs_write_bytes") != 5 {
		t.Fatalf("write bytes = %v", reg.Counter("gassyfs_write_bytes"))
	}
	if reg.Counter("gassyfs_read_bytes") != 5 {
		t.Fatalf("read bytes = %v", reg.Counter("gassyfs_read_bytes"))
	}
	if reg.Counter("gassyfs_meta_ops") == 0 {
		t.Fatal("metadata ops not counted")
	}
}

func TestWalk(t *testing.T) {
	_, cl := mount(t, 1, Options{})
	cl.MkdirAll("/a/b")
	cl.WriteFile("/a/b/f", []byte("x"))
	var visited []string
	err := cl.Walk("/a", func(st Stat) error {
		visited = append(visited, st.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/b", "/a/b/f"}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("walk = %v", visited)
	}
	if err := cl.Walk("/ghost", func(Stat) error { return nil }); err == nil {
		t.Fatal("walk of missing root must fail")
	}
	// error propagation
	err = cl.Walk("/a", func(st Stat) error { return fmt.Errorf("stop") })
	if err == nil || err.Error() != "stop" {
		t.Fatalf("walk error = %v", err)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Property: WriteFile/ReadFile is the identity for arbitrary contents
// and block-straddling sizes.
func TestQuickFileRoundTrip(t *testing.T) {
	_, cl := mount(t, 3, Options{BlockSize: 512})
	cl.MkdirAll("/q")
	i := 0
	f := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/q/f%d", i)
		if err := cl.WriteFile(p, data); err != nil {
			return false
		}
		got, err := cl.ReadFile(p)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total used blocks equals ceil(size/bs) summed over files.
func TestQuickBlockAccounting(t *testing.T) {
	fs, cl := mount(t, 2, Options{BlockSize: 1024})
	cl.MkdirAll("/q")
	count := 0
	var expect int
	f := func(sz uint16) bool {
		count++
		n := int(sz) % 5000
		if err := cl.WriteFile(fmt.Sprintf("/q/f%d", count), make([]byte, n)); err != nil {
			return false
		}
		expect += (n + 1023) / 1024
		return sum(fs.UsedBlocks()) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	fs, root := mount(t, 4, Options{BlockSize: 4096})
	if err := root.MkdirAll("/shared"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rank := 0; rank < 4; rank++ {
		cl, err := fs.Client(rank)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rank int, cl *Client) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				p := fmt.Sprintf("/shared/r%d-f%d", rank, i)
				data := bytes.Repeat([]byte{byte(rank)}, 5000)
				if err := cl.WriteFile(p, data); err != nil {
					errs <- err
					return
				}
				got, err := cl.ReadFile(p)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("round trip %s failed: %v", p, err)
					return
				}
			}
		}(rank, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	entries, err := root.Readdir("/shared")
	if err != nil || len(entries) != 64 {
		t.Fatalf("entries = %d, %v", len(entries), err)
	}
}

func TestFsckCleanFS(t *testing.T) {
	fs, cl := mount(t, 3, Options{BlockSize: 1024})
	cl.MkdirAll("/a/b")
	cl.WriteFile("/a/b/f", make([]byte, 5000))
	cl.WriteFile("/a/g", []byte("x"))
	cl.Truncate("/a/b/f", 1500)
	cl.Remove("/a/g")
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random op sequence leaves the filesystem fsck-clean and
// block accounting exact.
func TestQuickFsckAfterRandomOps(t *testing.T) {
	f := func(ops []uint16) bool {
		fs, cl := mount(t, 2, Options{BlockSize: 512})
		cl.MkdirAll("/q")
		for i, op := range ops {
			p := fmt.Sprintf("/q/f%d", int(op)%7)
			switch op % 5 {
			case 0:
				cl.WriteFile(p, make([]byte, int(op)%3000))
			case 1:
				cl.Truncate(p, int64(op)%2000)
			case 2:
				cl.Remove(p)
			case 3:
				cl.Append(p, make([]byte, int(op)%700))
			case 4:
				cl.Rename(p, fmt.Sprintf("/q/r%d", i))
			}
		}
		return fs.Fsck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
