package gassyfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/sched"
)

// mountRanks builds a fresh world (fixed seed) and mounts it, so two
// calls with the same arguments produce bit-identical simulations.
func mountRanks(t *testing.T, ranks int, opts Options) *FS {
	t.Helper()
	c := cluster.New(33)
	nodes, err := c.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), opts.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(32 << 20); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func clocks(t *testing.T, fs *FS) []float64 {
	t.Helper()
	out := make([]float64, fs.World().Size())
	for r := range out {
		node, err := fs.World().Node(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = node.Now()
	}
	return out
}

// rankScript is a fixed per-rank client workload that stays inside the
// deterministic envelope: every rank touches only its own directory and
// frees no blocks, so its simulated op sequence is independent of how
// the host schedules the ranks.
func rankScript(fs *FS, rank int) error {
	cl, err := fs.Client(rank)
	if err != nil {
		return err
	}
	dir := fmt.Sprintf("/data/r%d", rank)
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("%s/f%d", dir, i)
		size := 3000 + 17000*i + 911*rank // spans sub-block to multi-block
		data := bytes.Repeat([]byte{byte(rank*16 + i + 1)}, size)
		if err := cl.WriteFile(p, data); err != nil {
			return err
		}
		got, err := cl.ReadFile(p)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d file %d: read-back mismatch", rank, i)
		}
		if err := cl.Append(p, data[:100]); err != nil {
			return err
		}
	}
	return nil
}

func runScripted(t *testing.T, ranks, hostJobs int) *FS {
	t.Helper()
	fs := mountRanks(t, ranks, Options{})
	cl0, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if err := cl0.MkdirAll(fmt.Sprintf("/data/r%d", r)); err != nil {
			t.Fatal(err)
		}
	}
	errs := sched.NewPool(hostJobs).Each(ranks, func(r int) error {
		return rankScript(fs, r)
	})
	if err := sched.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// The golden equivalence claim of this PR: driving the per-rank clients
// on one host goroutine or many must produce bit-identical simulated
// state — clocks, block placement, and file contents.
func TestParallelClientsDeterministic(t *testing.T) {
	const ranks = 4
	serial := runScripted(t, ranks, 1)
	parallel := runScripted(t, ranks, 8)

	cs, cp := clocks(t, serial), clocks(t, parallel)
	for r := range cs {
		if cs[r] != cp[r] {
			t.Errorf("rank %d clock: serial %.18g parallel %.18g", r, cs[r], cp[r])
		}
	}
	us, up := serial.UsedBlocks(), parallel.UsedBlocks()
	for r := range us {
		if us[r] != up[r] {
			t.Errorf("rank %d used blocks: serial %d parallel %d", r, us[r], up[r])
		}
	}
	cls, _ := serial.Client(0)
	clp, _ := parallel.Client(0)
	for r := 0; r < ranks; r++ {
		for i := 0; i < 6; i++ {
			p := fmt.Sprintf("/data/r%d/f%d", r, i)
			a, err := cls.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := clp.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s differs between serial and parallel drives", p)
			}
		}
	}
	if err := serial.Fsck(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Checkpoint and restore fan out over the mount's worker pool; the
// deferred-clock design makes the client's simulated clock identical
// for every pool size.
func TestCheckpointRestorePoolSizeInvariant(t *testing.T) {
	build := func(jobs int) (*FS, *Client) {
		fs := mountRanks(t, 2, Options{Jobs: jobs})
		cl, err := fs.Client(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.MkdirAll("/proj/deep/dir"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 5000+31000*i)
			if err := cl.WriteFile(fmt.Sprintf("/proj/deep/dir/f%02d", i), data); err != nil {
				t.Fatal(err)
			}
		}
		return fs, cl
	}

	fs1, cl1 := build(1)
	fs8, cl8 := build(8)
	ck1, err := cl1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck8, err := cl8.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if c1, c8 := clocks(t, fs1)[0], clocks(t, fs8)[0]; c1 != c8 {
		t.Fatalf("checkpoint clock: jobs=1 %.18g jobs=8 %.18g", c1, c8)
	}
	if len(ck1.Files) != len(ck8.Files) {
		t.Fatalf("file count: %d vs %d", len(ck1.Files), len(ck8.Files))
	}
	for p, d1 := range ck1.Files {
		if !bytes.Equal(d1, ck8.Files[p]) {
			t.Fatalf("%s differs between pool sizes", p)
		}
	}

	// Restore into fresh mounts, again at both pool sizes.
	r1 := mountRanks(t, 2, Options{Jobs: 1})
	r8 := mountRanks(t, 2, Options{Jobs: 8})
	rc1, _ := r1.Client(0)
	rc8, _ := r8.Client(0)
	if err := rc1.Restore(ck1); err != nil {
		t.Fatal(err)
	}
	if err := rc8.Restore(ck1); err != nil {
		t.Fatal(err)
	}
	if c1, c8 := clocks(t, r1)[0], clocks(t, r8)[0]; c1 != c8 {
		t.Fatalf("restore clock: jobs=1 %.18g jobs=8 %.18g", c1, c8)
	}
	for p, want := range ck1.Files {
		got, err := rc8.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted by restore", p)
		}
	}
	if err := r8.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint taken while other clients churn the filesystem must be
// race-free and must capture every quiescent file intact.
func TestCheckpointUnderConcurrentMutation(t *testing.T) {
	fs := mountRanks(t, 4, Options{Jobs: 4})
	cl0, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl0.MkdirAll("/stable"); err != nil {
		t.Fatal(err)
	}
	if err := cl0.MkdirAll("/scratch"); err != nil {
		t.Fatal(err)
	}
	stable := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/stable/f%d", i)
		data := bytes.Repeat([]byte{byte(0xa0 + i)}, 9000+20000*i)
		if err := cl0.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
		stable[p] = data
	}

	// Mutators on ranks 1..3 create, rewrite, and remove scratch files
	// while rank 0 checkpoints.
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	for r := 1; r <= 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := fs.Client(r)
			if err != nil {
				errc <- err
				return
			}
			for iter := 0; iter < 12; iter++ {
				p := fmt.Sprintf("/scratch/r%d-%d", r, iter%3)
				data := bytes.Repeat([]byte{byte(r)}, 4000+1000*iter)
				if err := cl.WriteFile(p, data); err != nil {
					errc <- err
					return
				}
				if iter%3 == 2 {
					if err := cl.Remove(p); err != nil {
						errc <- err
						return
					}
				}
			}
		}(r)
	}

	var last *Checkpoint
	for i := 0; i < 3; i++ {
		ck, err := cl0.Checkpoint()
		if err != nil {
			t.Error(err)
			break
		}
		last = ck
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
	for p, want := range stable {
		if !bytes.Equal(last.Files[p], want) {
			t.Fatalf("stable file %s corrupted in checkpoint", p)
		}
	}

	// The captured archive restores into a fresh filesystem.
	fresh := mountRanks(t, 4, Options{Jobs: 4})
	fcl, _ := fresh.Client(0)
	if err := fcl.Restore(last); err != nil {
		t.Fatal(err)
	}
	for p, want := range stable {
		got, err := fcl.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stable file %s corrupted after restore", p)
		}
	}
	if err := fresh.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Pins the cache coherence contract: another client's overwrite may be
// served stale from a local cache until a block free bumps the epoch;
// after the bump the next read must observe fresh bytes.
func TestCloseToOpenCoherenceAcrossEpochBump(t *testing.T) {
	fs := mountRanks(t, 2, Options{CacheBlocks: 16})
	writer, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := fs.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{1}, int(fs.BlockSize()))
	fresh := bytes.Repeat([]byte{2}, int(fs.BlockSize()))
	if err := writer.WriteFile("/f", old); err != nil {
		t.Fatal(err)
	}
	if err := writer.WriteFile("/victim", []byte("doomed")); err != nil {
		t.Fatal(err)
	}

	got, err := reader.ReadFile("/f") // populate the reader's cache
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("initial read wrong")
	}

	// Same-size overwrite: no block is freed, so no epoch bump.
	if err := writer.WriteAt("/f", 0, fresh); err != nil {
		t.Fatal(err)
	}
	got, err = reader.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("expected the documented stale read before an epoch bump")
	}

	// Removing an unrelated file frees its block and bumps the epoch;
	// the reader's next operation flushes its cache.
	if err := writer.Remove("/victim"); err != nil {
		t.Fatal(err)
	}
	got, err = reader.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read after epoch bump still stale")
	}

	// The writer's own cache is write-through: it always sees its data.
	got, err = writer.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("writer does not see its own write")
	}
	if st := writer.CacheStats(); st.Hits+st.Misses == 0 {
		t.Fatal("cache never engaged")
	}
}
