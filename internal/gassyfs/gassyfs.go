// Package gassyfs reproduces GassyFS, the system of the paper's
// scalability use case: "a new prototype filesystem system that stores
// files in distributed remote memory and provides support for multiple
// clients".
//
// The filesystem aggregates the memory segments of a GASNet world
// (internal/gasnet) into one block store. File data is striped over
// segments according to an allocation policy; clients on any rank mount
// the filesystem FUSE-style and pay one-sided RDMA costs for every block
// they touch on another rank — the communication overhead that makes the
// compile-Git workload scale sublinearly in Figure gassyfs-git. Like the
// paper's prototype, the store is volatile: durability comes from
// explicit checkpoint/restore to stable storage.
//
// Concurrency: clients on different goroutines run filesystem
// operations in parallel. There is no global lock — the namespace
// (path→inode map) has a read-write lock, each inode has its own lock,
// and the block allocator and segment bytes are striped per rank. The
// lock hierarchy is namespace → inode → allocator stripe → segment
// chunk; see docs/SUBSTRATES.md for the full concurrency and
// determinism contract. A single Client is not safe for concurrent use
// (its block cache is unsynchronized by design); parallelism comes from
// one client per goroutine.
package gassyfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/gasnet"
	"popper/internal/metrics"
	"popper/internal/sched"
)

// AllocPolicy selects where new blocks are placed.
type AllocPolicy int

// Allocation policies (the DESIGN.md ablation compares them).
const (
	// AllocRoundRobin stripes blocks across all segments evenly.
	AllocRoundRobin AllocPolicy = iota
	// AllocLocalFirst fills the writer's own segment before spilling to
	// other ranks round-robin.
	AllocLocalFirst
)

// Options configure a mount.
type Options struct {
	// BlockSize in bytes; default 64 KiB.
	BlockSize int64
	// Policy for block placement; default AllocRoundRobin.
	Policy AllocPolicy
	// CacheBlocks enables a per-client LRU block cache of this many
	// blocks (0 disables). See cache.go for the coherence contract:
	// caches are write-through for the owning client and flushed when
	// any block is freed, but writes by other clients are not observed
	// until then (close-to-open semantics).
	CacheBlocks int
	// Jobs bounds the host-side worker pool that parallel engines
	// (checkpoint save/restore) fan out on; <= 0 means one worker per
	// host CPU. Simulated results are identical for every value.
	Jobs int
	// Retry re-issues checkpoint/restore block transfers that fail with
	// a retryable injected fault (partitions, transient errors — see
	// gasnet.World.SetFaults) up to Retry.Max more times. Transfers are
	// idempotent, so a retry is always safe; backoff is folded into the
	// transfer's virtual cost. Crashes are terminal.
	Retry fault.Retry
	// Registry receives operation metrics (optional).
	Registry *metrics.Registry
}

// FS is a mounted GassyFS instance.
type FS struct {
	world *gasnet.World
	opts  Options

	// nsMu guards the path→inode map: lookups take the read side,
	// namespace mutations (create/mkdir/remove/rename) the write side.
	// Inode contents (size, block list) are guarded by the per-inode
	// lock, acquired strictly after nsMu in the hierarchy.
	nsMu   sync.RWMutex
	inodes map[string]*inode

	alloc *allocator
	// epoch increments whenever a block is freed, flushing client caches
	// before a reused block could serve stale bytes.
	epoch atomic.Uint64
	pool  *sched.Pool
	reg   *metrics.Registry
	// bufs recycles block-size buffers for the cached read path.
	bufs sync.Pool
}

type inode struct {
	mu     sync.RWMutex
	isDir  bool // immutable after creation
	size   int64
	blocks []gasnet.Addr
}

// Mount creates a filesystem over the world's attached segments.
func Mount(world *gasnet.World, opts Options) (*FS, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = 64 << 10
	}
	if opts.BlockSize < 512 {
		return nil, fmt.Errorf("gassyfs: block size %d too small", opts.BlockSize)
	}
	segSizes := make([]int64, world.Size())
	for r := 0; r < world.Size(); r++ {
		segSizes[r] = world.SegmentSize(r)
		if segSizes[r] < opts.BlockSize {
			return nil, fmt.Errorf("gassyfs: rank %d segment (%d bytes) smaller than a block",
				r, segSizes[r])
		}
	}
	fs := &FS{
		world:  world,
		opts:   opts,
		inodes: map[string]*inode{"/": {isDir: true}},
		alloc:  newAllocator(opts.BlockSize, segSizes),
		pool:   sched.NewPool(opts.Jobs),
		reg:    opts.Registry,
	}
	bs := opts.BlockSize
	fs.bufs.New = func() any {
		b := make([]byte, bs)
		return &b
	}
	return fs, nil
}

// World returns the underlying GASNet world.
func (fs *FS) World() *gasnet.World { return fs.world }

// BlockSize returns the mount's block size.
func (fs *FS) BlockSize() int64 { return fs.opts.BlockSize }

// Client returns a handle bound to a rank; all costs of its operations
// land on that rank's node clock. A Client must be used from one
// goroutine at a time; mount one client per goroutine for parallelism.
func (fs *FS) Client(rank int) (*Client, error) {
	if _, err := fs.world.Node(rank); err != nil {
		return nil, err
	}
	cl := &Client{fs: fs, rank: rank}
	if fs.opts.CacheBlocks > 0 {
		cl.cache = newBlockCache(fs.opts.CacheBlocks, fs.putBlockBuf)
	}
	return cl, nil
}

// getBlockBuf returns a block-size buffer from the pool.
func (fs *FS) getBlockBuf() []byte {
	return *(fs.bufs.Get().(*[]byte))
}

// putBlockBuf recycles a block-size buffer.
func (fs *FS) putBlockBuf(b []byte) {
	if int64(cap(b)) == fs.opts.BlockSize {
		b = b[:cap(b)]
		fs.bufs.Put(&b)
	}
}

// clean canonicalizes a path; returns an error for escapes and empties.
func clean(p string) (string, error) {
	if p == "" {
		return "", fmt.Errorf("gassyfs: empty path")
	}
	// Reject ".." segments with a scan (no per-call split allocation —
	// this runs on every filesystem operation).
	for i := 0; i < len(p); {
		j := strings.IndexByte(p[i:], '/')
		var seg string
		if j < 0 {
			seg, i = p[i:], len(p)
		} else {
			seg, i = p[i:i+j], i+j+1
		}
		if seg == ".." {
			return "", fmt.Errorf("gassyfs: invalid path %q", p)
		}
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	c := path.Clean(p)
	if c == "." || strings.HasPrefix(c, "..") {
		return "", fmt.Errorf("gassyfs: invalid path %q", p)
	}
	return c, nil
}

// lookup resolves a path under the namespace read lock.
func (fs *FS) lookup(cp string) (*inode, bool) {
	fs.nsMu.RLock()
	ino, ok := fs.inodes[cp]
	fs.nsMu.RUnlock()
	return ino, ok
}

// freeBlock returns a block to the allocator and bumps the cache epoch.
// Callers hold whatever lock protects the referencing block list.
func (fs *FS) freeBlock(a gasnet.Addr) {
	fs.alloc.freeBlock(a)
	fs.epoch.Add(1)
}

// Fsck verifies the filesystem's structural invariants:
//
//  1. every inode's block count covers its size (ceil(size/bs) blocks);
//  2. no block is referenced by two inodes or doubly freed;
//  3. every referenced or free block lies inside its rank's segment and
//     on a block boundary;
//  4. every non-root inode has an existing directory as parent.
//
// It is the correctness oracle for the property tests and a debugging
// aid for downstream users. Fsck takes a whole-namespace snapshot; run
// it when no mutators are in flight (global invariants are not
// meaningful mid-operation).
func (fs *FS) Fsck() error {
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	bs := fs.opts.BlockSize
	nextOff := fs.alloc.nextOffs()
	seen := make(map[gasnet.Addr]string)
	checkAddr := func(owner string, a gasnet.Addr) error {
		if a.Rank < 0 || a.Rank >= fs.world.Size() {
			return fmt.Errorf("gassyfs: fsck: %s references rank %d out of range", owner, a.Rank)
		}
		if a.Offset < 0 || a.Offset%bs != 0 || a.Offset+bs > fs.world.SegmentSize(a.Rank) {
			return fmt.Errorf("gassyfs: fsck: %s references misaligned/out-of-segment block %+v", owner, a)
		}
		if a.Offset >= nextOff[a.Rank] {
			return fmt.Errorf("gassyfs: fsck: %s references never-allocated block %+v", owner, a)
		}
		if prev, dup := seen[a]; dup {
			return fmt.Errorf("gassyfs: fsck: block %+v owned by both %s and %s", a, prev, owner)
		}
		seen[a] = owner
		return nil
	}
	for path, ino := range fs.inodes {
		ino.mu.RLock()
		isDir, size := ino.isDir, ino.size
		blocks := append([]gasnet.Addr(nil), ino.blocks...)
		ino.mu.RUnlock()
		if isDir {
			if len(blocks) != 0 || size != 0 {
				return fmt.Errorf("gassyfs: fsck: directory %s has data", path)
			}
		} else {
			need := int((size + bs - 1) / bs)
			if len(blocks) < need {
				return fmt.Errorf("gassyfs: fsck: %s has %d blocks for %d bytes (need %d)",
					path, len(blocks), size, need)
			}
			for _, b := range blocks {
				if err := checkAddr(path, b); err != nil {
					return err
				}
			}
		}
		if path != "/" {
			parent := path[:strings.LastIndex(path, "/")]
			if parent == "" {
				parent = "/"
			}
			pi, ok := fs.inodes[parent]
			if !ok || !pi.isDir {
				return fmt.Errorf("gassyfs: fsck: %s has no parent directory", path)
			}
		}
	}
	for r, frees := range fs.alloc.freeSnapshot() {
		for _, off := range frees {
			if err := checkAddr(fmt.Sprintf("freelist[%d]", r), gasnet.Addr{Rank: r, Offset: off}); err != nil {
				return err
			}
		}
	}
	return nil
}

// UsedBlocks reports allocated (non-free) blocks per rank — the data-
// placement observable the ablation benchmark asserts on.
func (fs *FS) UsedBlocks() []int {
	return fs.alloc.used()
}

// Client is a per-rank mount handle. Not safe for concurrent use by
// multiple goroutines (see FS.Client).
type Client struct {
	fs    *FS
	rank  int
	cache *blockCache // nil when caching is disabled
}

// syncCache flushes the cache when the filesystem epoch has moved.
func (c *Client) syncCache() {
	if c.cache == nil {
		return
	}
	c.cache.sync(c.fs.epoch.Load())
}

// Rank returns the client's rank.
func (c *Client) Rank() int { return c.rank }

// FS returns the filesystem this client is mounted on.
func (c *Client) FS() *FS { return c.fs }

// metadataRank hosts the (centralized) metadata service; clients on
// other ranks pay a round trip per metadata operation.
const metadataRank = 0

// metaCost charges one metadata round trip when the client is not
// colocated with the metadata service.
func (c *Client) metaCost() {
	fs := c.fs
	node, _ := fs.world.Node(c.rank)
	// Local metadata: a map lookup's worth of work.
	node.Run(cluster.Work{CPUOps: 2000})
	if c.rank != metadataRank {
		mdNode, _ := fs.world.Node(metadataRank)
		lat := node.Profile().NICLatS + mdNode.Profile().NICLatS
		node.Advance(2 * lat)
	}
	if fs.reg != nil {
		fs.reg.Add("gassyfs_meta_ops", 1)
	}
}

// Mkdir creates a directory; the parent must exist.
func (c *Client) Mkdir(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	c.metaCost()
	return c.fs.mkdir(cp, false)
}

// mkdir inserts a directory inode under the namespace write lock. With
// ifMissing, an existing directory is not an error (mkdir -p semantics,
// atomic under concurrent creators).
func (fs *FS) mkdir(cp string, ifMissing bool) error {
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	if existing, exists := fs.inodes[cp]; exists {
		if ifMissing && existing.isDir {
			return nil
		}
		if ifMissing {
			return fmt.Errorf("gassyfs: %s exists and is a file", cp)
		}
		return fmt.Errorf("gassyfs: %s already exists", cp)
	}
	parent := path.Dir(cp)
	pi, ok := fs.inodes[parent]
	if !ok || !pi.isDir {
		return fmt.Errorf("gassyfs: parent %s is not a directory", parent)
	}
	fs.inodes[cp] = &inode{isDir: true}
	return nil
}

// MkdirAll creates a directory and any missing parents. Each path
// segment is created atomically (check and insert under one lock), so
// concurrent MkdirAll calls over shared prefixes are safe.
func (c *Client) MkdirAll(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	cur := ""
	rest := strings.TrimPrefix(cp, "/")
	for rest != "" {
		seg := rest
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			seg, rest = rest[:j], rest[j+1:]
		} else {
			rest = ""
		}
		if seg == "" {
			continue
		}
		cur += "/" + seg
		if ino, ok := c.fs.lookup(cur); ok {
			if !ino.isDir {
				return fmt.Errorf("gassyfs: %s exists and is a file", cur)
			}
			continue
		}
		c.metaCost()
		if err := c.fs.mkdir(cur, true); err != nil {
			return err
		}
	}
	return nil
}

// Create makes an empty file; the parent directory must exist; an
// existing file is truncated.
func (c *Client) Create(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	c.metaCost()
	fs := c.fs
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	if existing, ok := fs.inodes[cp]; ok {
		if existing.isDir {
			return fmt.Errorf("gassyfs: %s is a directory", cp)
		}
		existing.mu.Lock()
		for _, b := range existing.blocks {
			fs.freeBlock(b)
		}
		existing.blocks = nil
		existing.size = 0
		existing.mu.Unlock()
		return nil
	}
	parent := path.Dir(cp)
	pi, ok := fs.inodes[parent]
	if !ok || !pi.isDir {
		return fmt.Errorf("gassyfs: parent %s is not a directory", parent)
	}
	fs.inodes[cp] = &inode{}
	return nil
}

// Stat describes a file or directory.
type Stat struct {
	Path   string
	IsDir  bool
	Size   int64
	Blocks int
}

// Stat returns metadata for a path.
func (c *Client) Stat(p string) (Stat, error) {
	cp, err := clean(p)
	if err != nil {
		return Stat{}, err
	}
	c.metaCost()
	ino, ok := c.fs.lookup(cp)
	if !ok {
		return Stat{}, fmt.Errorf("gassyfs: %s: no such file or directory", cp)
	}
	ino.mu.RLock()
	st := Stat{Path: cp, IsDir: ino.isDir, Size: ino.size, Blocks: len(ino.blocks)}
	ino.mu.RUnlock()
	return st, nil
}

// Readdir lists the immediate children of a directory, sorted.
func (c *Client) Readdir(p string) ([]Stat, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, err
	}
	c.metaCost()
	fs := c.fs
	fs.nsMu.RLock()
	defer fs.nsMu.RUnlock()
	dir, ok := fs.inodes[cp]
	if !ok || !dir.isDir {
		return nil, fmt.Errorf("gassyfs: %s is not a directory", cp)
	}
	prefix := cp
	if prefix != "/" {
		prefix += "/"
	}
	var out []Stat
	for ip, ino := range fs.inodes {
		if ip == cp || !strings.HasPrefix(ip, prefix) {
			continue
		}
		rest := strings.TrimPrefix(ip, prefix)
		if strings.Contains(rest, "/") {
			continue
		}
		ino.mu.RLock()
		out = append(out, Stat{Path: ip, IsDir: ino.isDir, Size: ino.size, Blocks: len(ino.blocks)})
		ino.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// extendLocked grows ino's block list to cover [0, end). Caller holds
// ino.mu.
func (fs *FS) extendLocked(ino *inode, writer int, end int64) error {
	needed := int((end + fs.opts.BlockSize - 1) / fs.opts.BlockSize)
	for len(ino.blocks) < needed {
		addr, ok := fs.alloc.alloc(writer, fs.opts.Policy)
		if !ok {
			return fmt.Errorf("gassyfs: out of space (%d bytes aggregated)", fs.world.TotalMemory())
		}
		ino.blocks = append(ino.blocks, addr)
	}
	return nil
}

// WriteAt writes data at a byte offset, extending the file as needed.
func (c *Client) WriteAt(p string, off int64, data []byte) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("gassyfs: negative offset")
	}
	c.metaCost()
	fs := c.fs
	ino, ok := fs.lookup(cp)
	if !ok {
		return fmt.Errorf("gassyfs: %s: no such file", cp)
	}
	bs := fs.opts.BlockSize
	end := off + int64(len(data))
	ino.mu.Lock()
	if ino.isDir {
		ino.mu.Unlock()
		return fmt.Errorf("gassyfs: %s is a directory", cp)
	}
	if err := fs.extendLocked(ino, c.rank, end); err != nil {
		ino.mu.Unlock()
		return err
	}
	if end > ino.size {
		ino.size = end
	}
	blocks := append([]gasnet.Addr(nil), ino.blocks...)
	ino.mu.Unlock()

	// One vectored put moves all spans (RDMA outside any fs lock, with a
	// single clock advance and one batch of metric bookkeeping).
	c.syncCache()
	if len(data) > 0 {
		spans := int((end-1)/bs) - int(off/bs) + 1
		addrs := make([]gasnet.Addr, 0, spans)
		bufs := make([][]byte, 0, spans)
		pos := off
		remaining := data
		for len(remaining) > 0 {
			bi := pos / bs
			inBlock := pos % bs
			n := bs - inBlock
			if int64(len(remaining)) < n {
				n = int64(len(remaining))
			}
			b := blocks[bi]
			addrs = append(addrs, gasnet.Addr{Rank: b.Rank, Offset: b.Offset + inBlock})
			bufs = append(bufs, remaining[:n])
			if c.cache != nil {
				c.cache.patch(b, inBlock, remaining[:n])
			}
			pos += n
			remaining = remaining[n:]
		}
		if _, err := fs.world.Putv(c.rank, addrs, bufs); err != nil {
			return err
		}
	}
	if fs.reg != nil {
		fs.reg.Add("gassyfs_write_ops", 1)
		fs.reg.Add("gassyfs_write_bytes", float64(len(data)))
	}
	return nil
}

// ReadAt reads up to n bytes from a byte offset; short reads happen at
// end of file.
func (c *Client) ReadAt(p string, off, n int64) ([]byte, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("gassyfs: negative offset or length")
	}
	c.metaCost()
	fs := c.fs
	ino, ok := fs.lookup(cp)
	if !ok {
		return nil, fmt.Errorf("gassyfs: %s: no such file", cp)
	}
	ino.mu.RLock()
	if ino.isDir {
		ino.mu.RUnlock()
		return nil, fmt.Errorf("gassyfs: %s is a directory", cp)
	}
	if off >= ino.size {
		ino.mu.RUnlock()
		return nil, nil
	}
	if off+n > ino.size {
		n = ino.size - off
	}
	blocks := append([]gasnet.Addr(nil), ino.blocks...)
	ino.mu.RUnlock()

	bs := fs.opts.BlockSize
	c.syncCache()
	out := make([]byte, n)
	if c.cache == nil {
		// Uncached: one vectored get lands every span directly in the
		// output buffer (zero copies beyond the RDMA itself).
		spans := int((off+n-1)/bs) - int(off/bs) + 1
		addrs := make([]gasnet.Addr, 0, spans)
		bufs := make([][]byte, 0, spans)
		pos, idx := off, int64(0)
		for idx < n {
			bi := pos / bs
			inBlock := pos % bs
			chunk := bs - inBlock
			if rem := n - idx; rem < chunk {
				chunk = rem
			}
			b := blocks[bi]
			addrs = append(addrs, gasnet.Addr{Rank: b.Rank, Offset: b.Offset + inBlock})
			bufs = append(bufs, out[idx:idx+chunk])
			pos += chunk
			idx += chunk
		}
		if _, err := fs.world.Getv(c.rank, addrs, bufs); err != nil {
			return nil, err
		}
	} else {
		// Cached: whole-block caching, page-cache style. A hit serves a
		// zero-copy view of the cached block (no network cost, no
		// allocation); a miss fetches the full block into a pooled
		// buffer the cache takes ownership of.
		pos, idx := off, int64(0)
		for idx < n {
			bi := pos / bs
			inBlock := pos % bs
			chunk := bs - inBlock
			if rem := n - idx; rem < chunk {
				chunk = rem
			}
			b := blocks[bi]
			view, hit := c.cache.get(b)
			if !hit {
				full := fs.getBlockBuf()
				if err := fs.world.GetInto(c.rank, b, full); err != nil {
					fs.putBlockBuf(full)
					return nil, err
				}
				c.cache.put(b, full)
				view = full
			}
			copy(out[idx:idx+chunk], view[inBlock:inBlock+chunk])
			pos += chunk
			idx += chunk
		}
	}
	if fs.reg != nil {
		fs.reg.Add("gassyfs_read_ops", 1)
		fs.reg.Add("gassyfs_read_bytes", float64(len(out)))
	}
	return out, nil
}

// WriteFile creates (or truncates) a file with the given contents.
func (c *Client) WriteFile(p string, data []byte) error {
	if err := c.Create(p); err != nil {
		return err
	}
	return c.WriteAt(p, 0, data)
}

// ReadFile reads an entire file.
func (c *Client) ReadFile(p string) ([]byte, error) {
	st, err := c.Stat(p)
	if err != nil {
		return nil, err
	}
	if st.IsDir {
		return nil, fmt.Errorf("gassyfs: %s is a directory", p)
	}
	return c.ReadAt(p, 0, st.Size)
}

// Append writes data at the end of the file.
func (c *Client) Append(p string, data []byte) error {
	st, err := c.Stat(p)
	if err != nil {
		return err
	}
	return c.WriteAt(p, st.Size, data)
}

// Remove deletes a file or an empty directory.
func (c *Client) Remove(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("gassyfs: cannot remove root")
	}
	c.metaCost()
	fs := c.fs
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	ino, ok := fs.inodes[cp]
	if !ok {
		return fmt.Errorf("gassyfs: %s: no such file or directory", cp)
	}
	if ino.isDir {
		prefix := cp + "/"
		for ip := range fs.inodes {
			if strings.HasPrefix(ip, prefix) {
				return fmt.Errorf("gassyfs: %s: directory not empty", cp)
			}
		}
	}
	ino.mu.Lock()
	for _, b := range ino.blocks {
		fs.freeBlock(b)
	}
	ino.blocks = nil
	ino.mu.Unlock()
	delete(fs.inodes, cp)
	return nil
}

// Rename moves a file or directory (and its subtree).
func (c *Client) Rename(oldp, newp string) error {
	co, err := clean(oldp)
	if err != nil {
		return err
	}
	cn, err := clean(newp)
	if err != nil {
		return err
	}
	if co == "/" || cn == "/" {
		return fmt.Errorf("gassyfs: cannot rename root")
	}
	c.metaCost()
	fs := c.fs
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	ino, ok := fs.inodes[co]
	if !ok {
		return fmt.Errorf("gassyfs: %s: no such file or directory", co)
	}
	if _, exists := fs.inodes[cn]; exists {
		return fmt.Errorf("gassyfs: %s already exists", cn)
	}
	parent := path.Dir(cn)
	if pi, ok := fs.inodes[parent]; !ok || !pi.isDir {
		return fmt.Errorf("gassyfs: parent %s is not a directory", parent)
	}
	if strings.HasPrefix(cn+"/", co+"/") && ino.isDir {
		return fmt.Errorf("gassyfs: cannot rename %s into itself", co)
	}
	// move the inode and, for directories, every descendant
	delete(fs.inodes, co)
	fs.inodes[cn] = ino
	if ino.isDir {
		prefix := co + "/"
		var moves [][2]string
		for ip := range fs.inodes {
			if strings.HasPrefix(ip, prefix) {
				moves = append(moves, [2]string{ip, cn + "/" + strings.TrimPrefix(ip, prefix)})
			}
		}
		for _, m := range moves {
			fs.inodes[m[1]] = fs.inodes[m[0]]
			delete(fs.inodes, m[0])
		}
	}
	return nil
}

// Walk visits every path under root (inclusive) in sorted order.
func (c *Client) Walk(root string, visit func(Stat) error) error {
	cr, err := clean(root)
	if err != nil {
		return err
	}
	fs := c.fs
	fs.nsMu.RLock()
	var paths []string
	for ip := range fs.inodes {
		if ip == cr || strings.HasPrefix(ip, strings.TrimSuffix(cr, "/")+"/") {
			paths = append(paths, ip)
		}
	}
	fs.nsMu.RUnlock()
	if len(paths) == 0 {
		return fmt.Errorf("gassyfs: %s: no such file or directory", cr)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		st, err := c.Stat(ip)
		if err != nil {
			return err
		}
		if err := visit(st); err != nil {
			return err
		}
	}
	return nil
}
