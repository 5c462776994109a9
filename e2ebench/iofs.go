package main

import (
	"io/fs"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"popper/internal/store"
)

// manifestPath is the store's single commit point: every manifest
// commit renames the intent record onto it.
const manifestPath = ".popper/manifest"

// ioCounts is a snapshot of the operations a repository's filesystem
// served. Every field is a running total; sub gives the work between
// two snapshots.
type ioCounts struct {
	Writes     int64 // WriteFile calls
	WriteBytes int64 // bytes passed to WriteFile
	Fsyncs     int64 // file fsyncs (Sync)
	DirFsyncs  int64 // directory fsyncs (SyncDir)
	Commits    int64 // renames onto .popper/manifest
	Reads      int64 // ReadFile calls
	ReadBytes  int64 // bytes ReadFile returned
}

func (a ioCounts) add(b ioCounts) ioCounts {
	return ioCounts{
		Writes: a.Writes + b.Writes, WriteBytes: a.WriteBytes + b.WriteBytes,
		Fsyncs: a.Fsyncs + b.Fsyncs, DirFsyncs: a.DirFsyncs + b.DirFsyncs,
		Commits: a.Commits + b.Commits,
		Reads:   a.Reads + b.Reads, ReadBytes: a.ReadBytes + b.ReadBytes,
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		Fsyncs: a.Fsyncs - b.Fsyncs, DirFsyncs: a.DirFsyncs - b.DirFsyncs,
		Commits: a.Commits - b.Commits,
		Reads:   a.Reads - b.Reads, ReadBytes: a.ReadBytes - b.ReadBytes,
	}
}

// AllFsyncs is what a real disk would charge a flush for: file plus
// directory fsyncs.
func (a ioCounts) AllFsyncs() int64 { return a.Fsyncs + a.DirFsyncs }

// ioCounters accumulates ioCounts across every filesystem that shares
// it (all replicas of one group), safely from concurrent callers.
type ioCounters struct {
	writes, writeBytes, fsyncs, dirFsyncs, commits, reads, readBytes atomic.Int64
}

func (c *ioCounters) snapshot() ioCounts {
	return ioCounts{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Fsyncs: c.fsyncs.Load(), DirFsyncs: c.dirFsyncs.Load(),
		Commits: c.commits.Load(),
		Reads:   c.reads.Load(), ReadBytes: c.readBytes.Load(),
	}
}

// countingFS is a store.VFS that counts the calls it forwards. The
// counts are what a disk would be charged for, so they stay exact on a
// memory-backed filesystem where the flushes themselves cost nothing.
type countingFS struct {
	store.VFS
	c *ioCounters
}

func (f countingFS) ReadFile(path string) ([]byte, error) {
	data, err := f.VFS.ReadFile(path)
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(len(data)))
	return data, err
}

func (f countingFS) WriteFile(path string, data []byte) error {
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(len(data)))
	return f.VFS.WriteFile(path, data)
}

func (f countingFS) Rename(oldPath, newPath string) error {
	if newPath == manifestPath {
		f.c.commits.Add(1)
	}
	return f.VFS.Rename(oldPath, newPath)
}

func (f countingFS) Sync(path string) error {
	f.c.fsyncs.Add(1)
	return f.VFS.Sync(path)
}

func (f countingFS) SyncDir(dir string) error {
	f.c.dirFsyncs.Add(1)
	return f.VFS.SyncDir(dir)
}

// memFS is a store.VFS over a map: the repository's bytes live in the
// process, so no call ever waits on a disk. It keeps store.DirFS's
// namespace rules: missing parents are implied, List skips
// dot-directories other than .popper, and fsyncing an absent directory
// is a no-op. Flushes have nothing to make durable; countingFS counts
// them instead.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("read", path)
	}
	return append([]byte{}, data...), nil
}

func (m *memFS) WriteFile(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte{}, data...)
	return nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldPath]
	if !ok {
		return notExist("rename", oldPath)
	}
	delete(m.files, oldPath)
	m.files[newPath] = data
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Sync(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("sync", path)
	}
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Stat(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return 0, notExist("stat", path)
	}
	return int64(len(data)), nil
}

func (m *memFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for path := range m.files {
		if !inDotDir(path) {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}

// inDotDir reports whether a path lies under a dot-directory other
// than the store's own .popper.
func inDotDir(path string) bool {
	dirs := strings.Split(path, "/")
	for _, d := range dirs[:len(dirs)-1] {
		if strings.HasPrefix(d, ".") && d != ".popper" {
			return true
		}
	}
	return false
}

// diskUsage sums the bytes of every file the filesystem holds, and of
// the tracked tree alone.
func diskUsage(v store.VFS) (all, tracked int64, err error) {
	paths, err := v.List()
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		n, err := v.Stat(p)
		if err != nil {
			return 0, 0, err
		}
		all += n
		if store.Tracked(p) {
			tracked += n
		}
	}
	return all, tracked, nil
}
