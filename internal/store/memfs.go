package store

import (
	"io/fs"
	"sort"
	"sync"

	"popper/internal/fault"
)

// memFile is one path's volatile and durable state in a MemFS.
type memFile struct {
	// data is the current (volatile) content; nil means the path is
	// currently absent (a pending removal keeps the entry around until
	// the removal is durable).
	data []byte
	// synced is the content guaranteed for the current inode — what the
	// last fsync persisted; nil when the inode was never fsynced.
	synced []byte
	// hasDur/dur describe the durable directory entry: whether one
	// exists for this path, and the content it is guaranteed to carry
	// after a crash.
	hasDur bool
	dur    []byte
	// pending marks a namespace change (create, replace-by-rename,
	// remove) not yet committed by SyncDir on the parent directory.
	pending bool
}

// MemFS is the deterministic crash-simulation VFS: it models the
// page-cache boundary real disks have. Writes land in a volatile view;
// fsync (Sync) makes a file's content durable; directory fsync
// (SyncDir) makes namespace changes — creations, renames, removals —
// durable. Crash() settles the volatile view the way a power loss
// would: committed state survives exactly, and every uncommitted
// change is resolved by a seeded coin — lost, applied, or (for
// unsynced content) torn to a prefix. The settle is a pure function of
// (seed, path, crash epoch), so a crash schedule replays
// bit-identically. CrashWith settles by an explicit plan instead.
type MemFS struct {
	mu    sync.Mutex
	seed  int64
	epoch int
	files map[string]*memFile
}

// NewMemFS creates an empty in-memory filesystem whose crash settles
// are seeded by seed.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{seed: seed, files: make(map[string]*memFile)}
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil || f.data == nil {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) WriteFile(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil {
		f = &memFile{pending: true}
		m.files[path] = f
	}
	if f.data == nil {
		// (Re)creating the entry is a namespace change.
		f.pending = true
	}
	f.data = append([]byte{}, data...) // non-nil: a zero-byte file exists
	f.synced = nil
	return nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	of := m.files[oldPath]
	if of == nil || of.data == nil {
		return &fs.PathError{Op: "rename", Path: oldPath, Err: fs.ErrNotExist}
	}
	nf := m.files[newPath]
	if nf == nil {
		nf = &memFile{}
		m.files[newPath] = nf
	}
	// The new entry points at the old inode: it inherits that inode's
	// volatile and synced content. Both entries' namespace state is now
	// pending until their parents are fsynced.
	nf.data, nf.synced, nf.pending = of.data, of.synced, true
	of.data, of.synced, of.pending = nil, nil, true
	m.dropIfForgotten(oldPath)
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil || f.data == nil {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	f.data, f.synced, f.pending = nil, nil, true
	m.dropIfForgotten(path)
	return nil
}

// dropIfForgotten forgets an absent entry that has no durable trace —
// nothing about it could survive a crash.
func (m *MemFS) dropIfForgotten(path string) {
	if f := m.files[path]; f != nil && f.data == nil && !f.hasDur {
		delete(m.files, path)
	}
}

func (m *MemFS) Sync(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil || f.data == nil {
		return &fs.PathError{Op: "sync", Path: path, Err: fs.ErrNotExist}
	}
	f.synced = f.data
	if !f.pending {
		// Entry already durable: the freshly synced content is what a
		// crash now preserves.
		f.dur = f.data
	}
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for path, f := range m.files {
		if !f.pending || parentDir(path) != dir {
			continue
		}
		f.pending = false
		if f.data == nil {
			delete(m.files, path)
			continue
		}
		f.hasDur = true
		f.dur = f.synced // nil when the inode was never fsynced
	}
	return nil
}

func (m *MemFS) Stat(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil || f.data == nil {
		return 0, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for path, f := range m.files {
		if f.data != nil {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}

// SettlePlan decides how a crash resolves each path's uncommitted
// state. Crash uses the seeded coin; CrashWith takes any plan, so a
// test can enumerate every state a crash point can leave.
type SettlePlan interface {
	// KeepEntry reports whether path's pending namespace change — a
	// create, a replace by rename or a removal — survives.
	KeepEntry(path string) bool
	// KeepBytes returns how many of the n new bytes a surviving entry's
	// unsynced content holds survive; -1 keeps its last fsynced content
	// instead.
	KeepBytes(path string, n int) int
}

// coinPlan is Crash's plan: one seeded coin per path, crash epoch and
// aspect.
type coinPlan struct{ m *MemFS }

func (c coinPlan) KeepEntry(path string) bool { return c.m.coin(path, 0) < 0.5 }

func (c coinPlan) KeepBytes(path string, n int) int {
	switch x := c.m.coin(path, 1); {
	case x < 1.0/3:
		return -1
	case x < 2.0/3:
		return int(c.m.coin(path, 2) * float64(n)) // torn write
	default:
		return n // the write made it out in full
	}
}

// Crash settles the filesystem the way a power loss would, then
// remounts: the durable view becomes the current view. Uncommitted
// state resolves deterministically per path:
//
//   - a pending namespace change (create/replace/remove) survives or
//     is lost by a seeded coin;
//   - a durable entry whose content was not fsynced keeps its old
//     durable bytes, keeps a torn prefix of the new bytes, or keeps
//     the full new bytes — again by seeded coin;
//   - fully committed state (content fsynced, entry dir-fsynced)
//     always survives exactly.
func (m *MemFS) Crash() { m.CrashWith(coinPlan{m}) }

// CrashWith is Crash with the plan deciding each uncommitted path.
func (m *MemFS) CrashWith(plan SettlePlan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	settled := make(map[string]*memFile, len(m.files))
	for path, f := range m.files {
		var surviving []byte
		present := false
		entryNew := !f.pending // does the entry reflect the current state?
		if f.pending {
			entryNew = plan.KeepEntry(path)
		}
		if entryNew {
			if f.data != nil {
				present, surviving = true, settleContent(plan, path, f)
			}
		} else if f.hasDur {
			present, surviving = true, f.dur
		}
		if !present {
			continue
		}
		if surviving == nil {
			surviving = []byte{}
		}
		settled[path] = &memFile{data: surviving, synced: surviving, hasDur: true, dur: surviving}
	}
	m.files = settled
}

// settleContent resolves what a surviving entry's content looks like
// after the crash.
func settleContent(plan SettlePlan, path string, f *memFile) []byte {
	if f.synced != nil && string(f.synced) == string(f.data) {
		return f.data // content fully fsynced: survives exactly
	}
	if n := plan.KeepBytes(path, len(f.data)); n >= 0 {
		return f.data[:n]
	}
	if !f.pending {
		return f.dur // overwritten in place: the entry's last fsynced bytes
	}
	return f.synced // the new inode's last fsynced content (nil → empty file)
}

// coin is the seeded settle coin: deterministic in (seed, path, crash
// epoch, aspect).
func (m *MemFS) coin(path string, aspect int) float64 {
	return fault.Hash01(m.seed, "disk-settle/"+path, m.epoch*8+aspect)
}

// Epoch returns how many crashes the filesystem has absorbed.
func (m *MemFS) Epoch() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Rot is the at-rest bit-rot settle hook: it corrupts every present
// file matching the glob (fault.MatchSite semantics) in place —
// volatile, fsynced and durable views alike, because media decay
// happens underneath the page cache, between operations, with no
// syscall to intercept. The damage is fault.CorruptBytes, seeded per
// (fs seed, path, round), so a rot schedule replays bit-identically.
// Returns the corrupted paths in sorted order; empty files are skipped
// (no bytes to rot).
func (m *MemFS) Rot(pattern string, round int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.files))
	for path, f := range m.files {
		if f.data != nil && len(f.data) > 0 && fault.MatchSite(pattern, path) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := m.files[path]
		rotted, _ := fault.CorruptBytes(m.seed, "at-rest-rot/"+path, round, f.data)
		f.data = rotted
		if f.synced != nil {
			f.synced = rotted
		}
		if f.hasDur && f.dur != nil {
			f.dur = rotted
		}
	}
	return paths
}
