// Package store is the crash-consistent artifact store every disk
// write in the toolchain goes through. The Popper convention treats
// the repository as the trustworthy record of an evaluation — results,
// failure quarantines and the sweep journal are only evidence if a
// crash mid-write cannot tear them. The store provides:
//
//   - atomic durable writes: temp file → fsync → rename, then an fsync
//     of each directory the renames changed — once per directory per
//     commit, before the commit point — behind a small VFS interface
//     (DirFS for a real directory, MemFS for deterministic crash
//     simulation);
//   - a write-ahead manifest (.popper/manifest) recording a generation
//     number and per-file content hashes, committed two-phase
//     (.popper/manifest.next is the intent record) so a workspace sync
//     is all-or-nothing: a crash before the commit may keep or lose
//     each staged file on its own, and repair judges each alone;
//   - a content-addressed object cache holding every manifested file's
//     bytes, which is what makes damaged files repairable: loose
//     objects (.popper/objects/<hash>) and, for small content, one
//     packed extent per generation (.popper/extents). A commit reads
//     each extent at most once, to build the index it looks contents
//     up in; the index takes the extent the commit writes from the
//     image it encoded, and the garbage collection decides from it;
//   - durable mid-command writes (Put) as self-checking put records
//     (.popper/put-<generation>-<seq>), each written into a slot file
//     reserved ahead of use with one write and one flush (a reservation
//     adds one flush of .popper), holding a path's content whole or
//     only the splice from its previous record, replayed and overlaid
//     on the committed tree by Load and folded into the next manifest
//     commit;
//   - Verify, Plan and Apply: one walk classifies every deviation from
//     the manifest — torn, missing, extra and corrupted files, debris,
//     damaged put records, an unbacked content — and a typed repair plan
//     restores what a replica quorum or the object cache can prove,
//     adopts complete strays and quarantines the rest;
//   - deterministic disk-crash injection: every write/rename/fsync/
//     remove boundary is a fault site ("disk/<op>/<path>"), and a
//     seeded crash-disk rule kills the sync at exactly that operation,
//     tearing the in-flight write and (on MemFS) settling unsynced
//     state the way a power loss would.
//
// The governing invariant, enforced by the crash-matrix golden suite:
// for every crash point in the sync and put paths, `popper fsck --repair`
// followed by re-running the interrupted command (`popper run
// -resume`) converges to a repository byte-identical to one that never
// crashed. See docs/RESILIENCE.md.
package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// VFS is the filesystem boundary the store writes through. Paths are
// slash-separated and relative to the filesystem root; implementations
// create missing parent directories on write and rename.
type VFS interface {
	// ReadFile returns a file's current content (fs.ErrNotExist when
	// absent).
	ReadFile(path string) ([]byte, error)
	// WriteFile replaces a file's content (created if absent). The
	// write is NOT durable until Sync(path) — and, for a new file's
	// directory entry, SyncDir(parent) — succeed.
	WriteFile(path string, data []byte) error
	// Rename atomically points newPath at oldPath's file. The namespace
	// change is not durable until SyncDir on the parent directory.
	Rename(oldPath, newPath string) error
	// Remove deletes a file; durable after SyncDir on the parent.
	Remove(path string) error
	// Sync makes a file's content durable (fsync).
	Sync(path string) error
	// SyncDir makes a directory's entries durable (fsync of the
	// directory — what commits renames, creations and removals).
	SyncDir(dir string) error
	// Stat returns a file's size (fs.ErrNotExist when absent).
	Stat(path string) (int64, error)
	// List returns every file path, sorted. Dot-directories are skipped
	// except the store's own .popper directory.
	List() ([]string, error)
}

// crasher is the optional power-loss hook: when a crash-disk fault
// fires, the store invokes it so the filesystem can settle unsynced
// state deterministically. DirFS (a real disk) has no such hook — the
// crash there is modeled as an immediate stop of all further writes.
type crasher interface{ Crash() }

// parentDir returns the slash-path directory containing path ("." at
// the root).
func parentDir(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return "."
}

// DirFS is the production VFS: a real directory tree with genuine
// fsync durability. A directory it creates for a write or rename is an
// entry in its parent like any other, so it records each one until
// that parent is fsynced: SyncDir makes the entries of the created
// directories on the way to the directory it flushes durable first.
type DirFS struct {
	root string
	mu   sync.Mutex
	// created holds the directories this DirFS made whose own entries
	// no fsync of their parent has made durable yet.
	created map[string]bool
	// fsynced, when set, sees the slash path of every file and directory
	// fsync that succeeded.
	fsynced func(path string)
}

// NewDirFS returns a VFS rooted at dir.
func NewDirFS(dir string) *DirFS { return &DirFS{root: dir, created: make(map[string]bool)} }

func (d *DirFS) abs(path string) string {
	return filepath.Join(d.root, filepath.FromSlash(path))
}

func (d *DirFS) ReadFile(path string) ([]byte, error) {
	return os.ReadFile(d.abs(path))
}

func (d *DirFS) WriteFile(path string, data []byte) error {
	if err := d.mkdirs(parentDir(path)); err != nil {
		return err
	}
	return os.WriteFile(d.abs(path), data, 0o644)
}

func (d *DirFS) Rename(oldPath, newPath string) error {
	if err := d.mkdirs(parentDir(newPath)); err != nil {
		return err
	}
	return os.Rename(d.abs(oldPath), d.abs(newPath))
}

// mkdirs creates dir and any missing parents, as os.MkdirAll does, and
// records each directory it creates below the root.
func (d *DirFS) mkdirs(dir string) error {
	if dir == "." {
		return os.MkdirAll(d.root, 0o755)
	}
	// Anything already at dir, a file included, is left for the write
	// itself to meet.
	if _, err := os.Stat(d.abs(dir)); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := d.mkdirs(parentDir(dir)); err != nil {
		return err
	}
	if err := os.Mkdir(d.abs(dir), 0o755); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil // made meanwhile by another writer
		}
		return err
	}
	d.mu.Lock()
	d.created[dir] = true
	d.mu.Unlock()
	return nil
}

func (d *DirFS) Remove(path string) error { return os.Remove(d.abs(path)) }

func (d *DirFS) Sync(path string) error {
	return d.fsync(path, false)
}

// SyncDir fsyncs dir. It first fsyncs the parent of each directory on
// the way to dir, dir included, that this DirFS created and whose entry
// is not yet durable, top down, so a crash cannot lose the directory
// the flushed entries live in.
func (d *DirFS) SyncDir(dir string) error {
	var pending []string
	d.mu.Lock()
	for a := dir; a != "."; a = parentDir(a) {
		if d.created[a] {
			pending = append(pending, a)
		}
	}
	d.mu.Unlock()
	for i := len(pending) - 1; i >= 0; i-- {
		if err := d.fsync(parentDir(pending[i]), true); err != nil {
			return err
		}
	}
	return d.fsync(dir, true)
}

// fsync makes one file's content, or one directory's entries, durable;
// a directory fsync settles the entries of the directories created in
// it.
func (d *DirFS) fsync(path string, dir bool) error {
	f, err := os.Open(d.abs(path))
	if err != nil {
		// A parent that never materialized (nothing was written under
		// it) has nothing to make durable.
		if dir && os.IsNotExist(err) {
			return nil
		}
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return cerr
	}
	if dir {
		d.mu.Lock()
		for c := range d.created {
			if parentDir(c) == path {
				delete(d.created, c)
			}
		}
		d.mu.Unlock()
	}
	if d.fsynced != nil {
		d.fsynced(path)
	}
	return nil
}

func (d *DirFS) Stat(path string) (int64, error) {
	info, err := os.Stat(d.abs(path))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (d *DirFS) List() ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.root, func(path string, entry fs.DirEntry, err error) error {
		if err != nil {
			if path == d.root && os.IsNotExist(err) {
				return filepath.SkipAll
			}
			return nil
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil || rel == "." {
			return nil
		}
		name := entry.Name()
		if entry.IsDir() {
			// Skip foreign dot-directories (.git and friends); the
			// store's own metadata directory is part of the tree.
			if strings.HasPrefix(name, ".") && name != popperDir {
				return filepath.SkipDir
			}
			return nil
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
