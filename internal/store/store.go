package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"popper/internal/fault"
)

// Store is the crash-consistent artifact store over one repository
// root. All mutating operations hold the store lock, so the disk-site
// fault stream is serial and a global crash-disk rule enumerates the
// sync path deterministically. Safe for concurrent use.
type Store struct {
	fs     VFS
	mu     sync.Mutex
	faults *fault.Injector
	// dead is set when a terminal disk fault fired: the "machine" is
	// down and every further operation refuses with the same fault.
	dead error
	man  *Manifest // cached committed manifest
	got  bool      // manifest cache populated
	// extents is the lazily-built index over packed extents; nil means
	// rebuild on next object lookup.
	extents *extentIndex
	// puts caches the put records on disk (see put.go); nil means
	// rescan on next use.
	puts *putLog
	// sidecar is what the stage-cache sidecar held when this store last
	// read or wrote it; nil when unknown (see cachestate.go).
	sidecar []byte
}

// Open returns a store over a real directory tree.
func Open(dir string) *Store { return New(NewDirFS(dir)) }

// New returns a store over any VFS.
func New(v VFS) *Store { return &Store{fs: v} }

// SetFaults arms the deterministic disk-fault injector: every
// write/rename/fsync/remove boundary becomes a site named
// "disk/<op>/<path>". Error faults fail the operation (the sync aborts
// uncommitted); crash-disk faults tear the in-flight write, settle
// unsynced state (on a crash-capable VFS) and stop the store.
func (s *Store) SetFaults(inj *fault.Injector) {
	s.mu.Lock()
	s.faults = inj
	s.mu.Unlock()
}

// SyncStats describes what one Sync did.
type SyncStats struct {
	// Clean means the workspace already matched the committed manifest:
	// nothing was committed and no tracked file was written, so the
	// generation did not move. A clean Sync may still write one
	// committed put record for each path whose chain it put back (and
	// remove the records that record supersedes).
	Clean      bool
	Generation int
	Written    int // workspace files (re)written
	Pruned     int // stale files removed by the manifest diff
	Objects    int // new cache objects stored
}

// RecoveryError reports a repository whose previous sync never
// committed (an intent record is still present): the tree may hold a
// mix of generations and must be repaired before new writes.
type RecoveryError struct{ Op string }

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("store: %s refused: an interrupted sync left %s behind; run `popper fsck --repair` first", e.Op, manifestNextPath)
}

// Load reads the logical workspace into a flat path map — the inverse
// of Sync: the tracked files on disk, overlaid with the content each
// live put-record chain replays to. The chains come from the record
// cache when it describes the committed generation, so a store that
// wrote the records reads none of them again: like Put and Sync, Load
// takes this store for the repository's only writer. Reads go through
// the instrumented disk/read/* sites, so injected rot reaches consumers
// exactly the way latent media corruption would.
func (s *Store) Load() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	paths, err := s.fs.List()
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(paths))
	puts := false
	for _, path := range paths {
		if isPutRecord(path) {
			puts = true
		}
		if !Tracked(path) {
			continue
		}
		content, err := s.read(path)
		if err != nil {
			return nil, fmt.Errorf("store: load %s: %w", path, err)
		}
		files[path] = content
	}
	if !puts {
		s.puts = &putLog{next: 1}
		return files, nil
	}
	// Which records are live depends on the committed generation.
	man, err := s.loadManifest()
	if err != nil {
		return nil, err
	}
	p, err := s.putLogLocked(man, paths)
	if err != nil {
		return nil, err
	}
	for path, h := range p.live {
		if !h.committed {
			files[path] = bytes.Clone(h.data)
		}
	}
	return files, nil
}

// Sync makes the on-disk tree match the workspace, atomically and
// durably. The protocol is two-phase: the next manifest is written
// first as an intent record (.popper/manifest.next), then every
// changed file is stored in the object cache and staged (temp → fsync
// → rename), stale files are pruned by the manifest diff, each
// directory those renames and removals changed is fsynced once, and
// finally the intent record is renamed over the committed manifest —
// the single commit point. The commit folds the put records: they are
// removed once it is durable. A crash anywhere leaves either the old
// committed generation (plus repairable debris, or a tracked file
// already holding its intended content) or the new one; `popper fsck
// --repair` restores the invariant.
//
// A workspace path left at its committed content while its put-record
// chain says otherwise is first put back with one committed record, so
// the chain is outranked durably before anything commits (see
// putBackLocked). A workspace that matches the committed manifest, with
// every live head holding its path's committed content, is clean: the
// logical tree is already committed, so the records stay where they
// are. The clean path performs no writes and no allocations.
func (s *Store) Sync(files map[string][]byte) (SyncStats, error) {
	return s.SyncHashed(files, nil)
}

// SyncHashed is Sync for a caller that already holds each file's
// SHA-256 — the replication log, which hashed every file once when it
// sealed or received the record. hashes[path] must be the SHA-256 of
// exactly files[path]: the commit records it as that content's address
// without hashing the bytes again. A path hashes lacks is hashed here.
func (s *Store) SyncHashed(files map[string][]byte, hashes map[string][sha256.Size]byte) (SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats SyncStats
	if s.dead != nil {
		return stats, s.dead
	}
	for path := range files {
		if err := CheckPath(path); err != nil {
			return stats, err
		}
	}
	man, err := s.loadManifest()
	if err != nil {
		return stats, err
	}
	puts, err := s.putLogLocked(man, nil)
	if err != nil {
		return stats, err
	}
	if man != nil {
		stats.Generation = man.Generation
		if err := s.putBackLocked(puts, man, files, hashes); err != nil {
			return stats, err
		}
		tracked, clean := 0, true
		for path, content := range files {
			if !Tracked(path) {
				continue
			}
			tracked++
			if !man.matches(path, content, hashes) {
				clean = false
				break
			}
		}
		if clean && tracked == man.Len() && puts.committed(man) {
			stats.Clean = true
			return stats, nil
		}
	}
	if err := s.refuseIfInterrupted("sync"); err != nil {
		return stats, err
	}

	// The next generation also passes every record's, so no record on
	// disk can name a generation this or a later commit makes live.
	gen := puts.maxGen + 1
	if man != nil {
		gen = max(gen, man.Generation+1)
	}
	stats.Generation = gen
	next := newManifest(gen, files, hashes)

	// Phase 1: intent. After this record is durable, fsck knows exactly
	// what the sync was about to do. With no manifest it also dates the
	// put records, so the record cache is rescanned after it.
	s.puts = nil
	if err := s.writeFileAtomic(manifestNextPath, next.encodeForCommit()); err != nil {
		return stats, err
	}
	// Phase 2a: pack the generation's new small objects into one
	// append-only extent — a single durable write instead of one
	// atomic-write cycle per tiny artifact. Phases 2 and 3 stage: each
	// rename and removal notes its directory in dirs, flushed in phase 4.
	// An entry the committed manifest holds as it is needs neither.
	dirs := flushSet{}
	var packed [][]byte
	var packedHashes [][sha256.Size]byte
	packSeen := make(map[[sha256.Size]byte]bool)
	for _, e := range next.Entries {
		if man.holds(e) || e.Size > smallObjectMax || packSeen[e.Hash] || s.hasObject(e.Hash) {
			continue
		}
		packSeen[e.Hash] = true
		packed = append(packed, files[e.Path])
		packedHashes = append(packedHashes, e.Hash)
	}
	if len(packed) > 0 {
		if err := s.packExtentLocked(extentPath(gen), packed, packedHashes, dirs); err != nil {
			return stats, err
		}
		stats.Objects += len(packed)
	}
	// Phase 2b: remaining objects and workspace files, in path order.
	for _, e := range next.Entries {
		if man.holds(e) {
			continue
		}
		content := files[e.Path]
		added, err := s.ensureObject(e.Hash, content, dirs)
		if err != nil {
			return stats, err
		}
		if added {
			stats.Objects++
		}
		if err := s.stageFile(e.Path, content, dirs); err != nil {
			return stats, err
		}
		stats.Written++
	}
	// Phase 3: the manifest diff prunes files that left the workspace.
	if man != nil {
		for _, e := range man.Entries {
			if _, ok := next.Lookup(e.Path); ok {
				continue
			}
			if err := s.remove(e.Path); err != nil {
				return stats, err
			}
			dirs[parentDir(e.Path)] = true
			stats.Pruned++
		}
	}
	// Phase 4: flush. Every entry the new manifest names, and every
	// removal, is made namespace-durable before the commit point —
	// otherwise a crash after commit could lose a committed file, or
	// resurrect a pruned one, which repair would then (wrongly) adopt
	// into the new generation. A crash before it may keep or lose each
	// staged rename and removal on its own; each tracked file is then
	// still judged alone, against the manifest and the intent record.
	if err := s.flushDirs(dirs); err != nil {
		return stats, err
	}
	// Phase 5: commit.
	if err := s.commitManifest(next); err != nil {
		return stats, err
	}
	// Post-commit: drop the folded records and the cache objects no
	// generation references anymore.
	if err := s.dropPutsLocked(puts, gen); err != nil {
		return stats, err
	}
	return stats, s.gc(next)
}

// Put durably writes one artifact now, mid-command, as one put record
// (see put.go): a write and an fsync of a free slot, or, when none is
// free, a reservation of slots, which adds an fsync of .popper —
// whatever the manifest's size. A Put that extends the path's chain
// writes only the splice from the previous content (for a journal, the
// new row) plus a fixed frame. From then on Load returns data for path,
// and a crash a moment later still finds it; the tracked file on disk
// keeps its committed bytes until the next manifest commit folds the
// chain in. A Put of the path's current logical content writes nothing.
// The sweep journal rides this path — each completed configuration is
// recoverable even if the process never reaches its final sync.
func (s *Store) Put(path string, data []byte) error {
	if err := CheckPath(path); err != nil {
		return err
	}
	if !Tracked(path) {
		return fmt.Errorf("store: put %s: path is not tracked", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	man, err := s.loadManifest()
	if err != nil {
		return err
	}
	p, err := s.putLogLocked(man, nil)
	if err != nil {
		return err
	}
	return s.putLocked(p, man, path, data)
}

// Manifest returns the committed manifest (nil when none exists).
func (s *Store) Manifest() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadManifest()
}

// Generation returns the committed manifest generation (0 when none).
func (s *Store) Generation() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	man, err := s.loadManifest()
	if err != nil || man == nil {
		return 0, err
	}
	return man.Generation, nil
}

// ReadRaw reads one store file through the instrumented read path,
// subject to the same injected rot as any consumer — how a replica
// quorum compares whole store files.
func (s *Store) ReadRaw(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read(path)
}

// loadManifest reads and caches the committed manifest; callers hold
// the lock.
func (s *Store) loadManifest() (*Manifest, error) {
	if s.got {
		return s.man, nil
	}
	raw, err := s.read(manifestPath)
	if errors.Is(err, fs.ErrNotExist) {
		s.got = true
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	man, err := ParseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%w; run `popper fsck --repair`", err)
	}
	man.digest = sha256.Sum256(raw)
	s.man, s.got = man, true
	return man, nil
}

// refuseIfInterrupted blocks writes while an uncommitted intent record
// exists; callers hold the lock.
func (s *Store) refuseIfInterrupted(op string) error {
	if _, err := s.fs.Stat(manifestNextPath); err == nil {
		return &RecoveryError{Op: op}
	}
	return nil
}

// commitManifest renames the intent record over the committed manifest
// — the sync's single atomic commit point — and makes it durable.
func (s *Store) commitManifest(next *Manifest) error {
	if err := s.rename(manifestNextPath, manifestPath); err != nil {
		return err
	}
	if err := s.syncDir(popperDir); err != nil {
		return err
	}
	s.man, s.got = next, true
	return nil
}

// flushSet is the directories a batch of staged renames and removals
// changed: none of those changes is durable until flushDirs fsyncs it.
type flushSet map[string]bool

// stageFile is the durable write primitive's first half: temp file →
// fsync → rename over the target. The content is durable, the new
// entry is not until its directory, noted in dirs, is fsynced.
func (s *Store) stageFile(path string, data []byte, dirs flushSet) error {
	tmp := path + tmpSuffix
	if err := s.write(tmp, data); err != nil {
		return err
	}
	if err := s.sync(tmp); err != nil {
		return err
	}
	dirs[parentDir(path)] = true
	return s.rename(tmp, path)
}

// flushDirs fsyncs each directory in dirs once, in sorted order.
func (s *Store) flushDirs(dirs flushSet) error {
	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	for _, dir := range sorted {
		if err := s.syncDir(dir); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic is the durable write primitive: stageFile, then an
// fsync of the target's directory.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	dirs := flushSet{}
	if err := s.stageFile(path, data, dirs); err != nil {
		return err
	}
	return s.flushDirs(dirs)
}

// ensureObject stages content into the object cache unless it is
// already there — loose or packed in an extent; reports whether a new
// loose object was staged.
func (s *Store) ensureObject(hash [sha256.Size]byte, content []byte, dirs flushSet) (bool, error) {
	if s.hasObject(hash) {
		return false, nil
	}
	return true, s.stageFile(objectPath(hash), content, dirs)
}

// gc removes cache objects no live manifest generation references;
// callers hold the lock. Runs strictly post-commit. "Live" means the
// committed manifest plus any surviving parseable intent record — an
// object either one references must never be evicted. Loose objects
// are removed individually; an extent is removed only when every
// record in it is unreferenced (a partially-live extent stays whole —
// bounded slack traded for never rewriting committed bytes). The extent
// index as gc found it decides every extent it holds whole, so a commit
// that built or kept the index reads no extent here. A seal an earlier
// version left goes too.
func (s *Store) gc(man *Manifest) error {
	idx := s.extents // a removal drops s.extents, not what idx knows of the others
	live := []*Manifest{man}
	if raw, err := s.read(manifestNextPath); err == nil {
		if next, perr := ParseManifest(raw); perr == nil {
			live = append(live, next)
		}
	} else if s.dead != nil {
		return s.dead
	}
	refs := make(map[string]bool, man.Len())
	hashRefs := make(map[[sha256.Size]byte]bool, man.Len())
	for _, m := range live {
		for _, e := range m.Entries {
			refs[objectPath(e.Hash)] = true
			hashRefs[e.Hash] = true
		}
	}
	paths, err := s.fs.List()
	if err != nil {
		return err
	}
	for _, path := range paths {
		switch {
		case path == legacyMerklePath:
			if err := s.remove(path); err != nil {
				return err
			}
		case strings.HasPrefix(path, objectsDir+"/"):
			if refs[path] {
				continue
			}
			if err := s.remove(path); err != nil {
				return err
			}
		case strings.HasPrefix(path, extentsDir+"/"):
			drop, err := s.extentDroppable(idx, path, hashRefs)
			if err != nil {
				return err
			}
			if !drop {
				continue
			}
			s.invalidateExtents()
			if err := s.remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- fault-instrumented VFS operations -------------------------------
//
// Every disk boundary consults the injector at site "disk/<op>/<path>"
// before acting. The no-fault path is a nil check. A crash-disk fault
// tears the in-flight write (a seeded prefix reaches the disk),
// settles unsynced state if the VFS models power loss, and marks the
// store dead; an error fault fails just this operation, leaving the
// sync uncommitted but the machine alive.

func (s *Store) write(path string, data []byte) error {
	if err := s.checkSite("write", path, data); err != nil {
		return err
	}
	s.touch(path)
	return s.fs.WriteFile(path, data)
}

func (s *Store) sync(path string) error {
	if err := s.checkSite("fsync", path, nil); err != nil {
		return err
	}
	return s.fs.Sync(path)
}

func (s *Store) syncDir(dir string) error {
	if err := s.checkSite("syncdir", dir, nil); err != nil {
		return err
	}
	return s.fs.SyncDir(dir)
}

func (s *Store) rename(oldPath, newPath string) error {
	if err := s.checkSite("rename", newPath, nil); err != nil {
		return err
	}
	s.touch(oldPath)
	s.touch(newPath)
	return s.fs.Rename(oldPath, newPath)
}

func (s *Store) remove(path string) error {
	if err := s.checkSite("remove", path, nil); err != nil {
		return err
	}
	s.touch(path)
	if err := s.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// touch notes a change to path about to be made: a change to the
// stage-cache sidecar drops what the store remembered of its bytes.
func (s *Store) touch(path string) {
	if path == CacheStatePath {
		s.sidecar = nil
	}
}

func (s *Store) checkSite(op, path string, data []byte) error {
	if s.dead != nil {
		return s.dead
	}
	if s.faults == nil {
		return nil
	}
	f := s.faults.Check("disk/" + op + "/" + path)
	if f == nil {
		return nil
	}
	switch f.Kind {
	case fault.Latency:
		return nil // disks have no virtual clock to charge; treat as absorbed
	case fault.DiskCrash:
		// Power loss mid-operation: a seeded prefix of an in-flight
		// write reaches the media, then the machine is gone.
		if op == "write" && len(data) > 0 {
			n := int(fault.Hash01(s.faults.Seed(), "disk-tear/"+path, f.Occurrence) * float64(len(data)))
			_ = s.fs.WriteFile(path, data[:n])
		}
		if c, ok := s.fs.(crasher); ok {
			c.Crash()
		}
		s.dead = f
		return f
	case fault.Crash:
		// The process is killed but the OS survives: in-flight state
		// stays in the page cache and will drain, so no settle — the
		// store just stops.
		s.dead = f
		return f
	case fault.CorruptDisk:
		// Silent rot strikes reads (s.read) and at-rest state
		// (MemFS.Rot); at a write/fsync/rename boundary the supplied
		// bytes are still good, so the operation proceeds untouched.
		return nil
	default:
		return f
	}
}

// read is the instrumented read primitive: site "disk/read/<path>".
// Error faults fail the read, terminal faults stop the store exactly
// as at write boundaries — and corrupt-disk faults succeed while
// handing the caller seeded-rotted bytes. No error surfaces for rot:
// catching it is the scrubber's job, not the reader's.
func (s *Store) read(path string) ([]byte, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	if s.faults != nil {
		if f := s.faults.Check("disk/read/" + path); f != nil {
			switch f.Kind {
			case fault.Latency:
				// absorbed: disks have no virtual clock to charge
			case fault.CorruptDisk:
				data, err := s.fs.ReadFile(path)
				if err != nil {
					return nil, err
				}
				rot, _ := fault.CorruptBytes(s.faults.Seed(), "disk-rot/"+path, f.Occurrence, data)
				return rot, nil
			case fault.DiskCrash:
				if c, ok := s.fs.(crasher); ok {
					c.Crash()
				}
				s.dead = f
				return nil, f
			case fault.Crash:
				s.dead = f
				return nil, f
			default:
				return nil, f
			}
		}
	}
	return s.fs.ReadFile(path)
}

// referencesHash reports whether any manifest entry carries the hash.
func referencesHash(m *Manifest, hash [sha256.Size]byte) bool {
	for _, e := range m.Entries {
		if e.Hash == hash {
			return true
		}
	}
	return false
}
