package store

import (
	"crypto/sha256"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// Small objects are packed: a sweep leaves hundreds of tiny artifacts
// (journals, results, goldens), and storing each as a loose
// content-addressed file costs a full atomic-write cycle — temp,
// fsync, rename, dir fsync — per object. Sync instead packs every new
// small object of a generation into one append-only extent
// (.popper/extents/gen-<N>.extent, the cas extent format), one durable
// write for the lot. Loose objects remain the home of large content,
// and fsck treats a damaged extent like a set of loose objects: salvage
// what each record's own digest proves.
const (
	// smallObjectMax is the largest object packed into an extent; bigger
	// content stays a loose object file.
	smallObjectMax = 4096
)

// extentPath names the extent holding a manifest generation's packed
// objects.
func extentPath(gen int) string {
	return extentsDir + "/gen-" + strconv.Itoa(gen) + ".extent"
}

// extentIndex is the in-memory index over the packed extents. A commit
// keeps it current across the extent it writes, so a commit reads each
// extent at most once; any other change to the extents drops it
// (invalidateExtents).
type extentIndex struct {
	// blobs maps each record an extent proves to its payload: a view
	// into extent bytes the store read or encoded itself.
	blobs map[[sha256.Size]byte][]byte
	// whole holds the records of each extent that parsed whole, by
	// path: what gc decides that extent from. A torn extent is absent.
	whole map[string][]cas.ExtentRecord
}

// loadExtentsLocked lazily builds the extent index. Callers hold the
// store lock.
func (s *Store) loadExtentsLocked() *extentIndex {
	if s.extents == nil {
		paths, _ := s.fs.List() // an unlistable tree indexes nothing
		s.readExtentsLocked(paths)
	}
	return s.extents
}

// extentRead is one extent as read: its bytes and the records they
// prove — all of them when it parses, else what salvage recovers.
type extentRead struct {
	raw  []byte
	recs []cas.ExtentRecord
	torn bool // the extent does not parse whole
}

// readExtentsLocked reads every extent among paths once, makes the
// records they prove the store's extent index, and returns the reads by
// path (an unreadable extent has none). A torn extent still contributes
// the records its embedded per-record digests prove — that is what
// keeps a file "restorable" in fsck's eyes while its only copy sits in
// a damaged extent awaiting salvage. An in-flight temp file is debris
// that repair removes, not pool, so its records never count: the index
// holds what Verify proves. Callers hold the store lock.
func (s *Store) readExtentsLocked(paths []string) map[string]extentRead {
	idx := &extentIndex{blobs: make(map[[sha256.Size]byte][]byte), whole: make(map[string][]cas.ExtentRecord)}
	reads := make(map[string]extentRead)
	for _, path := range paths {
		if !strings.HasPrefix(path, extentsDir+"/") || strings.HasSuffix(path, tmpSuffix) {
			continue
		}
		raw, err := s.read(path)
		if err != nil {
			continue
		}
		x := extentRead{raw: raw}
		if x.recs, err = cas.ParseExtent(raw); err != nil {
			x.torn = true
			x.recs = cas.SalvageExtent(raw) // each surviving record self-verifies
		} else {
			idx.whole[path] = x.recs
		}
		idx.add(raw, x.recs)
		reads[path] = x
	}
	s.extents = idx
	return reads
}

// add indexes records as views into the extent bytes raw.
func (x *extentIndex) add(raw []byte, recs []cas.ExtentRecord) {
	for _, r := range recs {
		if _, ok := x.blobs[r.Hash]; !ok {
			end := r.Offset + r.Size
			x.blobs[r.Hash] = raw[r.Offset:end:end]
		}
	}
}

// packExtentLocked encodes blobs, whose SHA-256s are hashes, as the
// extent at path and stages it into dirs. A built index takes the new
// records as views into the image the store encoded — never the
// caller's slices, which a repair may later restore from — so the
// commit need not read the extent back. Callers hold the lock.
func (s *Store) packExtentLocked(path string, blobs [][]byte, hashes [][sha256.Size]byte, dirs flushSet) error {
	if _, err := s.fs.Stat(path); err == nil {
		s.invalidateExtents() // the index may hold the records of the extent this replaces
	}
	img, recs := cas.EncodeHashedExtent(blobs, hashes)
	if err := s.stageFile(path, img, dirs); err != nil {
		s.invalidateExtents()
		return err
	}
	if s.extents != nil {
		s.extents.whole[path] = recs
		s.extents.add(img, recs)
	}
	return nil
}

// invalidateExtents drops the cached extent index; called whenever an
// extent file is removed or repaired, and at the top of Fsck/Repair,
// which trust nothing cached.
func (s *Store) invalidateExtents() { s.extents = nil }

// hasObject reports whether the object cache — loose files or packed
// extents — holds the hash. Callers hold the lock.
func (s *Store) hasObject(hash [sha256.Size]byte) bool {
	if _, err := s.fs.Stat(objectPath(hash)); err == nil {
		return true
	}
	_, ok := s.loadExtentsLocked().blobs[hash]
	return ok
}

// readObjectAny returns the hash's verified bytes from the loose
// object cache or a packed extent. Callers hold the lock.
func (s *Store) readObjectAny(hash [sha256.Size]byte) ([]byte, bool) {
	if obj, err := s.read(objectPath(hash)); err == nil && sha256.Sum256(obj) == hash {
		return obj, true
	}
	obj, ok := s.loadExtentsLocked().blobs[hash]
	return obj, ok
}

// salvageExtent recovers every referenced record a torn extent's
// embedded digests still prove into loose objects, then removes the
// damaged extent. Returns how many records were recovered. Callers
// hold the lock.
func (s *Store) salvageExtent(path string, refHash map[[sha256.Size]byte]bool) (int, error) {
	s.invalidateExtents()
	raw, err := s.read(path)
	if err != nil {
		if s.dead != nil {
			return 0, s.dead
		}
		return 0, nil // vanished since the scan; nothing to salvage
	}
	n := 0
	for _, r := range cas.SalvageExtent(raw) {
		if !refHash[r.Hash] {
			continue
		}
		// Check the loose cache only — hasObject would see the doomed
		// extent's own records via the index and skip the copy-out.
		if _, err := s.fs.Stat(objectPath(r.Hash)); err != nil {
			if err := s.writeFileAtomic(objectPath(r.Hash), raw[r.Offset:r.Offset+r.Size]); err != nil {
				return n, err
			}
		}
		n++
	}
	if err := s.remove(path); err != nil {
		return n, err
	}
	if err := s.syncDir(parentDir(path)); err != nil {
		return n, err
	}
	s.invalidateExtents()
	return n, nil
}

// extentDroppable reports whether gc may remove the extent at path: it
// parses whole and no live generation references a record in it. An
// extent idx (nil for none) holds whole is decided from its records,
// unread; any other is read and parsed, and a damaged one is fsck's to
// salvage, never gc's to drop. Callers hold the lock.
func (s *Store) extentDroppable(idx *extentIndex, path string, hashRefs map[[sha256.Size]byte]bool) (bool, error) {
	if idx != nil {
		if recs, ok := idx.whole[path]; ok {
			return !anyRecordReferenced(recs, hashRefs), nil
		}
	}
	raw, err := s.read(path)
	if err != nil {
		// An unreadable extent is fsck's problem — but a terminal fault
		// at the read boundary must not be swallowed, or a crash
		// scheduled at this point would silently vanish.
		return false, s.dead
	}
	recs, perr := cas.ParseExtent(raw)
	return perr == nil && !anyRecordReferenced(recs, hashRefs), nil
}

// anyRecordReferenced reports whether a live manifest generation pins
// any record of an extent. A pinned extent is never garbage-collected:
// eviction of a whole extent is legal only when every record in it is
// unreferenced by every live generation.
func anyRecordReferenced(recs []cas.ExtentRecord, hashRefs map[[sha256.Size]byte]bool) bool {
	for _, r := range recs {
		if hashRefs[r.Hash] {
			return true
		}
	}
	return false
}
