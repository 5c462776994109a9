package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Replication support: internal/repl keeps N stores in agreement by
// applying the same committed operation sequence to each. The helpers
// here are what the replication layer builds on — a full tree image
// for snapshot catch-up, a raw image install for a rejoining replica
// too far behind (or too divergent) to reach by log replay, a digest
// of the committed state that identifies a replica at open and in
// every audit, and a deterministic whole-tree digest the split
// convergence matrix checks.

// Advisory reports paths that are node-local hints rather than part of
// the replicated repository state: the stage-cache sidecar is warm-
// start advice for one machine, so replica agreement and snapshot
// images exclude it (a replica with a different — or no — cache
// sidecar is not divergent).
func Advisory(path string) bool { return path == CacheStatePath }

// Object returns the verified bytes of a content-addressed object the
// store already holds — loose under .popper/objects or packed in an
// extent. This is the local-objects fallback the cas tier consults on
// a cache miss: content the repository proves it has is never worth
// recomputing.
func (s *Store) Object(hash [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, false
	}
	return s.readObjectAny(hash)
}

// Image returns every file in the tree — workspace and store metadata
// alike, advisory sidecars excluded — as a flat path map, raw: nothing
// is verified.
func (s *Store) Image() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imageLocked()
}

// VerifiedImage returns the snapshot a replica streams to a peer that
// cannot be caught up by log replay: the committed tree with every byte
// proven. Store metadata ships as Verify found it. A tracked file ships
// its committed content — the workspace copy when it matches the
// manifest, else the object pool's digest-verified copy — and a file
// the manifest does not record is left out, being no part of the
// committed state the snapshot stands for. A content the pool lacks
// while its tracked file is intact ships as the tree holds it: the
// peer's own verify finds the gap and heals it from its workspace
// copy. Any other finding, or a damaged file whose committed content
// the pool cannot prove, is an error naming it: rot is never shipped.
func (s *Store) VerifiedImage() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.verifyTreeLocked()
	if err != nil {
		return nil, err
	}
	img, err := s.imageLocked()
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, f := range rep.Findings {
		switch f.State {
		case StateExtra:
			delete(img, f.Path)
			continue
		case StateUnbacked:
			continue
		case StateCorrupted, StateTorn, StateMissing:
			if e, ok := rep.man.Lookup(f.Path); ok {
				if data, ok := s.readObjectAny(e.Hash); ok {
					img[f.Path] = data
					continue
				}
			}
		}
		if !Advisory(f.Path) {
			bad = append(bad, f.String())
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("store: the tree does not verify: %s", strings.Join(bad, "; "))
	}
	return img, nil
}

// imageLocked reads the raw tree image; callers hold the lock.
func (s *Store) imageLocked() (map[string][]byte, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	paths, err := s.fs.List()
	if err != nil {
		return nil, err
	}
	img := make(map[string][]byte, len(paths))
	for _, path := range paths {
		if Advisory(path) {
			continue
		}
		content, err := s.read(path)
		if err != nil {
			return nil, err
		}
		img[path] = content
	}
	return img, nil
}

// InstallImage replaces the entire tree — workspace and store metadata
// alike — with an exact byte image of another replica's repository:
// files not in the image are removed (advisory sidecars are kept),
// differing files are rewritten atomically. The resulting tree is
// byte-identical to the image source by construction; the manifest
// cache and extent index are rebuilt from it.
func (s *Store) InstallImage(img map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	existing, err := s.fs.List()
	if err != nil {
		return err
	}
	for _, path := range existing {
		if Advisory(path) {
			continue
		}
		if _, ok := img[path]; ok {
			continue
		}
		if err := s.remove(path); err != nil {
			return err
		}
		if err := s.syncDir(parentDir(path)); err != nil {
			return err
		}
	}
	paths := make([]string, 0, len(img))
	for path := range img {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if cur, err := s.read(path); err == nil && string(cur) == string(img[path]) {
			continue
		}
		if err := s.writeFileAtomic(path, img[path]); err != nil {
			return err
		}
	}
	s.man, s.got, s.puts = nil, false, nil
	s.invalidateExtents()
	return nil
}

// TreeHash is the deterministic digest of the whole tree (advisory
// sidecars excluded): sorted paths, each contributing its
// length-framed name and the SHA-256 of its content. Two stores that
// applied the same committed operation sequence, with no repair since,
// have equal tree hashes — the property the split convergence matrix
// checks. Replica audits compare StateDigest instead, so each
// replica's object pool layout stays its own.
func (s *Store) TreeHash() ([sha256.Size]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.treeHashLocked()
}

// treeHashLocked reads and digests the whole tree; callers hold the
// lock.
func (s *Store) treeHashLocked() (out [sha256.Size]byte, err error) {
	if s.dead != nil {
		return out, s.dead
	}
	paths, err := s.fs.List()
	if err != nil {
		return out, err
	}
	h := sha256.New()
	var buf []byte
	for _, path := range paths {
		if Advisory(path) {
			continue
		}
		content, err := s.read(path)
		if err != nil {
			return out, err
		}
		sum := sha256.Sum256(content)
		buf = binary.BigEndian.AppendUint64(buf[:0], uint64(len(path)))
		buf = append(buf, path...)
		buf = append(buf, sum[:]...)
		h.Write(buf)
	}
	h.Sum(out[:0])
	return out, nil
}

// statePrefix domain-separates StateDigest from TreeHash.
const statePrefix = "popper-state v1\x00"

// StateDigest identifies the committed state: the manifest's bytes plus
// the path, sequence and content hash of every live put-record head, in
// path order (each head's content is hashed once, however often the
// state is named). It reads the manifest and the put records, never a
// tracked file, object or extent, so two replicas that committed the
// same operation sequence agree whatever has rotted in their trees
// since, and however each one's object pool is laid out — finding and
// healing rot, and proving the pool, is Verify's job. A store whose
// manifest is missing or damaged has no committed state to name; its
// digest is then TreeHash's, over the raw tree.
func (s *Store) StateDigest() ([sha256.Size]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero [sha256.Size]byte
	if s.dead != nil {
		return zero, s.dead
	}
	man, err := s.loadManifest()
	if s.dead != nil {
		return zero, s.dead
	}
	if err != nil || man == nil {
		return s.treeHashLocked()
	}
	p, err := s.putLogLocked(man, nil)
	if err != nil {
		return zero, err
	}
	paths := make([]string, 0, len(p.live))
	for path := range p.live {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	buf := append([]byte(statePrefix), man.digest[:]...)
	for _, path := range paths {
		h := p.live[path]
		sum := h.digest()
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(path)))
		buf = append(buf, path...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(h.seq))
		buf = append(buf, sum[:]...)
	}
	return sha256.Sum256(buf), nil
}
