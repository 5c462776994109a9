package store

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Replication support: internal/repl keeps N stores byte-identical by
// applying the same committed operation sequence to each. The helpers
// here are what the replication layer builds on — a full tree image
// for snapshot catch-up, a raw image install for a rejoining replica
// too far behind (or too divergent) to reach by log replay, and a
// deterministic whole-tree digest replica audits compare.

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
// alike, advisory sidecars excluded — as a flat path map. This is the
// snapshot a replica streams to a peer that cannot be caught up by log
// replay.
func (s *Store) Image() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.man, s.tree, s.got, s.puts = nil, nil, false, nil
	s.invalidateExtents()
	return nil
}

// TreeHash is the deterministic digest of the whole tree (advisory
// sidecars excluded): sorted paths, each contributing its name and
// content with length framing. Two stores that applied the same
// committed operation sequence have equal tree hashes — the property
// replica audits and the split convergence matrix check.
func (s *Store) TreeHash() ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return zero, s.dead
	}
	paths, err := s.fs.List()
	if err != nil {
		return zero, err
	}
	h := sha256.New()
	var frame [8]byte
	for _, path := range paths {
		if Advisory(path) {
			continue
		}
		content, err := s.read(path)
		if err != nil {
			return zero, err
		}
		binary.BigEndian.PutUint64(frame[:], uint64(len(path)))
		h.Write(frame[:])
		h.Write([]byte(path))
		binary.BigEndian.PutUint64(frame[:], uint64(len(content)))
		h.Write(frame[:])
		h.Write(content)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
