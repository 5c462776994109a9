package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"popper/internal/cas"
)

// The Merkle sidecar: every manifest commit seals a per-generation
// hash tree over the manifest's entries at .popper/merkle, written
// with the same atomic protocol as everything else. The sidecar is a
// pure function of the manifest, so replicas and crash-replays produce
// byte-identical copies and it participates in Image/TreeHash like any
// other store metadata. The scrubber verifies repository integrity
// against the sealed root — O(log n) reads for a clean repo via
// proofs, O(k log n) localization for k rotted leaves via Diff —
// instead of re-hashing every object on every pass.

// MerklePath is the sealed sidecar's location.
const MerklePath = popperDir + "/merkle"

// Exported layout names the scrubber addresses store artifacts by.
const (
	// ManifestFile is the committed manifest's path.
	ManifestFile = manifestPath
	// ExtentsPrefix prefixes every packed extent's path.
	ExtentsPrefix = extentsDir + "/"
	// ObjectsPrefix prefixes every loose object's path.
	ObjectsPrefix = objectsDir + "/"
	// QuarantinePrefix prefixes everything repair quarantined.
	QuarantinePrefix = quarantineDir + "/"
)

// ObjectFile returns the loose-object path for a content hash.
func ObjectFile(hash [sha256.Size]byte) string { return objectPath(hash) }

// merkleLeafPrefix domain-separates manifest-entry leaf digests.
const merkleLeafPrefix = "popper-merkle-leaf\x00"

// MerkleLeaf is the leaf digest over one manifest entry: path, size
// and content hash, length-framed so no two entries collide. The input
// is framed in one buffer that stays on the stack for ordinary paths.
func MerkleLeaf(path string, size int64, hash [sha256.Size]byte) [sha256.Size]byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, merkleLeafPrefix...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(path)))
	buf = append(buf, path...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(size))
	buf = append(buf, hash[:]...)
	return sha256.Sum256(buf)
}

// MerkleForManifest builds the expected tree for a manifest; leaf i
// corresponds to m.Entries[i] (entries are kept sorted by path).
func MerkleForManifest(m *Manifest) *cas.Merkle {
	leaves := make([][sha256.Size]byte, 0, len(m.Entries))
	for _, e := range m.Entries {
		leaves = append(leaves, MerkleLeaf(e.Path, e.Size, e.Hash))
	}
	return cas.BuildMerkle(m.Generation, leaves)
}

// merkleLocked returns the same tree as MerkleForManifest, built from
// the last tree this store sealed for its cached manifest: an entry
// that manifest records unchanged keeps its leaf digest (found at the
// same index, else by path), and cas.BuildMerkleFrom copies every
// interior node over unchanged children. A commit that changes k
// entries in place therefore hashes O(k log n) nodes. Callers hold the
// lock.
func (s *Store) merkleLocked(man *Manifest) *cas.Merkle {
	prev, tree := s.man, s.tree
	if tree == nil || prev == nil || tree.Len() != prev.Len() {
		prev, tree = nil, nil
	}
	leaves := make([][sha256.Size]byte, len(man.Entries))
	for i, e := range man.Entries {
		if j, ok := prev.find(i, e); ok {
			leaves[i] = tree.Leaf(j)
		} else {
			leaves[i] = MerkleLeaf(e.Path, e.Size, e.Hash)
		}
	}
	return cas.BuildMerkleFrom(tree, man.Generation, leaves)
}

// Merkle reads and verifies the sealed sidecar; (nil, nil) when the
// repository has never sealed one.
func (s *Store) Merkle() (*cas.Merkle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := s.read(MerklePath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return cas.ParseMerkle(raw)
}

// SealMerkle recomputes the sidecar from the committed manifest and
// writes it atomically — repair's and scrub's way of restoring the
// seal after damage.
func (s *Store) SealMerkle() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	man, err := s.loadManifest()
	if err != nil {
		return err
	}
	if man == nil {
		return nil
	}
	tree, err := s.sealMerkleLocked(man)
	s.tree = tree // built by the store for the cached manifest
	return err
}

// sealMerkleLocked writes the sidecar for the manifest and returns the
// tree it sealed; callers hold the lock.
func (s *Store) sealMerkleLocked(man *Manifest) (*cas.Merkle, error) {
	tree := s.merkleLocked(man)
	return tree, s.writeFileAtomic(MerklePath, tree.Encode())
}

// --- scrub support surface -------------------------------------------
//
// The scrubber heals through a prioritized chain of sources, each
// digest-verified. These accessors expose the store's rungs — loose
// objects and packed extents separately, so the chain can attribute a
// repair to the exact source that served it — plus the raw-path
// primitives whole-file healing (extent images, the manifest, the
// sidecar, fetched from a replica quorum) needs.

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

// ObjectLoose returns the hash's bytes from the loose object pool
// only, digest-verified.
func (s *Store) ObjectLoose(hash [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, false
	}
	obj, err := s.read(objectPath(hash))
	if err != nil || sha256.Sum256(obj) != hash {
		return nil, false
	}
	return obj, true
}

// ObjectPacked returns the hash's bytes from the packed extents only,
// digest-verified.
func (s *Store) ObjectPacked(hash [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, false
	}
	obj, ok := s.loadExtentsLocked()[hash]
	if !ok || sha256.Sum256(obj) != hash {
		return nil, false
	}
	return obj, true
}

// PutObject seeds recovered bytes into the loose object pool after
// verifying they are the content the hash names — the write side of
// every repair-chain rung. A no-op when the pool already proves the
// content (loose or packed); a rotted loose object is overwritten in
// place, so healing restores the tree byte-exactly instead of leaving
// a removed-and-reseeded layout.
func (s *Store) PutObject(hash [sha256.Size]byte, data []byte) error {
	if sha256.Sum256(data) != hash {
		return fmt.Errorf("store: put object: bytes do not hash to %x", hash[:8])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if obj, err := s.read(objectPath(hash)); err == nil {
		if sha256.Sum256(obj) == hash {
			return nil
		}
		// A loose copy exists but rotted: heal it in place, before fsck
		// repair would sweep it away as debris.
		return s.writeFileAtomic(objectPath(hash), data)
	}
	if obj, ok := s.loadExtentsLocked()[hash]; ok && sha256.Sum256(obj) == hash {
		return nil // packed content is proven; do not grow a loose twin
	}
	return s.writeFileAtomic(objectPath(hash), data)
}

// ReadRaw reads one store file through the instrumented read path —
// the scrubber's content walk, subject to the same injected rot as any
// consumer.
func (s *Store) ReadRaw(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read(path)
}

// RestoreRaw atomically replaces one store-internal file with
// replacement bytes a higher authority (a replica quorum) verified —
// whole-file healing for extent images, the manifest and the sidecar.
// Only .popper/ metadata may be restored this way; workspace files
// heal through the manifest-driven Repair path.
func (s *Store) RestoreRaw(path string, data []byte) error {
	if !strings.HasPrefix(path, popperDir+"/") {
		return fmt.Errorf("store: restore-raw %s: not store metadata", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if err := s.writeFileAtomic(path, data); err != nil {
		return err
	}
	if strings.HasPrefix(path, extentsDir+"/") {
		s.invalidateExtents()
	}
	if path == manifestPath {
		s.man, s.tree, s.got = nil, nil, false
	}
	return nil
}
