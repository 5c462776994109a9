package store

import (
	"crypto/sha256"
	"encoding/binary"

	"popper/internal/cas"
)

// The Merkle sidecar: every manifest commit seals a per-generation
// hash tree over the manifest's entries at .popper/merkle, written
// with the same atomic protocol as everything else. The sidecar is a
// pure function of the manifest, so replicas and crash-replays produce
// byte-identical copies and it participates in Image/TreeHash like any
// other store metadata. Verify reads and hashes each tracked file once
// and diffs those hashes, as the observed leaves, against the sealed
// tree: the seal keeps the compare count at one on a clean tree and
// names exactly the leaves that differ otherwise.

// MerklePath is the sealed sidecar's location.
const MerklePath = popperDir + "/merkle"

// Exported layout names for addressing store artifacts.
const (
	// ManifestFile is the committed manifest's path.
	ManifestFile = manifestPath
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

// sealMerkleLocked writes the sidecar for the manifest and returns the
// tree it sealed; callers hold the lock.
func (s *Store) sealMerkleLocked(man *Manifest) (*cas.Merkle, error) {
	tree := s.merkleLocked(man)
	return tree, s.writeFileAtomic(MerklePath, tree.Encode())
}

// --- verification support -------------------------------------------

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
