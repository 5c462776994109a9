package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Merkle is a binary hash tree over an ordered list of leaf digests —
// the store seals one per manifest generation so integrity questions
// scale logarithmically: a single artifact's membership verifies
// against the sealed root in O(log n) digest compares (Proof), and k
// corrupt leaves are localized by descending only the mismatching
// subtrees (Diff, O(k log n) node compares) instead of re-hashing
// every object in the repository.
//
// The tree shape is the canonical pairwise reduction with odd-node
// promotion: level k+1 pairs level k's nodes left to right; a trailing
// unpaired node is promoted unchanged. Interior nodes are domain
// separated from leaves so a leaf can never masquerade as a subtree.
type Merkle struct {
	// Gen is the manifest generation the tree seals.
	Gen int
	// levels[0] holds the leaf digests; each higher level halves (odd
	// nodes promote); the top level is the single root.
	levels [][][sha256.Size]byte
}

// merkleMagic heads the serialized sidecar (.popper/merkle).
const merkleMagic = "popper-merkle v1\n"

// merkleNodePrefix domain-separates interior nodes from leaf digests.
const merkleNodePrefix = "popper-merkle-node\x00"

// merkleEmptyRoot is the root of a tree with no leaves (an empty
// manifest still seals a well-defined root).
var merkleEmptyRoot = sha256.Sum256([]byte("popper-merkle-empty"))

// merkleNode combines two child digests into their parent. The input
// is laid out in one stack buffer, so combining never allocates.
func merkleNode(left, right [sha256.Size]byte) [sha256.Size]byte {
	var buf [len(merkleNodePrefix) + 2*sha256.Size]byte
	n := copy(buf[:], merkleNodePrefix)
	n += copy(buf[n:], left[:])
	copy(buf[n:], right[:])
	return sha256.Sum256(buf[:])
}

// BuildMerkle constructs the tree over the leaf digests, in order.
func BuildMerkle(gen int, leaves [][sha256.Size]byte) *Merkle {
	return BuildMerkleFrom(nil, gen, leaves)
}

// BuildMerkleFrom constructs the tree over the leaf digests, in order,
// reusing prev's interior nodes: a parent whose two children equal the
// children at the same position in prev is copied, not rehashed. prev
// may be nil or any tree at all (unrelated, shorter, longer) and the
// result is identical to a fresh build; a tree that differs from prev
// in k leaves at the same positions costs O(k log n) node hashes plus
// O(n) digest compares and copies. The leaves are copied.
func BuildMerkleFrom(prev *Merkle, gen int, leaves [][sha256.Size]byte) *Merkle {
	// Every level lives in one backing array, so a build allocates a
	// constant number of times whatever the leaf count.
	depth, total := 1, len(leaves)
	for n := len(leaves); n > 1; n = (n + 1) / 2 {
		depth++
		total += (n + 1) / 2
	}
	nodes := make([][sha256.Size]byte, total)
	m := &Merkle{Gen: gen, levels: make([][][sha256.Size]byte, 0, depth)}
	level := nodes[:len(leaves):len(leaves)]
	copy(level, leaves)
	nodes = nodes[len(level):]
	m.levels = append(m.levels, level)
	for k := 0; len(level) > 1; k++ {
		width := (len(level) + 1) / 2
		next := nodes[:width:width]
		nodes = nodes[width:]
		var old, oldNext [][sha256.Size]byte
		if prev != nil && k+1 < len(prev.levels) {
			old, oldNext = prev.levels[k], prev.levels[k+1]
		}
		for j := range next {
			i := 2 * j
			switch {
			case i+1 == len(level):
				next[j] = level[i] // odd node promotes unchanged
			case i+1 < len(old) && level[i] == old[i] && level[i+1] == old[i+1]:
				next[j] = oldNext[j] // same children, same parent
			default:
				next[j] = merkleNode(level[i], level[i+1])
			}
		}
		m.levels = append(m.levels, next)
		level = next
	}
	return m
}

// Len returns the leaf count.
func (m *Merkle) Len() int { return len(m.levels[0]) }

// Leaf returns leaf digest i.
func (m *Merkle) Leaf(i int) [sha256.Size]byte { return m.levels[0][i] }

// Root returns the tree's root digest.
func (m *Merkle) Root() [sha256.Size]byte {
	if m.Len() == 0 {
		return merkleEmptyRoot
	}
	return m.levels[len(m.levels)-1][0]
}

// Diff returns the leaf indexes where the two trees disagree, plus the
// number of node compares spent finding them — the observable that
// proves localization is logarithmic, not linear. Equal roots cost one
// compare. Trees of different leaf counts differ structurally; every
// leaf index of the receiver is reported.
func (m *Merkle) Diff(o *Merkle) (diff []int, compares int) {
	if m.Len() != o.Len() {
		for i := 0; i < m.Len(); i++ {
			diff = append(diff, i)
		}
		return diff, 1
	}
	if m.Len() == 0 {
		return nil, 1
	}
	var walk func(level, idx int)
	walk = func(level, idx int) {
		compares++
		if m.levels[level][idx] == o.levels[level][idx] {
			return
		}
		if level == 0 {
			diff = append(diff, idx)
			return
		}
		child := 2 * idx
		walk(level-1, child)
		if child+1 < len(m.levels[level-1]) {
			walk(level-1, child+1)
		}
	}
	walk(len(m.levels)-1, 0)
	return diff, compares
}

// Proof returns the sibling path proving leaf i's membership under the
// root: one digest per level where the node has a sibling (promoted
// odd nodes contribute none).
func (m *Merkle) Proof(i int) [][sha256.Size]byte {
	var proof [][sha256.Size]byte
	for level := 0; level < len(m.levels)-1; level++ {
		sib := i ^ 1
		if sib < len(m.levels[level]) {
			proof = append(proof, m.levels[level][sib])
		}
		i /= 2
	}
	return proof
}

// VerifyMerkleProof checks that leaf digest `leaf` sits at index i of
// an n-leaf tree with the given root, consuming the sibling path in
// O(log n) digest operations.
func VerifyMerkleProof(root [sha256.Size]byte, n, i int, leaf [sha256.Size]byte, proof [][sha256.Size]byte) bool {
	if i < 0 || i >= n {
		return false
	}
	cur, used := leaf, 0
	for size := n; size > 1; size = (size + 1) / 2 {
		sib := i ^ 1
		if sib < size {
			if used >= len(proof) {
				return false
			}
			if i&1 == 0 {
				cur = merkleNode(cur, proof[used])
			} else {
				cur = merkleNode(proof[used], cur)
			}
			used++
		}
		i /= 2
	}
	return used == len(proof) && cur == root
}

// Encode serializes the tree: magic, generation, leaf count, the leaf
// digests, the root, and a whole-image checksum. The root is stored
// redundantly on purpose — the decoder recomputes the tree from the
// leaves and refuses an image whose sealed root does not match, so a
// rotted sidecar fails loudly instead of vouching for the wrong tree.
func (m *Merkle) Encode() []byte {
	b := make([]byte, 0, len(merkleMagic)+8+(m.Len()+2)*sha256.Size)
	b = append(b, merkleMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Gen))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Len()))
	for _, leaf := range m.levels[0] {
		b = append(b, leaf[:]...)
	}
	root := m.Root()
	b = append(b, root[:]...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// ParseMerkle decodes and verifies a sealed tree image: magic, exact
// framing, whole-image checksum, and the recomputed root against the
// stored one. Any failure is an error — a damaged sidecar must never
// parse into a tree that then testifies about repository health.
func ParseMerkle(raw []byte) (*Merkle, error) {
	if len(raw) < len(merkleMagic)+8+2*sha256.Size {
		return nil, fmt.Errorf("cas: merkle image too short (%d bytes)", len(raw))
	}
	if string(raw[:len(merkleMagic)]) != merkleMagic {
		return nil, fmt.Errorf("cas: not a merkle image (bad magic)")
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("cas: merkle image checksum mismatch")
	}
	off := len(merkleMagic)
	gen := int(binary.BigEndian.Uint32(body[off : off+4]))
	n := int(binary.BigEndian.Uint32(body[off+4 : off+8]))
	off += 8
	if want := off + n*sha256.Size + sha256.Size; want != len(body) {
		return nil, fmt.Errorf("cas: merkle image frames %d leaves but holds %d bytes, want %d", n, len(body), want)
	}
	leaves := make([][sha256.Size]byte, n)
	for i := range leaves {
		copy(leaves[i][:], body[off:off+sha256.Size])
		off += sha256.Size
	}
	var storedRoot [sha256.Size]byte
	copy(storedRoot[:], body[off:])
	m := BuildMerkle(gen, leaves)
	if m.Root() != storedRoot {
		return nil, fmt.Errorf("cas: merkle root mismatch (leaves do not reduce to the sealed root)")
	}
	return m, nil
}
