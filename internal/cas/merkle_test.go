package cas

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// leafFor builds a deterministic distinct leaf digest.
func leafFor(i int) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("leaf-%d", i)))
}

func buildLeaves(n int) [][sha256.Size]byte {
	leaves := make([][sha256.Size]byte, n)
	for i := range leaves {
		leaves[i] = leafFor(i)
	}
	return leaves
}

func TestMerkleEncodeParseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 64, 100} {
		m := BuildMerkle(n+7, buildLeaves(n))
		raw := m.Encode()
		got, err := ParseMerkle(raw)
		if err != nil {
			t.Fatalf("n=%d: parse: %v", n, err)
		}
		if got.Gen != m.Gen || got.Len() != m.Len() || got.Root() != m.Root() {
			t.Fatalf("n=%d: round trip mutated the tree: gen %d/%d len %d/%d", n, got.Gen, m.Gen, got.Len(), m.Len())
		}
		for i := 0; i < n; i++ {
			if got.Leaf(i) != m.Leaf(i) {
				t.Fatalf("n=%d: leaf %d mutated", n, i)
			}
		}
		// Encoding is canonical: re-encoding reproduces the same bytes.
		if string(got.Encode()) != string(raw) {
			t.Fatalf("n=%d: re-encoding is not canonical", n)
		}
	}
}

func TestMerkleEmptyTreeHasStableRoot(t *testing.T) {
	a := BuildMerkle(1, nil)
	b := BuildMerkle(1, [][sha256.Size]byte{})
	if a.Root() != b.Root() {
		t.Fatal("empty roots differ between nil and empty slices")
	}
	if diff, compares := a.Diff(b); len(diff) != 0 || compares != 1 {
		t.Fatalf("empty diff: %v, %d compares", diff, compares)
	}
}

func TestMerkleParseRejectsDamage(t *testing.T) {
	raw := BuildMerkle(3, buildLeaves(9)).Encode()
	cases := map[string][]byte{
		"empty":        {},
		"short":        raw[:10],
		"truncated":    raw[:len(raw)-5],
		"bad magic":    append([]byte("rotten-magic 1!!!"), raw[17:]...),
		"flipped bit":  flipByte(raw, len(raw)/2),
		"flipped leaf": flipByte(raw, 30), // inside the first leaf digest
	}
	for name, img := range cases {
		if _, err := ParseMerkle(img); err == nil {
			t.Errorf("%s: damaged image parsed without error", name)
		}
	}
	// A forged root with a recomputed outer checksum must still fail:
	// the leaves do not reduce to it.
	forged := append([]byte(nil), raw[:len(raw)-sha256.Size]...)
	forged[len(forged)-1] ^= 0x40 // flip a bit inside the stored root
	sum := sha256.Sum256(forged)
	forged = append(forged, sum[:]...)
	if _, err := ParseMerkle(forged); err == nil {
		t.Error("forged root with valid checksum parsed without error")
	}
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0x01
	return out
}

func TestMerkleDiffLocalizesWithoutLinearCompares(t *testing.T) {
	const n = 1024
	sealed := BuildMerkle(1, buildLeaves(n))

	// Clean tree: one root compare settles it.
	if diff, compares := sealed.Diff(BuildMerkle(1, buildLeaves(n))); len(diff) != 0 || compares != 1 {
		t.Fatalf("clean diff: %v findings, %d compares", diff, compares)
	}

	// k rotted leaves localize in O(k log n) node compares, nowhere near
	// the n it would take to re-hash everything.
	for _, rot := range [][]int{{0}, {511}, {1023}, {3, 700, 1022}, {1, 2, 3, 4, 5}} {
		leaves := buildLeaves(n)
		for _, i := range rot {
			leaves[i] = sha256.Sum256([]byte(fmt.Sprintf("rot-%d", i)))
		}
		diff, compares := sealed.Diff(BuildMerkle(1, leaves))
		if len(diff) != len(rot) {
			t.Fatalf("rot %v: diff %v", rot, diff)
		}
		for j, i := range rot {
			if diff[j] != i {
				t.Fatalf("rot %v: diff %v misses leaf %d", rot, diff, i)
			}
		}
		bound := 2 * (len(rot) + 1) * (int(math.Log2(n)) + 2)
		if compares > bound {
			t.Errorf("rot %v: %d compares exceed the O(k log n) bound %d", rot, compares, bound)
		}
		if compares >= n {
			t.Errorf("rot %v: %d compares is linear work (n=%d)", rot, compares, n)
		}
	}

	// Structurally different trees fall back to reporting every leaf.
	if diff, compares := sealed.Diff(BuildMerkle(1, buildLeaves(n-1))); len(diff) != n || compares != 1 {
		t.Fatalf("length-mismatch diff: %d findings, %d compares", len(diff), compares)
	}
}

func TestMerkleProofsVerifyEveryLeaf(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33} {
		m := BuildMerkle(1, buildLeaves(n))
		root := m.Root()
		for i := 0; i < n; i++ {
			proof := m.Proof(i)
			if len(proof) > int(math.Ceil(math.Log2(float64(n))))+1 {
				t.Fatalf("n=%d leaf %d: proof of %d siblings is super-logarithmic", n, i, len(proof))
			}
			if !VerifyMerkleProof(root, n, i, m.Leaf(i), proof) {
				t.Fatalf("n=%d: leaf %d proof does not verify", n, i)
			}
			// A rotted leaf must not verify against the sealed root.
			bad := m.Leaf(i)
			bad[0] ^= 0x80
			if VerifyMerkleProof(root, n, i, bad, proof) {
				t.Fatalf("n=%d: rotted leaf %d verified", n, i)
			}
			// Nor may the proof be replayed at another index.
			if n > 1 && VerifyMerkleProof(root, n, (i+1)%n, m.Leaf(i), proof) {
				t.Fatalf("n=%d: leaf %d proof verified at the wrong index", n, i)
			}
		}
		if VerifyMerkleProof(root, n, -1, m.Leaf(0), m.Proof(0)) || VerifyMerkleProof(root, n, n, m.Leaf(0), m.Proof(0)) {
			t.Fatalf("n=%d: out-of-range index verified", n)
		}
	}
}

// sameTree reports whether two trees hold identical generations and
// nodes at every level, not just identical roots.
func sameTree(a, b *Merkle) bool {
	if a.Gen != b.Gen || len(a.levels) != len(b.levels) {
		return false
	}
	for k := range a.levels {
		if len(a.levels[k]) != len(b.levels[k]) {
			return false
		}
		for i := range a.levels[k] {
			if a.levels[k][i] != b.levels[k][i] {
				return false
			}
		}
	}
	return true
}

// checkBuildFrom asserts the incremental builder's contract: whatever
// prev is, the result is the tree a fresh build produces, node for node
// and byte for byte once encoded.
func checkBuildFrom(t *testing.T, what string, prev *Merkle, leaves [][sha256.Size]byte) {
	t.Helper()
	got, want := BuildMerkleFrom(prev, 11, leaves), BuildMerkle(11, leaves)
	if !sameTree(got, want) || string(got.Encode()) != string(want.Encode()) {
		t.Fatalf("%s: incremental build differs from a fresh build", what)
	}
}

func TestBuildMerkleFromMatchesFreshBuild(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 100}
	other := func(n int) [][sha256.Size]byte {
		leaves := make([][sha256.Size]byte, n)
		for i := range leaves {
			leaves[i] = sha256.Sum256([]byte(fmt.Sprintf("other-%d", i)))
		}
		return leaves
	}
	for _, n := range sizes {
		leaves := buildLeaves(n)
		prev := BuildMerkle(3, leaves)
		checkBuildFrom(t, fmt.Sprintf("n=%d nil prev", n), nil, leaves)
		checkBuildFrom(t, fmt.Sprintf("n=%d same leaves", n), prev, leaves)
		checkBuildFrom(t, fmt.Sprintf("n=%d unrelated prev", n), BuildMerkle(3, other(n)), leaves)
		for _, m := range sizes {
			if m < n {
				checkBuildFrom(t, fmt.Sprintf("n=%d shorter prev %d", n, m), BuildMerkle(3, leaves[:m]), leaves)
			} else if m > n {
				checkBuildFrom(t, fmt.Sprintf("n=%d longer prev %d", n, m), BuildMerkle(3, buildLeaves(m)), leaves)
			}
		}
		for i := 0; i < n; i++ {
			replaced := append([][sha256.Size]byte(nil), leaves...)
			replaced[i] = sha256.Sum256([]byte(fmt.Sprintf("replaced-%d", i)))
			checkBuildFrom(t, fmt.Sprintf("n=%d replace %d", n, i), prev, replaced)
			removed := append(append([][sha256.Size]byte(nil), leaves[:i]...), leaves[i+1:]...)
			checkBuildFrom(t, fmt.Sprintf("n=%d remove %d", n, i), prev, removed)
		}
		for i := 0; i <= n; i++ {
			inserted := append(append(append([][sha256.Size]byte(nil), leaves[:i]...), leafFor(1000+i)), leaves[i:]...)
			checkBuildFrom(t, fmt.Sprintf("n=%d insert at %d", n, i), prev, inserted)
		}
	}
	// Random histories: each tree is built from the previous one, the
	// way the store seals generation after generation.
	rng := rand.New(rand.NewSource(42))
	leaves := buildLeaves(20)
	prev := BuildMerkle(1, leaves)
	for step := 0; step < 500; step++ {
		next := append([][sha256.Size]byte(nil), leaves...)
		for k := rng.Intn(4); k >= 0; k-- {
			switch i := rng.Intn(len(next) + 1); rng.Intn(3) {
			case 0:
				if i < len(next) {
					next[i] = leafFor(rng.Intn(1 << 20))
				}
			case 1:
				next = append(next[:i], append([][sha256.Size]byte{leafFor(rng.Intn(1 << 20))}, next[i:]...)...)
			case 2:
				if i < len(next) {
					next = append(next[:i], next[i+1:]...)
				}
			}
		}
		checkBuildFrom(t, fmt.Sprintf("history step %d", step), prev, next)
		leaves, prev = next, BuildMerkleFrom(prev, step, next)
	}
}
