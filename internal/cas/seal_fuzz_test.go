package cas_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"popper/internal/fault"
	"popper/internal/store"
)

// legacySealPath is where earlier versions sealed each generation's
// hash tree, the image this package once decoded.
const legacySealPath = ".popper/merkle"

// legacySeal encodes the seal an earlier version wrote for a tree of
// leaves: magic, generation, leaf count, the leaf digests, the root of
// their pairwise reduction (an unpaired node promotes unchanged), and a
// checksum of everything before it.
func legacySeal(gen int, leaves [][sha256.Size]byte) []byte {
	root := sha256.Sum256([]byte("popper-merkle-empty"))
	for level := leaves; len(level) > 0; {
		if len(level) == 1 {
			root = level[0]
			break
		}
		next := make([][sha256.Size]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			node := append([]byte("popper-merkle-node\x00"), level[i][:]...)
			next = append(next, sha256.Sum256(append(node, level[i+1][:]...)))
		}
		level = next
	}
	b := []byte("popper-merkle v1\n")
	b = binary.BigEndian.AppendUint32(b, uint32(gen))
	b = binary.BigEndian.AppendUint32(b, uint32(len(leaves)))
	for _, leaf := range leaves {
		b = append(b, leaf[:]...)
	}
	b = append(b, root[:]...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// FuzzParseMerkle fuzzes the bytes a repository written by an earlier
// version holds at .popper/merkle. Nothing parses that file any more:
// whatever it holds, the store verifies clean beside it and the next
// commit removes it, so no byte pattern there becomes a finding or
// outlives the upgrade. The corpus is that version's seals over 0, 1, 5
// and 64 leaves, each pristine and with the seeded bit-rot of the
// crash and rot matrices (fault.CorruptBytes with their seeds).
func FuzzParseMerkle(f *testing.F) {
	for i, n := range []int{0, 1, 5, 64} {
		leaves := make([][sha256.Size]byte, n)
		for j := range leaves {
			leaves[j] = sha256.Sum256([]byte(fmt.Sprintf("fuzz-leaf-%d", j)))
		}
		img := legacySeal(n+1, leaves)
		f.Add(img)
		for _, seed := range []int64{42, 7, 1337} {
			for round := 1; round <= 3; round++ {
				rotted, _ := fault.CorruptBytes(seed, fmt.Sprintf("fuzz-merkle-%d", i), round, img)
				f.Add(rotted)
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fs := store.NewMemFS(1)
		tree := map[string][]byte{".popper.yml": []byte("experiments:\n  - exp\n"), "exp/vars.yml": []byte("alpha: 1\n")}
		if _, err := store.New(fs).Sync(tree); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(legacySealPath, raw); err != nil {
			t.Fatal(err)
		}
		st := store.New(fs)
		verifyClean := func(when string) {
			t.Helper()
			rep, err := st.Verify()
			if err != nil {
				t.Fatalf("verify %s: %v", when, err)
			}
			if !rep.Clean() {
				t.Fatalf("verify %s not clean:\n%s", when, rep.Format())
			}
		}
		verifyClean("beside a legacy seal")
		tree["exp/vars.yml"] = []byte("alpha: 2\n")
		if _, err := st.Sync(tree); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(legacySealPath); err == nil {
			t.Fatalf("the next commit left a %d-byte legacy seal behind", len(raw))
		}
		verifyClean("after the next commit")
	})
}
