package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"popper/internal/fault"
)

// Fuzz targets for the two decoders that sit directly under silent
// corruption: the extent parser/salvager and the merkle-seal parser.
// The corpus is seeded with pristine images plus the same seeded
// bit-rot the crash and rot matrices inject (fault.CorruptBytes with
// the matrix seeds), so the fuzzer starts from realistic damage.

var fuzzRotSeeds = []int64{42, 7, 1337}

func fuzzExtentImages() [][]byte {
	images := [][]byte{
		EncodeExtent(nil),
		EncodeExtent([][]byte{[]byte("a")}),
		EncodeExtent([][]byte{
			[]byte("config,status\n001,ok\n"),
			bytes.Repeat([]byte("x"), 4096),
			{},
			[]byte("metadata: {trial: 3}\n"),
		}),
	}
	var out [][]byte
	for i, img := range images {
		out = append(out, img)
		for _, seed := range fuzzRotSeeds {
			for round := 1; round <= 3; round++ {
				rotted, _ := fault.CorruptBytes(seed, fmt.Sprintf("fuzz-extent-%d", i), round, img)
				out = append(out, rotted)
			}
		}
	}
	return out
}

func fuzzMerkleImages() [][]byte {
	var images [][]byte
	for _, n := range []int{0, 1, 5, 64} {
		leaves := make([][sha256.Size]byte, n)
		for i := range leaves {
			leaves[i] = sha256.Sum256([]byte(fmt.Sprintf("fuzz-leaf-%d", i)))
		}
		images = append(images, BuildMerkle(n+1, leaves).Encode())
	}
	var out [][]byte
	for i, img := range images {
		out = append(out, img)
		for _, seed := range fuzzRotSeeds {
			for round := 1; round <= 3; round++ {
				rotted, _ := fault.CorruptBytes(seed, fmt.Sprintf("fuzz-merkle-%d", i), round, img)
				out = append(out, rotted)
			}
		}
	}
	return out
}

// checkRecords asserts the parser's core safety property: every record
// it vouches for must sit inside the image and digest-verify. A decoder
// that hands back unverified bytes would launder rot into the object
// pool.
func checkRecords(t *testing.T, raw []byte, recs []ExtentRecord, who string) {
	t.Helper()
	for i, r := range recs {
		if r.Offset < 0 || r.Size < 0 || r.Offset+r.Size > int64(len(raw)) {
			t.Fatalf("%s: record %d out of range: off %d size %d len %d", who, i, r.Offset, r.Size, len(raw))
		}
		if sha256.Sum256(raw[r.Offset:r.Offset+r.Size]) != r.Hash {
			t.Fatalf("%s: record %d payload does not match its digest", who, i)
		}
	}
}

func FuzzParseExtent(f *testing.F) {
	for _, img := range fuzzExtentImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ParseExtent(raw)
		if err != nil {
			return
		}
		// Accepted images are fully verified and canonically re-encodable.
		checkRecords(t, raw, recs, "parse")
		blobs := make([][]byte, len(recs))
		for i, r := range recs {
			blobs[i] = raw[r.Offset : r.Offset+r.Size]
		}
		recs2, err := ParseExtent(EncodeExtent(blobs))
		if err != nil || len(recs2) != len(recs) {
			t.Fatalf("re-encode of accepted extent does not round-trip: %v (%d/%d records)", err, len(recs2), len(recs))
		}
	})
}

func FuzzSalvageExtent(f *testing.F) {
	for _, img := range fuzzExtentImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs := SalvageExtent(raw)
		checkRecords(t, raw, recs, "salvage")
		// Salvage never does worse than the strict parser: anything the
		// parser accepts whole, the salvager recovers whole.
		if parsed, err := ParseExtent(raw); err == nil && len(recs) < len(parsed) {
			t.Fatalf("salvage recovered %d records from a pristine extent of %d", len(recs), len(parsed))
		}
	})
}

func FuzzParseMerkle(f *testing.F) {
	for _, img := range fuzzMerkleImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseMerkle(raw)
		if err != nil {
			return
		}
		// Accepted seals are internally consistent: the stored root must
		// equal the root recomputed from the leaves, and the encoding is
		// canonical.
		leaves := make([][sha256.Size]byte, m.Len())
		for i := range leaves {
			leaves[i] = m.Leaf(i)
		}
		if BuildMerkle(m.Gen, leaves).Root() != m.Root() {
			t.Fatal("accepted seal's root does not reduce from its leaves")
		}
		again, err := ParseMerkle(m.Encode())
		if err != nil || again.Root() != m.Root() || again.Gen != m.Gen {
			t.Fatalf("accepted seal does not round-trip: %v", err)
		}
	})
}

// fuzzLeaves reads raw bytes as consecutive leaf digests; a trailing
// partial digest is dropped.
func fuzzLeaves(raw []byte) [][sha256.Size]byte {
	leaves := make([][sha256.Size]byte, len(raw)/sha256.Size)
	for i := range leaves {
		copy(leaves[i][:], raw[i*sha256.Size:])
	}
	return leaves
}

// FuzzBuildMerkleFrom checks the incremental builder against a fresh
// build for arbitrary (previous, next) leaf lists. The corpus pairs each
// seal image from fuzzMerkleImages — pristine and rotted, so leaves are
// flipped, scattered and truncated — with its pristine original and
// with every other image (unrelated, shorter and longer trees).
func FuzzBuildMerkleFrom(f *testing.F) {
	images := fuzzMerkleImages()
	per := 1 + 3*len(fuzzRotSeeds) // one pristine image, then its rotted copies
	for i, img := range images {
		orig := images[i-i%per]
		f.Add(orig, img)
		f.Add(img, orig)
		if i%per == 0 {
			for j := 0; j < len(images); j += per {
				f.Add(images[j], img)
			}
		}
	}
	f.Fuzz(func(t *testing.T, prevRaw, nextRaw []byte) {
		prev := BuildMerkle(1, fuzzLeaves(prevRaw))
		leaves := fuzzLeaves(nextRaw)
		got, want := BuildMerkleFrom(prev, 2, leaves), BuildMerkle(2, leaves)
		if !sameTree(got, want) || !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("incremental build over %d leaves (prev %d) differs from a fresh build", len(leaves), prev.Len())
		}
	})
}
