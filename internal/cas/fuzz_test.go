package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"popper/internal/fault"
)

// Fuzz targets for the decoder that sits directly under silent
// corruption: the extent parser/salvager. The corpus is seeded with
// pristine images plus the same seeded
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
