package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
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

// resealIndex rewrites raw's footer for the index region it holds, from
// the last index header to the footer line, so damage to the index
// lines passes the checksum and reaches the index scanner. It returns
// nil when raw holds no index header.
func resealIndex(raw []byte) []byte {
	body := bytes.TrimSuffix(raw, []byte("\n"))
	if nl := bytes.LastIndexByte(body, '\n'); nl >= 0 && bytes.Contains(body[nl:], []byte(extentFooterWord)) {
		body = body[:nl+1]
	}
	indexOff := bytes.LastIndex(body, []byte(extentIndexPrefix))
	if indexOff < 0 || len(body) == 0 || body[len(body)-1] != '\n' {
		return nil
	}
	sum := sha256.Sum256(body)
	return fmt.Appendf(bytes.Clone(body), "%s %d %x\n", extentFooterWord, indexOff, sum)
}

// checkExtentAgainstOracle requires ParseExtent and the oracle to accept
// raw with the same records or refuse it with the same message, except
// that ParseExtent refuses an index entry whose offset plus size
// overflows, which the oracle admits.
func checkExtentAgainstOracle(t *testing.T, raw []byte) {
	t.Helper()
	want, werr := parseExtentOracle(raw)
	got, err := ParseExtent(raw)
	if werr == nil && slices.ContainsFunc(want, func(r ExtentRecord) bool { return r.Offset+r.Size < 0 }) {
		if err == nil {
			t.Fatalf("ParseExtent admits an index entry whose offset plus size overflows: %+v", got)
		}
		return
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("ParseExtent: %v; the oracle: %v", err, werr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ParseExtent: %+v; the oracle: %+v", got, want)
	}
}

func FuzzParseExtent(f *testing.F) {
	for _, img := range fuzzExtentImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkExtentAgainstOracle(t, raw)
		if resealed := resealIndex(raw); resealed != nil {
			checkExtentAgainstOracle(t, resealed)
		}
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

// TestParseExtentRefusesOverflowingEntry: an index entry whose offset
// plus size overflows int64 wraps below the index offset, so a parser
// that checks the sum admits it, and a consumer slicing the image by it
// panics. The image's checksum is recomputed, as anyone can.
func TestParseExtentRefusesOverflowingEntry(t *testing.T) {
	raw := EncodeExtent([][]byte{[]byte("a")})
	recs, err := ParseExtent(raw)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%x %d %d\n", recs[0].Hash, recs[0].Offset, recs[0].Size)
	forged := fmt.Sprintf("%x %d %d\n", recs[0].Hash, recs[0].Offset, int64(math.MaxInt64))
	damaged := resealIndex(bytes.Replace(raw, []byte(line), []byte(forged), 1))
	if got, err := ParseExtent(damaged); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ParseExtent admits %+v (%v), want an out-of-range refusal", got, err)
	}
}
