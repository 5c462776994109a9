package cas

import (
	"bytes"
	"fmt"
	"testing"
)

func extentBlobs() [][]byte {
	return [][]byte{
		[]byte("metric,value\nthroughput,812\n"),
		[]byte("config,status\n001,ok\n"),
		{}, // empty payloads must round-trip too
		bytes.Repeat([]byte("log line\n"), 100),
	}
}

func TestExtentEncodeParseRoundTrip(t *testing.T) {
	blobs := extentBlobs()
	raw := EncodeExtent(blobs)
	if !IsExtent(raw) {
		t.Fatal("encoded extent fails IsExtent")
	}
	recs, err := ParseExtent(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != len(blobs) {
		t.Fatalf("got %d records, want %d", len(recs), len(blobs))
	}
	for i, r := range recs {
		payload := raw[r.Offset : r.Offset+r.Size]
		if !bytes.Equal(payload, blobs[i]) {
			t.Fatalf("record %d payload differs: %q", i, payload)
		}
		if Sum(blobs[i]).Hash != r.Hash {
			t.Fatalf("record %d hash mismatch", i)
		}
	}
}

func TestExtentEmptyRoundTrip(t *testing.T) {
	raw := EncodeExtent(nil)
	recs, err := ParseExtent(raw)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty extent: %v, %d records", err, len(recs))
	}
}

func TestExtentDetectsCorruption(t *testing.T) {
	raw := EncodeExtent(extentBlobs())
	for _, flip := range []int{len(extentMagic) + 3, len(raw) / 2, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[flip]++
		if _, err := ParseExtent(mut); err == nil {
			t.Fatalf("byte flip at %d must not parse", flip)
		}
	}
	if _, err := ParseExtent(raw[:len(raw)-10]); err == nil {
		t.Fatal("torn extent must not parse")
	}
	if _, err := ParseExtent([]byte("not an extent at all")); err == nil {
		t.Fatal("non-extent must not parse")
	}
}

func TestExtentSalvage(t *testing.T) {
	blobs := extentBlobs()
	raw := EncodeExtent(blobs)
	full, err := ParseExtent(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Torn mid-way through the last payload: everything before it
	// salvages.
	cut := full[len(full)-1].Offset + full[len(full)-1].Size/2
	recs := SalvageExtent(raw[:cut])
	if len(recs) != len(blobs)-1 {
		t.Fatalf("torn extent salvaged %d records, want %d", len(recs), len(blobs)-1)
	}
	for i, r := range recs {
		if !bytes.Equal(raw[r.Offset:r.Offset+r.Size], blobs[i]) {
			t.Fatalf("salvaged record %d differs", i)
		}
	}

	// An intact image salvages everything (index region ends the walk).
	if recs := SalvageExtent(raw); len(recs) != len(blobs) {
		t.Fatalf("intact image salvaged %d, want %d", len(recs), len(blobs))
	}

	// A corrupted payload ends the salvage at the damage.
	mut := append([]byte(nil), raw...)
	mut[full[1].Offset]++
	if recs := SalvageExtent(mut); len(recs) != 1 {
		t.Fatalf("corruption in record 1 should salvage exactly record 0, got %d", len(recs))
	}

	if SalvageExtent([]byte("junk")) != nil {
		t.Fatal("non-extent must salvage nothing")
	}
}

func TestExtentSalvageScalesToManyRecords(t *testing.T) {
	var blobs [][]byte
	for i := 0; i < 200; i++ {
		blobs = append(blobs, []byte(fmt.Sprintf("artifact %d\n", i)))
	}
	raw := EncodeExtent(blobs)
	// Tear at every prefix boundary of the header region of record 100.
	base, _ := ParseExtent(raw)
	for _, cut := range []int64{base[100].Offset - 40 + 1, base[100].Offset - 1, base[100].Offset + 2} {
		recs := SalvageExtent(raw[:cut])
		if len(recs) != 100 {
			t.Fatalf("cut %d: salvaged %d, want 100", cut, len(recs))
		}
	}
}

// TestFieldsMatchesBytesFields: Fields splits as bytes.Fields does,
// Unicode white space and invalid bytes included, and says when a line
// holds more fields than dst can take.
func TestFieldsMatchesBytesFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "ref abc 12", "  ref\tabc\v12 \r", "a b", "a\u0085b c", " x　y",
		"a\xffb c", "\xe2\x80 x", "set \"dir/é.csv\" 3 1", "a b c d", "a b c d e f",
	} {
		var dst [4][]byte
		n := Fields([]byte(line), dst[:])
		want := bytes.Fields([]byte(line))
		if len(want) > len(dst) {
			if n != len(dst)+1 {
				t.Errorf("%q: Fields = %d, want %d for more than %d fields", line, n, len(dst)+1, len(dst))
			}
			continue
		}
		if n != len(want) {
			t.Errorf("%q: Fields = %d fields, bytes.Fields %d", line, n, len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(dst[i], want[i]) {
				t.Errorf("%q: field %d = %q, want %q", line, i, dst[i], want[i])
			}
		}
	}
}
