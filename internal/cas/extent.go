package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Extents pack many small objects into one append-only blob — the
// ChubaoFS blob-store/extent-store split. A repo full of tiny
// artifacts (results.csv, goldens, journals) costs one file instead of
// hundreds, and the artifact store can fsync one extent per generation
// instead of one file per object.
//
// Layout (all sections in one byte stream):
//
//	popper-extent v1\n
//	<record>*            each: 8-byte big-endian payload size,
//	                     32-byte SHA-256 of the payload, payload bytes
//	popper-extent-index <n>\n
//	<hex hash> <payload offset> <size>\n   × n
//	popper-extent-footer <index offset> <hex sha256 of everything above>\n
//
// The trailing checksum makes torn writes detectable (like the
// manifest), and because every record carries its own digest, a torn
// extent is still partially salvageable: records are walked from the
// front and every payload that matches its digest is recovered
// (SalvageExtent). That is what lets the store's repair plan treat a
// torn extent like a set of loose objects instead of losing all of them.

const (
	extentMagic       = "popper-extent v1\n"
	extentIndexPrefix = "popper-extent-index "
	extentFooterWord  = "popper-extent-footer"
)

// ExtentRecord locates one object inside an extent: Offset is where
// the payload starts in the raw extent bytes.
type ExtentRecord struct {
	Hash   [sha256.Size]byte
	Offset int64
	Size   int64
}

// EncodeExtent packs blobs into one extent image. Order is preserved;
// duplicate content is the caller's concern (the store never packs the
// same hash twice).
func EncodeExtent(blobs [][]byte) []byte {
	hashes := make([][sha256.Size]byte, len(blobs))
	for i, b := range blobs {
		hashes[i] = sha256.Sum256(b)
	}
	img, _ := EncodeHashedExtent(blobs, hashes)
	return img
}

// EncodeHashedExtent is EncodeExtent for a caller that already holds
// each blob's SHA-256: hashes[i] must be the digest of exactly
// blobs[i]. It also returns the image's records, as ParseExtent would.
func EncodeHashedExtent(blobs [][]byte, hashes [][sha256.Size]byte) ([]byte, []ExtentRecord) {
	var buf bytes.Buffer
	buf.WriteString(extentMagic)
	recs := make([]ExtentRecord, 0, len(blobs))
	var hdr [8]byte
	for i, b := range blobs {
		binary.BigEndian.PutUint64(hdr[:], uint64(len(b)))
		buf.Write(hdr[:])
		buf.Write(hashes[i][:])
		recs = append(recs, ExtentRecord{Hash: hashes[i], Offset: int64(buf.Len()), Size: int64(len(b))})
		buf.Write(b)
	}
	indexOff := buf.Len()
	fmt.Fprintf(&buf, "%s%d\n", extentIndexPrefix, len(recs))
	for _, r := range recs {
		fmt.Fprintf(&buf, "%s %d %d\n", hex.EncodeToString(r.Hash[:]), r.Offset, r.Size)
	}
	sum := sha256.Sum256(buf.Bytes())
	fmt.Fprintf(&buf, "%s %d %s\n", extentFooterWord, indexOff, hex.EncodeToString(sum[:]))
	return buf.Bytes(), recs
}

// ParseExtent decodes an intact extent via its footer and index,
// verifying the whole-image checksum. A torn or corrupted extent
// returns an error; use SalvageExtent to recover what survives.
func ParseExtent(raw []byte) ([]ExtentRecord, error) {
	if !bytes.HasPrefix(raw, []byte(extentMagic)) {
		return nil, fmt.Errorf("cas: not an extent (bad magic)")
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return nil, fmt.Errorf("cas: extent truncated (no trailing newline)")
	}
	// The footer is the final line.
	body := raw[:len(raw)-1]
	nl := bytes.LastIndexByte(body, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cas: extent truncated (no footer line)")
	}
	footerStart := nl + 1
	fields := strings.Fields(string(body[footerStart:]))
	if len(fields) != 3 || fields[0] != extentFooterWord {
		return nil, fmt.Errorf("cas: extent footer malformed")
	}
	indexOff, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || indexOff < int64(len(extentMagic)) || indexOff >= int64(footerStart) {
		return nil, fmt.Errorf("cas: extent footer index offset invalid")
	}
	wantSum, err := hex.DecodeString(fields[2])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, fmt.Errorf("cas: extent footer checksum malformed")
	}
	if sum := sha256.Sum256(raw[:footerStart]); !bytes.Equal(sum[:], wantSum) {
		return nil, fmt.Errorf("cas: extent checksum mismatch")
	}
	// Checksum proves the index region intact; parse it.
	index := raw[indexOff:footerStart]
	nl = bytes.IndexByte(index, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cas: extent index header missing")
	}
	header := string(index[:nl])
	if !strings.HasPrefix(header, strings.TrimSpace(extentIndexPrefix)) {
		return nil, fmt.Errorf("cas: extent index header malformed")
	}
	n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(header, strings.TrimSpace(extentIndexPrefix))))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("cas: extent index count malformed")
	}
	lines := strings.Split(strings.TrimSuffix(string(index[nl+1:]), "\n"), "\n")
	if n == 0 && len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	if len(lines) != n {
		return nil, fmt.Errorf("cas: extent index has %d entries, header says %d", len(lines), n)
	}
	recs := make([]ExtentRecord, 0, n)
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("cas: extent index entry malformed: %q", line)
		}
		hb, err := hex.DecodeString(f[0])
		if err != nil || len(hb) != sha256.Size {
			return nil, fmt.Errorf("cas: extent index hash malformed: %q", f[0])
		}
		off, err1 := strconv.ParseInt(f[1], 10, 64)
		size, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil || off < 0 || size < 0 || off+size > indexOff {
			return nil, fmt.Errorf("cas: extent index entry out of range: %q", line)
		}
		var r ExtentRecord
		copy(r.Hash[:], hb)
		r.Offset, r.Size = off, size
		recs = append(recs, r)
	}
	return recs, nil
}

// SalvageExtent walks a (possibly torn) extent's record stream from
// the front and returns every record whose payload verifies against
// its embedded digest, stopping at the first record that does not.
// Returns nil if the image is not an extent at all.
func SalvageExtent(raw []byte) []ExtentRecord {
	if !bytes.HasPrefix(raw, []byte(extentMagic)) {
		return nil
	}
	var recs []ExtentRecord
	pos := int64(len(extentMagic))
	for {
		rest := raw[pos:]
		if len(rest) == 0 || bytes.HasPrefix(rest, []byte(extentIndexPrefix)) {
			return recs // clean end of the record region
		}
		if int64(len(rest)) < 8+sha256.Size {
			return recs // torn mid-header
		}
		size := int64(binary.BigEndian.Uint64(rest[:8]))
		payloadStart := pos + 8 + sha256.Size
		if size < 0 || payloadStart+size > int64(len(raw)) {
			return recs // torn mid-payload
		}
		var want [sha256.Size]byte
		copy(want[:], rest[8:8+sha256.Size])
		payload := raw[payloadStart : payloadStart+size]
		if sha256.Sum256(payload) != want {
			return recs // corrupted payload; nothing after it is trustworthy
		}
		recs = append(recs, ExtentRecord{Hash: want, Offset: payloadStart, Size: size})
		pos = payloadStart + size
	}
}

// IsExtent reports whether raw begins with the extent magic — enough
// to classify a damaged image as a torn extent rather than debris.
func IsExtent(raw []byte) bool {
	return bytes.HasPrefix(raw, []byte(extentMagic))
}
