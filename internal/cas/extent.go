package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
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
// returns an error; use SalvageExtent to recover what survives. The
// checksum proves the image is what its writer wrote, not that each
// payload matches the hash its index line names: a consumer that needs
// that hashes the payload itself. The index is scanned in place, each
// hash decoded straight into its record.
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
	var fields [3][]byte
	if Fields(body[footerStart:], fields[:]) != 3 || string(fields[0]) != extentFooterWord {
		return nil, fmt.Errorf("cas: extent footer malformed")
	}
	indexOff, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil || indexOff < int64(len(extentMagic)) || indexOff >= int64(footerStart) {
		return nil, fmt.Errorf("cas: extent footer index offset invalid")
	}
	var wantSum [sha256.Size]byte
	if !DecodeHash(&wantSum, fields[2]) {
		return nil, fmt.Errorf("cas: extent footer checksum malformed")
	}
	if sha256.Sum256(raw[:footerStart]) != wantSum {
		return nil, fmt.Errorf("cas: extent checksum mismatch")
	}
	// Checksum proves the index region intact; parse it.
	index := raw[indexOff:footerStart]
	header, lines, _ := bytes.Cut(index, []byte("\n")) // index ends in the footer's newline
	word := []byte(strings.TrimSpace(extentIndexPrefix))
	if !bytes.HasPrefix(header, word) {
		return nil, fmt.Errorf("cas: extent index header malformed")
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(header[len(word):])))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("cas: extent index count malformed")
	}
	lines = bytes.TrimSuffix(lines, []byte("\n"))
	count := bytes.Count(lines, []byte("\n")) + 1
	if n == 0 && len(lines) == 0 {
		count = 0
	}
	if count != n {
		return nil, fmt.Errorf("cas: extent index has %d entries, header says %d", count, n)
	}
	recs := make([]ExtentRecord, n)
	for i := range recs {
		line, rest, _ := bytes.Cut(lines, []byte("\n"))
		lines = rest
		if Fields(line, fields[:]) != 3 {
			return nil, fmt.Errorf("cas: extent index entry malformed: %q", line)
		}
		r := &recs[i]
		if !DecodeHash(&r.Hash, fields[0]) {
			return nil, fmt.Errorf("cas: extent index hash malformed: %q", fields[0])
		}
		off, err1 := strconv.ParseInt(string(fields[1]), 10, 64)
		size, err2 := strconv.ParseInt(string(fields[2]), 10, 64)
		// size > indexOff-off is off+size > indexOff without overflow.
		if err1 != nil || err2 != nil || off < 0 || size < 0 || off > indexOff || size > indexOff-off {
			return nil, fmt.Errorf("cas: extent index entry out of range: %q", line)
		}
		r.Offset, r.Size = off, size
	}
	return recs, nil
}

// DecodeHash decodes src into h when src is exactly the hex encoding of
// a SHA-256 digest, and reports whether it was.
func DecodeHash(h *[sha256.Size]byte, src []byte) bool {
	if len(src) != hex.EncodedLen(sha256.Size) {
		return false
	}
	_, err := hex.Decode(h[:], src)
	return err == nil
}

// Fields splits line around each run of white space, as bytes.Fields
// does, into dst. It returns how many fields line holds, or len(dst)+1
// when it holds more than dst can take; the text formats built on
// extents (the extent index, the stage-cache sidecar's metadata)
// tokenize their lines with it. An ASCII line is split byte by byte
// and allocates nothing; a line with any other byte, which those
// writers leave only in a quoted path, is handed to bytes.Fields.
func Fields(line []byte, dst [][]byte) int {
	n, start := 0, -1
	for i, c := range line {
		switch byteClass[c] {
		case fieldByte:
			if start < 0 {
				start = i
			}
		case spaceByte:
			if start >= 0 {
				if n == len(dst) {
					return n + 1
				}
				dst[n], n, start = line[start:i], n+1, -1
			}
		default:
			all := bytes.Fields(line)
			if len(all) > len(dst) {
				return len(dst) + 1
			}
			return copy(dst, all)
		}
	}
	if start >= 0 {
		if n == len(dst) {
			return n + 1
		}
		dst[n], n = line[start:], n+1
	}
	return n
}

// byteClass sorts each byte for Fields: ASCII white space (what
// unicode.IsSpace holds for below utf8.RuneSelf), another ASCII byte,
// or a byte of a multi-byte rune.
var byteClass = func() (class [256]uint8) {
	for c := utf8.RuneSelf; c < len(class); c++ {
		class[c] = multiByte
	}
	for _, c := range "\t\n\v\f\r " {
		class[c] = spaceByte
	}
	return class
}()

const (
	fieldByte = iota
	spaceByte
	multiByte
)

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
