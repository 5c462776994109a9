package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// parseExtentOracle is the string-splitting ParseExtent of the version
// before the in-place index scanner, kept as the differential fuzzing
// oracle: the scanner must accept what it accepts, with the same
// records, and refuse what it refuses, with the same message — except
// that the scanner also refuses an index entry whose offset plus size
// overflows int64, which this parser admits.
func parseExtentOracle(raw []byte) ([]ExtentRecord, error) {
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
