package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// parseManifestOracle is the line-splitting ParseManifest of the
// version before the in-place scanner, kept as the differential
// fuzzing oracle: the scanner must accept what it accepts, with the
// same entries, and refuse what it refuses, with the same message —
// except that the scanner also refuses an entry path that is not
// Tracked or repeats an earlier one, which this parser admits.
func parseManifestOracle(raw []byte) (*Manifest, error) {
	text := string(raw)
	i := strings.LastIndex(text, "checksum ")
	if i < 0 || !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("store: manifest: missing checksum (torn or damaged)")
	}
	body, sumLine := text[:i], strings.TrimSpace(text[i+len("checksum "):])
	want := sha256.Sum256([]byte(body))
	if sumLine != hex.EncodeToString(want[:]) {
		return nil, fmt.Errorf("store: manifest: checksum mismatch (damaged)")
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 || lines[0] != manifestHeader {
		return nil, fmt.Errorf("store: manifest: bad header")
	}
	genStr, ok := strings.CutPrefix(lines[1], "generation ")
	if !ok {
		return nil, fmt.Errorf("store: manifest: missing generation")
	}
	gen, err := strconv.Atoi(genStr)
	if err != nil {
		return nil, fmt.Errorf("store: manifest: bad generation %q", genStr)
	}
	m := &Manifest{Generation: gen}
	for _, line := range lines[2:] {
		hashStr, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("store: manifest: bad entry %q", line)
		}
		sizeStr, path, ok := strings.Cut(rest, " ")
		if !ok || path == "" {
			return nil, fmt.Errorf("store: manifest: bad entry %q", line)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: manifest: bad size in %q", line)
		}
		hash, err := hex.DecodeString(hashStr)
		if err != nil || len(hash) != sha256.Size {
			return nil, fmt.Errorf("store: manifest: bad hash in %q", line)
		}
		e := Entry{Path: path, Size: size}
		copy(e.Hash[:], hash)
		m.Entries = append(m.Entries, e)
	}
	m.index()
	return m, nil
}
