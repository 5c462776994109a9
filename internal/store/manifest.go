package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Store layout under the repository root. The .popper directory is the
// store's own metadata; it is never part of the tracked workspace.
const (
	popperDir        = ".popper"
	manifestPath     = ".popper/manifest"
	manifestNextPath = ".popper/manifest.next"
	objectsDir       = ".popper/objects"
	extentsDir       = ".popper/extents"
	quarantineDir    = ".popper/quarantine"
	// tmpSuffix marks the store's in-flight atomic-write temp files; a
	// surviving one is debris from an interrupted sync.
	tmpSuffix = ".ptmp"
	// legacyMerklePath is the hash-tree sidecar earlier versions sealed
	// beside every manifest. Nothing reads it: verify passes over it,
	// and the next commit's gc removes it.
	legacyMerklePath = ".popper/merkle"
)

// Exported layout names for addressing store artifacts.
const (
	// ManifestFile is the committed manifest's path.
	ManifestFile = manifestPath
	// QuarantinePrefix prefixes everything repair quarantined.
	QuarantinePrefix = quarantineDir + "/"
)

// ObjectFile returns the loose-object path for a content hash.
func ObjectFile(hash [sha256.Size]byte) string { return objectPath(hash) }

// Entry is one manifest line: a tracked file's path, size and content
// hash.
type Entry struct {
	Path string
	Size int64
	Hash [sha256.Size]byte
}

// Manifest is the write-ahead record of a committed workspace
// generation: for every tracked file, the content the repository is
// supposed to hold. It is the reference `popper fsck` verifies the
// tree against.
type Manifest struct {
	Generation int
	Entries    []Entry // sorted by path
	// byPath maps each path to its entry index. It is never modified
	// once built, so generations that differ only in entry contents
	// share one.
	byPath map[string]int
	// digest is the SHA-256 of the manifest's bytes on disk: those it
	// was read from, or those a commit wrote (encodeForCommit). Every
	// manifest the store caches as committed carries it; one built in
	// memory and never written has none.
	digest [sha256.Size]byte
}

// manifestHeader versions the on-disk format.
const manifestHeader = "popper-manifest v1"

// NewManifest builds a manifest over a workspace snapshot: every
// tracked path, hashed, at the given generation.
func NewManifest(generation int, files map[string][]byte) *Manifest {
	m := &Manifest{Generation: generation}
	for path, content := range files {
		if !Tracked(path) {
			continue
		}
		m.Entries = append(m.Entries, Entry{Path: path, Size: int64(len(content)), Hash: sha256.Sum256(content)})
	}
	sortEntries(m)
	return m
}

// sortEntries sorts and indexes a manifest built from entries in no
// particular order.
func sortEntries(m *Manifest) {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path })
	m.index()
}

func (m *Manifest) index() {
	m.byPath = make(map[string]int, len(m.Entries))
	for i, e := range m.Entries {
		m.byPath[e.Path] = i
	}
}

// Len returns the number of tracked files.
func (m *Manifest) Len() int { return len(m.Entries) }

// Lookup returns the entry for a path.
func (m *Manifest) Lookup(path string) (Entry, bool) {
	i, ok := m.byPath[path]
	if !ok {
		return Entry{}, false
	}
	return m.Entries[i], true
}

// Matches reports whether content is exactly what the manifest records
// for path. Allocation-free: this is the clean-sync hot path.
func (m *Manifest) Matches(path string, content []byte) bool {
	i, ok := m.byPath[path]
	if !ok {
		return false
	}
	e := &m.Entries[i]
	return e.Size == int64(len(content)) && e.Hash == sha256.Sum256(content)
}

// encodeForCommit renders the manifest a commit is about to write and
// keeps the digest of those bytes, so naming the committed state
// (StateDigest) never encodes it again.
func (m *Manifest) encodeForCommit() []byte {
	raw := m.Encode()
	m.digest = sha256.Sum256(raw)
	return raw
}

// Encode renders the manifest:
//
//	popper-manifest v1
//	generation 4
//	<sha256hex> <size> <path>
//	...
//	checksum <sha256hex of all preceding bytes>
//
// The trailing checksum makes a damaged manifest self-evident.
func (m *Manifest) Encode() []byte {
	const intMax = len("-9223372036854775808")
	size := len(manifestHeader) + len("\ngeneration \n") + intMax + len("checksum \n") + hex.EncodedLen(sha256.Size)
	for i := range m.Entries {
		size += hex.EncodedLen(sha256.Size) + len("  \n") + intMax + len(m.Entries[i].Path)
	}
	b := make([]byte, 0, size)
	b = append(b, manifestHeader+"\ngeneration "...)
	b = strconv.AppendInt(b, int64(m.Generation), 10)
	b = append(b, '\n')
	for i := range m.Entries {
		e := &m.Entries[i]
		b = hex.AppendEncode(b, e.Hash[:])
		b = append(b, ' ')
		b = strconv.AppendInt(b, e.Size, 10)
		b = append(b, ' ')
		b = append(b, e.Path...)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	b = append(b, "checksum "...)
	b = hex.AppendEncode(b, sum[:])
	return append(b, '\n')
}

// ParseManifest decodes and verifies an encoded manifest. Any
// deviation — bad header, bad checksum, torn tail — is an error; fsck
// treats an unparseable manifest as damaged.
func ParseManifest(raw []byte) (*Manifest, error) {
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

// Tracked reports whether a path belongs to the manifested workspace.
// The rules mirror what `popper` loads: dot-directories (including the
// store's own .popper) and dot-files are out, except the convention's
// own dot-configs; the store's temp files are never workspace content.
// A path with a newline is never tracked: manifest entries are
// newline-framed, so it could not be recorded (see CheckPath).
func Tracked(path string) bool {
	return trackedShape(path) && !strings.Contains(path, "\n")
}

// CheckPath refuses a path the rules above would track but for a
// newline in it. Committing one would write a manifest that no later
// open can parse, so Sync and Put reject it, by name, before the
// intent record is written (and the replicated store before it
// proposes the write).
func CheckPath(path string) error {
	if strings.Contains(path, "\n") && trackedShape(path) {
		return fmt.Errorf("store: path %q cannot be tracked: it contains a newline", path)
	}
	return nil
}

// trackedShape applies Tracked's naming rules, newlines aside.
func trackedShape(path string) bool {
	if strings.HasSuffix(path, tmpSuffix) {
		return false
	}
	rest := path
	for {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" {
			return false
		}
		if seg[0] == '.' {
			if more {
				return false // inside a dot-directory
			}
			switch seg {
			case ".popper.yml", ".travis.yml", ".popper-ci.yml", ".gitkeep":
				return true
			}
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// objectPath returns the content-addressed object location for a hash.
func objectPath(hash [sha256.Size]byte) string {
	hh := hex.EncodeToString(hash[:])
	return objectsDir + "/" + hh[:2] + "/" + hh
}
