package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"popper/internal/cas"
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

// newManifest builds a manifest over a workspace snapshot: every
// tracked path, hashed, at the given generation, taking each file's
// hash from hashes where it has one (see SyncHashed).
func newManifest(generation int, files map[string][]byte, hashes map[string][sha256.Size]byte) *Manifest {
	m := &Manifest{Generation: generation}
	for path, content := range files {
		if !Tracked(path) {
			continue
		}
		m.Entries = append(m.Entries, Entry{Path: path, Size: int64(len(content)), Hash: hashOf(path, content, hashes)})
	}
	sortEntries(m)
	return m
}

// hashOf returns content's SHA-256: hashes[path] when the caller proved
// it, else computed.
func hashOf(path string, content []byte, hashes map[string][sha256.Size]byte) [sha256.Size]byte {
	if sum, ok := hashes[path]; ok {
		return sum
	}
	return sha256.Sum256(content)
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

// matches reports whether content is exactly what the manifest records
// for path, taking content's hash from hashes where it has one (see
// SyncHashed); content is hashed only when its size matches.
// Allocation-free: this is the clean-sync hot path.
func (m *Manifest) matches(path string, content []byte, hashes map[string][sha256.Size]byte) bool {
	i, ok := m.byPath[path]
	if !ok {
		return false
	}
	e := &m.Entries[i]
	return e.Size == int64(len(content)) && e.Hash == hashOf(path, content, hashes)
}

// holds reports whether a manifest — nil for none — records e's path
// with e's size and hash: the committed content is already e's.
func (m *Manifest) holds(e Entry) bool {
	if m == nil {
		return false
	}
	c, ok := m.Lookup(e.Path)
	return ok && c.Size == e.Size && c.Hash == e.Hash
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
// treats an unparseable manifest as damaged. So is an entry whose path
// is not Tracked (an absolute path, a `..` or empty segment, a
// dot-directory) or repeats an earlier entry's: the checksum is plain
// SHA-256, which anyone can recompute, so nothing else keeps a forged
// manifest from naming a file outside the repository for Sync to prune
// or repair to write.
//
// It scans raw in place: hashes decode straight into the entries, and
// the paths share one string holding the entry lines.
func ParseManifest(raw []byte) (*Manifest, error) {
	i := bytes.LastIndex(raw, []byte("checksum "))
	if i < 0 || raw[len(raw)-1] != '\n' {
		return nil, fmt.Errorf("store: manifest: missing checksum (torn or damaged)")
	}
	body := raw[:i]
	want := sha256.Sum256(body)
	var wantHex [2 * sha256.Size]byte
	hex.Encode(wantHex[:], want[:])
	if !bytes.Equal(bytes.TrimSpace(raw[i+len("checksum "):]), wantHex[:]) {
		return nil, fmt.Errorf("store: manifest: checksum mismatch (damaged)")
	}
	text := bytes.TrimSuffix(body, []byte("\n"))
	header, text, more := bytes.Cut(text, []byte("\n"))
	if !more || string(header) != manifestHeader {
		return nil, fmt.Errorf("store: manifest: bad header")
	}
	genLine, text, more := bytes.Cut(text, []byte("\n"))
	genStr, ok := bytes.CutPrefix(genLine, []byte("generation "))
	if !ok {
		return nil, fmt.Errorf("store: manifest: missing generation")
	}
	gen, err := strconv.Atoi(string(genStr))
	if err != nil {
		return nil, fmt.Errorf("store: manifest: bad generation %q", genStr)
	}
	m := &Manifest{Generation: gen}
	if !more {
		m.index()
		return m, nil
	}
	m.Entries = make([]Entry, 0, bytes.Count(text, []byte("\n"))+1)
	paths := string(text) // every entry's path is a substring of it
	for off := 0; off <= len(text); {
		line, _, _ := bytes.Cut(text[off:], []byte("\n"))
		end := off + len(line)
		off = end + 1
		hashStr, rest, ok := bytes.Cut(line, []byte(" "))
		if !ok {
			return nil, fmt.Errorf("store: manifest: bad entry %q", line)
		}
		sizeStr, path, ok := bytes.Cut(rest, []byte(" "))
		if !ok || len(path) == 0 {
			return nil, fmt.Errorf("store: manifest: bad entry %q", line)
		}
		size, err := strconv.ParseInt(string(sizeStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: manifest: bad size in %q", line)
		}
		e := Entry{Path: paths[end-len(path) : end], Size: size}
		if !cas.DecodeHash(&e.Hash, hashStr) {
			return nil, fmt.Errorf("store: manifest: bad hash in %q", line)
		}
		m.Entries = append(m.Entries, e)
	}
	m.byPath = make(map[string]int, len(m.Entries))
	for i, e := range m.Entries {
		if !Tracked(e.Path) {
			return nil, fmt.Errorf("store: manifest: entry path %q is not a tracked path", e.Path)
		}
		if _, dup := m.byPath[e.Path]; dup {
			return nil, fmt.Errorf("store: manifest: entry path %q repeats an earlier entry", e.Path)
		}
		m.byPath[e.Path] = i
	}
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
