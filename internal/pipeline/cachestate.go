package pipeline

// Cache state persistence: the stage cache is an in-memory structure,
// so without help every `popper run` process starts cold and re-executes
// stages the previous invocation already memoized. SaveState serializes
// the replayable entry index plus the tier chunks it references into one
// self-verifying cas extent image (the same on-disk format the artifact
// store packs small objects with), and NewCacheOpts restores it via
// CacheOptions.State — the second process starts warm.
//
// The image is advisory: any damage (torn write, stale format, missing
// or altered chunk) makes restoration fail as a whole and the cache
// simply starts cold, exactly as if the sidecar had never existed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"popper/internal/cas"
)

// cacheStateMagic heads the metadata blob (record 0 of the extent).
const cacheStateMagic = "popper-cache-state v1"

// SaveState serializes every stage entry into a cas extent image:
// record 0 is a metadata manifest describing the entries and their
// chunk references, the remaining records are the referenced chunk
// payloads (deduplicated). Entries are emitted in key order, so the
// image is deterministic for a given cache state. An empty cache
// serializes to nil (there is nothing to warm).
//
// A cache that restored CacheOptions.State and has since added no entry
// returns that image as it is, neither re-encoding it nor copying it: it
// restores exactly the entries the cache holds. The caller must not
// modify it.
func (c *Cache) SaveState() []byte {
	if c.image != nil && c.changes.Load() == c.imageChanges {
		return c.image
	}
	type keyed struct {
		key [sha256.Size]byte
		ent *stageEntry
	}
	var all []keyed
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			all = append(all, keyed{key: k, ent: e})
		}
		s.mu.Unlock()
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		return bytes.Compare(all[i].key[:], all[j].key[:]) < 0
	})

	var meta bytes.Buffer
	meta.WriteString(cacheStateMagic + "\n")
	seen := make(map[[sha256.Size]byte]bool)
	var order [][]byte // chunk payloads in first-reference order
	writeRefs := func(refs []cas.Ref) {
		for _, r := range refs {
			fmt.Fprintf(&meta, "ref %s %d\n", hex.EncodeToString(r.Hash[:]), r.Size)
			if seen[r.Hash] {
				continue
			}
			data, ok := c.tier.View(r)
			if !ok {
				panic(chunkLost)
			}
			seen[r.Hash] = true
			order = append(order, data)
		}
	}
	for _, kv := range all {
		ent := kv.ent
		fmt.Fprintf(&meta, "entry %s %d %d %d\n",
			hex.EncodeToString(kv.key[:]), len(ent.set), len(ent.del), ent.logLen)
		for _, d := range ent.set {
			fmt.Fprintf(&meta, "set %s %d %d\n", strconv.Quote(d.path), d.size, len(d.refs))
			writeRefs(d.refs)
		}
		for _, p := range ent.del {
			fmt.Fprintf(&meta, "del %s\n", strconv.Quote(p))
		}
		fmt.Fprintf(&meta, "log %d\n", len(ent.logRefs))
		writeRefs(ent.logRefs)
	}
	blobs := make([][]byte, 0, len(order)+1)
	blobs = append(blobs, meta.Bytes())
	blobs = append(blobs, order...)
	return cas.EncodeExtent(blobs)
}

// RestoreState loads a SaveState image into the cache: chunks go into
// the tier (deduplicated against whatever is already resident), entries
// into the index (existing keys win — restoration never clobbers live
// state). Returns how many entries were restored. Any damage — a torn
// extent, a malformed manifest, a reference to a chunk the image does
// not carry, a chunk whose bytes do not match its hash — fails the
// restoration as a whole with no partial effects beyond chunks already
// admitted to the tier (which are harmless: content-addressed and
// invisible without an entry).
//
// The metadata is scanned in place: keys and hashes decode straight
// into their arrays, the restored entries and their refs share a few
// backing arrays, and each distinct path is unquoted once.
func (c *Cache) RestoreState(state []byte) (int, error) {
	recs, err := cas.ParseExtent(state)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("pipeline: cache state has no metadata record")
	}
	payload := func(r cas.ExtentRecord) []byte { return state[r.Offset : r.Offset+r.Size] }
	meta, ok := bytes.CutPrefix(payload(recs[0]), []byte(cacheStateMagic+"\n"))
	if !ok {
		return 0, fmt.Errorf("pipeline: cache state magic mismatch")
	}
	chunks := make(map[[sha256.Size]byte][]byte, len(recs)-1)
	for _, r := range recs[1:] {
		if _, ok := chunks[r.Hash]; !ok {
			chunks[r.Hash] = payload(r)
		}
	}

	sc := stateScanner{
		rest:   meta,
		chunks: chunks,
		paths:  make(map[string]string),
		refs:   make([]cas.Ref, 0, bytes.Count(meta, []byte("\nref "))),
		sets:   make([]pathDelta, 0, bytes.Count(meta, []byte("\nset "))),
	}
	n := bytes.Count(meta, []byte("\nentry ")) + 1
	keys, ents := make([][sha256.Size]byte, 0, n), make([]stageEntry, 0, n)
	var f [5][]byte
	for {
		l, ok := sc.next()
		if !ok {
			break
		}
		if cas.Fields(l, f[:]) != 5 || string(f[0]) != "entry" {
			return 0, fmt.Errorf("pipeline: cache state entry line malformed: %q", l)
		}
		var key [sha256.Size]byte
		if !cas.DecodeHash(&key, f[1]) {
			return 0, fmt.Errorf("pipeline: cache state entry key malformed: %q", f[1])
		}
		nset, err1 := strconv.Atoi(string(f[2]))
		ndel, err2 := strconv.Atoi(string(f[3]))
		logLen, err3 := strconv.ParseInt(string(f[4]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || nset < 0 || ndel < 0 || logLen < 0 {
			return 0, fmt.Errorf("pipeline: cache state entry counts malformed: %q", l)
		}
		ent := stageEntry{logLen: logLen}
		start := len(sc.sets)
		for j := 0; j < nset; j++ {
			l, ok := sc.next()
			if !ok || pathFields(l, f[:4]) != 4 || string(f[0]) != "set" {
				return 0, fmt.Errorf("pipeline: cache state set line malformed: %q", l)
			}
			path, err := sc.unquote(f[1])
			if err != nil {
				return 0, fmt.Errorf("pipeline: cache state set path malformed: %q", f[1])
			}
			size, err1 := strconv.ParseInt(string(f[2]), 10, 64)
			nrefs, err2 := strconv.Atoi(string(f[3]))
			if err1 != nil || err2 != nil || size < 0 || nrefs < 0 {
				return 0, fmt.Errorf("pipeline: cache state set counts malformed: %q", l)
			}
			refs, err := sc.parseRefs(nrefs)
			if err != nil {
				return 0, err
			}
			sc.sets = append(sc.sets, pathDelta{path: path, size: size, refs: refs})
		}
		if nset > 0 {
			ent.set = sc.sets[start:len(sc.sets):len(sc.sets)]
		}
		for j := 0; j < ndel; j++ {
			l, ok := sc.next()
			if !ok || pathFields(l, f[:2]) != 2 || string(f[0]) != "del" {
				return 0, fmt.Errorf("pipeline: cache state del line malformed: %q", l)
			}
			path, err := sc.unquote(f[1])
			if err != nil {
				return 0, fmt.Errorf("pipeline: cache state del path malformed: %q", f[1])
			}
			ent.del = append(ent.del, path)
		}
		l, ok = sc.next()
		if !ok || cas.Fields(l, f[:]) != 2 || string(f[0]) != "log" {
			return 0, fmt.Errorf("pipeline: cache state log line malformed: %q", l)
		}
		nlog, err := strconv.Atoi(string(f[1]))
		if err != nil || nlog < 0 {
			return 0, fmt.Errorf("pipeline: cache state log count malformed: %q", l)
		}
		if ent.logRefs, err = sc.parseRefs(nlog); err != nil {
			return 0, err
		}
		keys, ents = append(keys, key), append(ents, ent)
	}

	// Validation passed as a whole; admit chunks and entries. The tier
	// files each chunk under the hash of its bytes, so a chunk whose
	// bytes do not hash to the name the image gives it would leave an
	// entry over a chunk the tier does not hold: that is damage too.
	// Every chunk is admitted before the refusal, so the tier ends the
	// same whatever order the map yields them in.
	forged := false
	for h, data := range chunks {
		if c.tier.Put(data).Hash != h {
			forged = true
		}
	}
	if forged {
		return 0, fmt.Errorf("pipeline: cache state carries a chunk that does not match its hash")
	}
	restored := 0
	for i, key := range keys {
		s := c.shardFor(key)
		s.mu.Lock()
		if _, exists := s.entries[key]; !exists {
			s.entries[key] = &ents[i]
			restored++
		}
		s.mu.Unlock()
	}
	c.changes.Add(int64(restored))
	return restored, nil
}

// stateScanner walks a cache-state image's metadata line by line. The
// refs and path deltas it parses go into shared backing arrays, and
// each distinct quoted path is unquoted once.
type stateScanner struct {
	rest   []byte // the metadata not yet scanned
	chunks map[[sha256.Size]byte][]byte
	paths  map[string]string // quoted form → path
	refs   []cas.Ref
	sets   []pathDelta
}

// next returns the next non-empty line.
func (sc *stateScanner) next() ([]byte, bool) {
	for len(sc.rest) > 0 {
		l, rest, _ := bytes.Cut(sc.rest, []byte("\n"))
		sc.rest = rest
		if len(l) > 0 {
			return l, true
		}
	}
	return nil, false
}

// pathFields splits a set or del line into dst as cas.Fields does,
// except that a quoted path holding white space stays one field:
// strconv.Quote leaves a space in a path as it is. Only a line with
// more fields than dst takes can hold such a path, so only then is the
// field after the line's word read as a quoted string.
func pathFields(l []byte, dst [][]byte) int {
	n := cas.Fields(l, dst)
	if n <= len(dst) {
		return n
	}
	i := bytes.IndexByte(l, '"')
	if i < 1 || cas.Fields(l[:i], dst[:1]) != 1 || cas.Fields(l[i-1:i], nil) != 0 {
		return n
	}
	q, err := strconv.QuotedPrefix(string(l[i:]))
	rest := l[i+len(q):]
	if err != nil || len(rest) > 0 && cas.Fields(rest[:1], nil) != 0 {
		return n
	}
	dst[1] = l[i : i+len(q)]
	return 2 + cas.Fields(rest, dst[2:])
}

// unquote returns the path a quoted field names.
func (sc *stateScanner) unquote(quoted []byte) (string, error) {
	if path, ok := sc.paths[string(quoted)]; ok {
		return path, nil
	}
	path, err := strconv.Unquote(string(quoted))
	if err == nil {
		sc.paths[string(quoted)] = path
	}
	return path, err
}

// parseRefs parses n ref lines, each naming a chunk the image carries.
func (sc *stateScanner) parseRefs(n int) ([]cas.Ref, error) {
	start := len(sc.refs)
	var f [3][]byte
	for j := 0; j < n; j++ {
		l, ok := sc.next()
		if !ok || cas.Fields(l, f[:]) != 3 || string(f[0]) != "ref" {
			return nil, fmt.Errorf("pipeline: cache state ref line malformed: %q", l)
		}
		var r cas.Ref
		if !cas.DecodeHash(&r.Hash, f[1]) {
			return nil, fmt.Errorf("pipeline: cache state ref hash malformed: %q", f[1])
		}
		size, err := strconv.ParseInt(string(f[2]), 10, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("pipeline: cache state ref size malformed: %q", f[2])
		}
		r.Size = size
		data, carried := sc.chunks[r.Hash]
		if !carried || int64(len(data)) != size {
			return nil, fmt.Errorf("pipeline: cache state references a chunk it does not carry")
		}
		sc.refs = append(sc.refs, r)
	}
	return sc.refs[start:len(sc.refs):len(sc.refs)], nil
}
