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
// chunk) makes restoration fail as a whole and the cache simply starts
// cold, exactly as if the sidecar had never existed. Entries whose
// chunks were evicted from the tier are not saved — they were no longer
// replayable in memory either.

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

// cacheStateMagic heads the metadata blob (record 0 of the extent).
const cacheStateMagic = "popper-cache-state v1"

// SaveState serializes every replayable stage entry into a cas extent
// image: record 0 is a metadata manifest describing the entries and
// their chunk references, the remaining records are the referenced
// chunk payloads (deduplicated). Entries are emitted in key order, so
// the image is deterministic for a given cache state. A cache with no
// replayable entries serializes to nil (there is nothing to warm).
//
// A cache that restored CacheOptions.State and has since added or
// dropped no entry (and lost no chunk to eviction) returns that image
// as it is, neither re-encoding it nor copying it: it restores exactly
// the entries the cache holds. The caller must not modify it.
func (c *Cache) SaveState() []byte {
	if c.image != nil && c.changes.Load() == c.imageChanges && c.tier.Stats().Evictions == 0 {
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
	sort.Slice(all, func(i, j int) bool {
		return bytes.Compare(all[i].key[:], all[j].key[:]) < 0
	})

	var meta bytes.Buffer
	meta.WriteString(cacheStateMagic + "\n")
	saved := 0
	seen := make(map[[sha256.Size]byte]bool)
	var order [][]byte // chunk payloads in first-reference order
	writeRefs := func(refs []cas.Ref) {
		for _, r := range refs {
			fmt.Fprintf(&meta, "ref %s %d\n", hex.EncodeToString(r.Hash[:]), r.Size)
		}
	}
	for _, kv := range all {
		ent := kv.ent
		refs := make([]cas.Ref, 0, len(ent.logRefs))
		for _, d := range ent.set {
			refs = append(refs, d.refs...)
		}
		refs = append(refs, ent.logRefs...)
		// Stage the entry's chunks; an evicted chunk drops the whole
		// entry (it is not replayable, in memory or on disk).
		fresh := make([][]byte, 0, len(refs))
		freshHash := make(map[[sha256.Size]byte]bool)
		replayable := true
		for _, r := range refs {
			if seen[r.Hash] || freshHash[r.Hash] {
				continue
			}
			data, ok := c.tier.View(r)
			if !ok {
				replayable = false
				break
			}
			freshHash[r.Hash] = true
			fresh = append(fresh, data)
		}
		if !replayable {
			continue
		}
		for _, data := range fresh {
			seen[sha256.Sum256(data)] = true
			order = append(order, data)
		}
		saved++
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
	if saved == 0 {
		return nil
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
// not carry — fails the restoration as a whole with no partial effects
// beyond chunks already admitted to the tier (which are harmless:
// content-addressed, evictable, invisible without an entry).
func (c *Cache) RestoreState(state []byte) (int, error) {
	recs, err := cas.ParseExtent(state)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("pipeline: cache state has no metadata record")
	}
	payload := func(r cas.ExtentRecord) []byte { return state[r.Offset : r.Offset+r.Size] }
	meta := string(payload(recs[0]))
	if !strings.HasPrefix(meta, cacheStateMagic+"\n") {
		return 0, fmt.Errorf("pipeline: cache state magic mismatch")
	}
	chunks := make(map[[sha256.Size]byte][]byte, len(recs)-1)
	for _, r := range recs[1:] {
		if _, ok := chunks[r.Hash]; !ok {
			chunks[r.Hash] = payload(r)
		}
	}

	lines := strings.Split(meta, "\n")
	i := 1 // past the magic
	next := func() (string, bool) {
		for i < len(lines) {
			l := lines[i]
			i++
			if l != "" {
				return l, true
			}
		}
		return "", false
	}
	parseRefs := func(n int) ([]cas.Ref, error) {
		refs := make([]cas.Ref, 0, n)
		for j := 0; j < n; j++ {
			l, ok := next()
			f := strings.Fields(l)
			if !ok || len(f) != 3 || f[0] != "ref" {
				return nil, fmt.Errorf("pipeline: cache state ref line malformed: %q", l)
			}
			hb, err := hex.DecodeString(f[1])
			if err != nil || len(hb) != sha256.Size {
				return nil, fmt.Errorf("pipeline: cache state ref hash malformed: %q", f[1])
			}
			size, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil || size < 0 {
				return nil, fmt.Errorf("pipeline: cache state ref size malformed: %q", f[2])
			}
			var r cas.Ref
			copy(r.Hash[:], hb)
			r.Size = size
			data, carried := chunks[r.Hash]
			if !carried || int64(len(data)) != size {
				return nil, fmt.Errorf("pipeline: cache state references a chunk it does not carry")
			}
			refs = append(refs, r)
		}
		return refs, nil
	}

	type restored struct {
		key [sha256.Size]byte
		ent *stageEntry
	}
	var out []restored
	for {
		l, ok := next()
		if !ok {
			break
		}
		f := strings.Fields(l)
		if len(f) != 5 || f[0] != "entry" {
			return 0, fmt.Errorf("pipeline: cache state entry line malformed: %q", l)
		}
		kb, err := hex.DecodeString(f[1])
		if err != nil || len(kb) != sha256.Size {
			return 0, fmt.Errorf("pipeline: cache state entry key malformed: %q", f[1])
		}
		nset, err1 := strconv.Atoi(f[2])
		ndel, err2 := strconv.Atoi(f[3])
		logLen, err3 := strconv.ParseInt(f[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || nset < 0 || ndel < 0 || logLen < 0 {
			return 0, fmt.Errorf("pipeline: cache state entry counts malformed: %q", l)
		}
		ent := &stageEntry{logLen: logLen}
		for j := 0; j < nset; j++ {
			l, ok := next()
			sf := strings.Fields(l)
			if !ok || len(sf) != 4 || sf[0] != "set" {
				return 0, fmt.Errorf("pipeline: cache state set line malformed: %q", l)
			}
			path, err := strconv.Unquote(sf[1])
			if err != nil {
				return 0, fmt.Errorf("pipeline: cache state set path malformed: %q", sf[1])
			}
			size, err1 := strconv.ParseInt(sf[2], 10, 64)
			nrefs, err2 := strconv.Atoi(sf[3])
			if err1 != nil || err2 != nil || size < 0 || nrefs < 0 {
				return 0, fmt.Errorf("pipeline: cache state set counts malformed: %q", l)
			}
			refs, err := parseRefs(nrefs)
			if err != nil {
				return 0, err
			}
			ent.set = append(ent.set, pathDelta{path: path, size: size, refs: refs})
		}
		for j := 0; j < ndel; j++ {
			l, ok := next()
			df := strings.Fields(l)
			if !ok || len(df) != 2 || df[0] != "del" {
				return 0, fmt.Errorf("pipeline: cache state del line malformed: %q", l)
			}
			path, err := strconv.Unquote(df[1])
			if err != nil {
				return 0, fmt.Errorf("pipeline: cache state del path malformed: %q", df[1])
			}
			ent.del = append(ent.del, path)
		}
		l, ok = next()
		lf := strings.Fields(l)
		if !ok || len(lf) != 2 || lf[0] != "log" {
			return 0, fmt.Errorf("pipeline: cache state log line malformed: %q", l)
		}
		nlog, err := strconv.Atoi(lf[1])
		if err != nil || nlog < 0 {
			return 0, fmt.Errorf("pipeline: cache state log count malformed: %q", l)
		}
		if ent.logRefs, err = parseRefs(nlog); err != nil {
			return 0, err
		}
		var key [sha256.Size]byte
		copy(key[:], kb)
		out = append(out, restored{key: key, ent: ent})
	}

	// Validation passed as a whole; admit chunks and entries.
	for _, data := range chunks {
		c.tier.Put(data)
	}
	n := 0
	for _, r := range out {
		s := c.shardFor(r.key)
		s.mu.Lock()
		if _, exists := s.entries[r.key]; !exists {
			s.entries[r.key] = r.ent
			n++
		}
		s.mu.Unlock()
	}
	c.changes.Add(int64(n))
	return n, nil
}
