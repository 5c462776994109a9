package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// restoreStateOracle is the line-splitting RestoreState of the version
// before the in-place metadata scanner, kept as the differential
// fuzzing oracle: for every image, the scanner must restore the same
// entries and admit the same chunks, or refuse with the same message.
func restoreStateOracle(c *Cache, state []byte) (int, error) {
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

	// Validation passed as a whole; admit chunks and entries, unless a
	// chunk's bytes do not hash to the name the image gives it.
	forged := false
	for h, data := range chunks {
		if c.tier.Put(data).Hash != h {
			forged = true
		}
	}
	if forged {
		return 0, fmt.Errorf("pipeline: cache state carries a chunk that does not match its hash")
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
