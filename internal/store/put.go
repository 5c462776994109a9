package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// Put records: a durable Put writes one self-checking record file,
// .popper/put-<generation>-<sequence>, instead of committing a manifest
// generation. Record files are slots the store creates ahead of use.
// A Put that finds a free slot overwrites it in place and fsyncs only
// that file: the slot's name is already durable. A Put that finds none
// reserves a batch: its record in the first new slot, the free-slot
// marker (putFree) in the rest, an fsync of its record and one of
// .popper for the whole batch. A link's batch holds as many slots as its
// chain has records, so a chain of n links reserves about log2(n) times
// and leaves fewer free slots than it has records; a full or committed
// record, which starts a chain, reserves only its own. A Sync never
// reserves.
//
// A path's records form a chain. The first Put since the path's
// committed content writes the content whole (a full record); each
// later one writes only a splice — offset, cut and inserted bytes —
// against the path's previous content (a link), so a journal that gains
// a row per Put writes that row plus a fixed frame. A Put of the
// committed content writes an empty committed record. Once a full or
// committed record is durable, the path's older records and every free
// slot are removed without an fsync.
//
// A free slot holds exactly putFree, which no record, whole, torn or
// emptied, equals, so a record a returned Put wrote never reads as free.
// Its marker is never fsynced on its own: a crash may leave a free slot
// empty or torn, and it then reads as a torn record, as the record of a
// Put still in flight does. A Put writes only a free slot past every
// other record file of its generation, so a new record outranks every
// one already there and never overwrites one.
//
// The frame holds no counter: a record is bound to its name by its
// checksum, a SHA-256 over the name and the record's bytes, and a link
// names its base by that checksum. So a record's size depends only on
// its path and its splice, never on how many Puts came before it.
//
// The logical tree is the committed manifest's files overlaid, per
// path, with the newest record of the committed generation whose chain
// replays back to a full or committed record. A chain's first record
// carries the path's committed digest when it was written ("none" when
// the path had no committed content; with no manifest, the digest of
// the path's tracked file), which is what lets a manifest rebuild tell
// a live chain from one a commit folded. The next manifest commit folds
// the records in and removes them, with the free slots, durably. A Sync
// whose files and heads all equal the committed tree commits nothing
// and leaves the records where they are. A record of version 1 — a cas
// extent holding a header and the full content — still decodes, as a
// full record that carries no committed digest; nothing writes one.

const (
	putPrefix = popperDir + "/put-"
	putMagic  = "popper-put v2\n"
	// putHeaderV1 opens a version-1 record's header blob.
	putHeaderV1 = "popper-put v1 "
	// putFree is a free slot's whole content. It is shorter than a
	// record's frame and differs from a record's magic, so no record,
	// whole or cut short, equals it.
	putFree = "popper-slot\n"
)

// Record kinds.
const (
	putFull      = 'f' // the content whole
	putLink      = 'l' // a splice against the record base names
	putCommitted = 'c' // the path's committed content, base (zero: none)
)

// putFrame is a record's size without its path and inserted bytes:
// magic, kind, path length, base, offset, cut and checksum.
const putFrame = len(putMagic) + 1 + 2 + sha256.Size + 16 + sha256.Size

// putRecordPath names the record of a generation's seq-th Put.
func putRecordPath(gen, seq int) string {
	return putPrefix + strconv.Itoa(gen) + "-" + strconv.Itoa(seq)
}

// parsePutName decodes a record path into its generation and sequence.
// Only the canonical name parses, so every record has exactly one.
func parsePutName(path string) (gen, seq int, ok bool) {
	rest, ok := strings.CutPrefix(path, putPrefix)
	if !ok {
		return 0, 0, false
	}
	g, q, _ := strings.Cut(rest, "-")
	gen, gerr := strconv.Atoi(g)
	seq, serr := strconv.Atoi(q)
	return gen, seq, gerr == nil && serr == nil && gen >= 0 && seq > 0 && putRecordPath(gen, seq) == path
}

// isPutRecord reports whether path names a put record.
func isPutRecord(path string) bool {
	_, _, ok := parsePutName(path)
	return ok
}

// putRecord is one decoded, verified record.
type putRecord struct {
	name string // the record file
	seq  int
	kind byte
	path string // the tracked path it writes
	// base is, for a full or committed record, the path's committed
	// digest when it was written (zero: the path had none); for a link,
	// the checksum of the record whose content it splices.
	base     [sha256.Size]byte
	off, cut int    // a link replaces base content [off, off+cut) ...
	data     []byte // ... with data; a full record's data is its content
	sum      [sha256.Size]byte
	v1       bool // a version-1 record: full, with no committed digest
}

// putSum is a record's checksum: SHA-256 over its name and its bytes
// before the checksum.
func putSum(name string, body []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write(body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// encode renders the record and sets its checksum.
func (r *putRecord) encode() []byte {
	buf := make([]byte, 0, putFrame+len(r.path)+len(r.data))
	buf = append(buf, putMagic...)
	buf = append(buf, r.kind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.path)))
	buf = append(buf, r.path...)
	buf = append(buf, r.base[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.off))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.cut))
	buf = append(buf, r.data...)
	r.sum = putSum(r.name, buf)
	return append(buf, r.sum[:]...)
}

// decodePutRecord verifies the record stored at name: an intact record
// whose checksum covers its name, for a tracked path. Any deviation — a
// torn tail, rot, a record copied under another name — is an error.
func decodePutRecord(name string, raw []byte) (putRecord, error) {
	gen, seq, ok := parsePutName(name)
	if !ok {
		return putRecord{}, errors.New("store: put record: malformed name")
	}
	if !bytes.HasPrefix(raw, []byte(putMagic)) {
		return decodePutRecordV1(name, gen, seq, raw)
	}
	if len(raw) < putFrame {
		return putRecord{}, errors.New("store: put record: shorter than its frame")
	}
	body := raw[:len(raw)-sha256.Size]
	rec := putRecord{name: name, seq: seq, sum: putSum(name, body)}
	if !bytes.Equal(rec.sum[:], raw[len(body):]) {
		return putRecord{}, errors.New("store: put record: checksum mismatch")
	}
	rest := body[len(putMagic):]
	rec.kind = rest[0]
	plen := int(binary.BigEndian.Uint16(rest[1:]))
	rest = rest[3:]
	if len(rest) < plen+sha256.Size+16 {
		return putRecord{}, errors.New("store: put record: path overruns the frame")
	}
	rec.path, rest = string(rest[:plen]), rest[plen:]
	copy(rec.base[:], rest)
	off, cut := binary.BigEndian.Uint64(rest[sha256.Size:]), binary.BigEndian.Uint64(rest[sha256.Size+8:])
	rec.data = rest[sha256.Size+16:]
	if off > math.MaxInt || cut > math.MaxInt {
		return putRecord{}, errors.New("store: put record: splice out of range")
	}
	rec.off, rec.cut = int(off), int(cut)
	switch {
	case !Tracked(rec.path):
		return putRecord{}, errors.New("store: put record: path is not tracked")
	case rec.kind != putFull && rec.kind != putLink && rec.kind != putCommitted:
		return putRecord{}, fmt.Errorf("store: put record: unknown kind %q", rec.kind)
	case rec.kind != putLink && (rec.off != 0 || rec.cut != 0),
		rec.kind == putCommitted && len(rec.data) != 0:
		return putRecord{}, errors.New("store: put record: a splice on a record that carries none")
	}
	return rec, nil
}

// decodePutRecordV1 verifies a version-1 record: an intact two-blob cas
// extent whose header names its generation, sequence and path.
func decodePutRecordV1(name string, gen, seq int, raw []byte) (putRecord, error) {
	recs, err := cas.ParseExtent(raw)
	if err != nil {
		return putRecord{}, err
	}
	if len(recs) != 2 {
		return putRecord{}, fmt.Errorf("store: put record: %d blobs, want 2", len(recs))
	}
	blob := func(r cas.ExtentRecord) ([]byte, bool) {
		b := raw[r.Offset : r.Offset+r.Size]
		return b, sha256.Sum256(b) == r.Hash
	}
	header, hok := blob(recs[0])
	data, dok := blob(recs[1])
	if !hok || !dok {
		return putRecord{}, errors.New("store: put record: blob digest mismatch")
	}
	prefix := putHeaderV1 + strconv.Itoa(gen) + " " + strconv.Itoa(seq) + " "
	path, ok := strings.CutPrefix(string(header), prefix)
	if !ok || !Tracked(path) {
		return putRecord{}, errors.New("store: put record: header does not match its name")
	}
	return putRecord{name: name, seq: seq, kind: putFull, path: path, data: data, v1: true}, nil
}

// splice returns base with [off, off+cut) replaced by ins. With reuse
// the caller gives up base: the splice is made in base's array when it
// has room, and a new array gets a quarter more room, so a chain of
// appends copies its content O(log n) times. Without reuse the result
// is a new array of the exact size.
func splice(base []byte, off, cut int, ins []byte, reuse bool) []byte {
	n := len(base) - cut + len(ins)
	if reuse && n <= cap(base) {
		out := base[:n]
		copy(out[off+len(ins):], base[off+cut:])
		copy(out[off:], ins)
		return out
	}
	room := n
	if reuse {
		room += n / 4
	}
	out := make([]byte, 0, room)
	out = append(out, base[:off]...)
	out = append(out, ins...)
	return append(out, base[off+cut:]...)
}

// spliceOf returns the smallest single splice that turns prev into next:
// the common prefix and suffix stay, the rest is cut and inserted. A
// pure insertion's splice is exactly the inserted bytes, wherever they
// land.
func spliceOf(prev, next []byte) (off, cut int, ins []byte) {
	n := min(len(prev), len(next))
	for off < n && prev[off] == next[off] {
		off++
	}
	tail := 0
	for tail < n-off && prev[len(prev)-1-tail] == next[len(next)-1-tail] {
		tail++
	}
	return off, len(prev) - off - tail, next[off : len(next)-tail]
}

// putHead is a path's newest replayable record and the content it
// makes the path hold.
type putHead struct {
	name string
	seq  int
	path string
	sum  [sha256.Size]byte // the record's checksum: the next link's base
	// root is the committed digest the chain began from (zero: none);
	// dated is false for a version-1 record, which carries none.
	root  [sha256.Size]byte
	dated bool
	// committed: the content is the committed content root names, not
	// held here; otherwise data is the content.
	committed bool
	data      []byte
	// owned: data is an array replay made, not a record's bytes, so
	// the link that is its last reference may splice it in place.
	owned  bool
	hash   [sha256.Size]byte
	hashed bool
}

// committedHead is the head a committed record for digest makes.
func committedHead(digest [sha256.Size]byte) *putHead {
	return &putHead{root: digest, dated: true, committed: true, hash: digest, hashed: true}
}

// digest returns the content's SHA-256, hashing it at most once.
func (h *putHead) digest() [sha256.Size]byte {
	if !h.hashed {
		h.hash, h.hashed = sha256.Sum256(h.data), true
	}
	return h.hash
}

// committedDigest returns path's committed digest in man, or zero when
// man records no content for it.
func committedDigest(man *Manifest, path string) [sha256.Size]byte {
	e, _ := man.Lookup(path)
	return e.Hash
}

// atCommitted reports whether the head holds path's committed content
// in man.
func (h *putHead) atCommitted(man *Manifest, path string) bool {
	if h.committed {
		return h.root == committedDigest(man, path)
	}
	e, ok := man.Lookup(path)
	return ok && int64(len(h.data)) == e.Size && h.digest() == e.Hash
}

// replay resolves intact records, in sequence order, into each path's
// head: its newest record whose chain reaches a full or committed
// record. A committed record resolves only when its digest is its
// path's committed digest in man (with no manifest, always). A link
// needs its base resolved, on the same path, holding bytes, and the
// splice in range.
// The intact records newer than their path's head that do not resolve
// are dangling. Content is kept only while a later link may still
// splice it, and a link that is its base's last reference splices the
// base's content in place. So a chain of n links over content of size
// c replays in O(c) space and, at worst (each link inserting near the
// front), O(n·c) time; a chain of appends replays in O(chain bytes).
func replay(recs []putRecord, man *Manifest) (map[string]*putHead, []string) {
	refs := make(map[[sha256.Size]byte]int)
	for _, r := range recs {
		if r.kind == putLink {
			refs[r.base]++
		}
	}
	heads := make(map[string]*putHead)
	bySum := make(map[[sha256.Size]byte]*putHead)
	release := func(h *putHead) {
		if refs[h.sum] == 0 && heads[h.path] != h {
			delete(bySum, h.sum)
		}
	}
	var unresolved []putRecord
	for _, r := range recs {
		var h, base *putHead
		switch r.kind {
		case putFull:
			h = &putHead{root: r.base, dated: !r.v1, data: r.data}
		case putCommitted:
			if man == nil || r.base == committedDigest(man, r.path) {
				h = committedHead(r.base)
			}
		case putLink:
			if base = bySum[r.base]; base == nil {
				break
			}
			refs[r.base]--
			if !base.committed && base.path == r.path && r.off <= len(base.data) && r.cut <= len(base.data)-r.off {
				// A base no later link needs is dropped once h replaces
				// it, so h may take its array over.
				reuse := base.owned && refs[r.base] == 0
				h = &putHead{root: base.root, dated: base.dated, owned: true, data: splice(base.data, r.off, r.cut, r.data, reuse)}
			}
		}
		if h != nil {
			h.name, h.seq, h.path, h.sum = r.name, r.seq, r.path, r.sum
			if !r.v1 {
				bySum[r.sum] = h
			}
			prev := heads[r.path]
			heads[r.path] = h
			if prev != nil {
				release(prev)
			}
		} else {
			unresolved = append(unresolved, r)
		}
		if base != nil {
			release(base)
		}
	}
	var dangling []string
	for _, r := range unresolved {
		if h := heads[r.path]; h == nil || r.seq > h.seq {
			dangling = append(dangling, r.name)
		}
	}
	return heads, dangling
}

// putLog is what a scan of the record files found; the store caches it
// between scans. A log with no names is valid for any generation;
// otherwise it describes the records of gen.
type putLog struct {
	gen    int // the generation whose records are live
	maxGen int // the highest generation any record file names
	next   int // the sequence the next reservation starts at: past every record file of gen
	// free is the free slots of gen past every other record file of gen,
	// in sequence order: where the next Puts write.
	free []int
	// bare: scanned with no manifest. Such a log stays valid while every
	// change goes through this store: its Puts keep it current, and a
	// Sync, a repair or an image install drops it.
	bare bool
	// byContent: with no manifest and no intent record to name the
	// committed generation, each chain is dated by its path's tracked
	// file (see datePutsLocked).
	byContent bool
	names     []string            // every record and slot file, removed at the next commit
	damaged   []string            // record files of gen that are neither a record nor a free slot
	dangling  []string            // intact records of gen newer than their path's head that do not replay
	folded    []string            // records of gen whose chain a later commit folded (no manifest only)
	recs      []putRecord         // the intact records of gen as scanned, in sequence order
	live      map[string]*putHead // path → head
	byPath    map[string][]string // path → its intact record files of gen, superseded by the next full or committed record
}

// putLogLocked returns the record cache for the committed manifest,
// scanning the disk when it is cold or describes another generation,
// or, with no manifest, when no scan since this store's last commit or
// repair made it. paths is a listing of the tree the caller already
// holds, or nil. Callers hold the lock.
func (s *Store) putLogLocked(man *Manifest, paths []string) (*putLog, error) {
	if p := s.puts; p != nil {
		if len(p.names) == 0 {
			p.gen = 0
			if man != nil {
				p.gen = man.Generation
			}
			return p, nil
		}
		if man != nil && p.gen == man.Generation || man == nil && p.bare {
			return p, nil
		}
	}
	if paths == nil {
		var err error
		if paths, err = s.fs.List(); err != nil {
			return nil, err
		}
	}
	p, err := s.scanPutsLocked(man, paths)
	if err != nil {
		return nil, err
	}
	s.puts = p
	return p, nil
}

// scanPutsLocked reads the record files in a listing and replays their
// chains. The live generation is the committed manifest's; with no
// readable manifest, the one an intact intent record was to succeed
// (the sync it records never committed); otherwise the highest any
// record names, whose chains are then dated by their paths' tracked
// files. Callers hold the lock.
func (s *Store) scanPutsLocked(man *Manifest, paths []string) (*putLog, error) {
	p := &putLog{next: 1, bare: man == nil}
	for _, path := range paths {
		if gen, _, ok := parsePutName(path); ok {
			p.names = append(p.names, path)
			p.maxGen = max(p.maxGen, gen)
		}
	}
	p.gen = p.maxGen
	if man != nil {
		p.gen = man.Generation
	} else if len(p.names) > 0 {
		raw, err := s.read(manifestNextPath)
		if s.dead != nil {
			return nil, s.dead
		}
		next, perr := ParseManifest(raw)
		if err == nil && perr == nil && next.Generation > 0 {
			p.gen = next.Generation - 1
		} else {
			p.byContent = true
		}
	}
	top := 0 // the highest sequence of a record file of gen that is not free
	for _, path := range p.names {
		gen, seq, _ := parsePutName(path)
		if gen != p.gen {
			continue
		}
		p.next = max(p.next, seq+1)
		raw, err := s.read(path)
		if err != nil && s.dead != nil {
			return nil, s.dead
		}
		if err == nil && string(raw) == putFree {
			p.free = append(p.free, seq)
			continue
		}
		top = max(top, seq)
		rec, derr := decodePutRecord(path, raw)
		if err != nil || derr != nil {
			p.damaged = append(p.damaged, path)
			continue
		}
		p.recs = append(p.recs, rec)
	}
	// A free slot below another record file stays unwritten until the
	// next commit removes it: a new record must outrank every one there.
	p.free = slices.DeleteFunc(p.free, func(seq int) bool { return seq < top })
	slices.Sort(p.free)
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].seq < p.recs[j].seq })
	if err := s.resolvePutsLocked(p, man); err != nil {
		return nil, err
	}
	return p, nil
}

// resolvePutsLocked replays p.recs into the live heads, the dangling
// records and each path's record files, then dates the chains when the
// log says so. Callers hold the lock.
func (s *Store) resolvePutsLocked(p *putLog, man *Manifest) error {
	p.live, p.dangling = replay(p.recs, man)
	p.byPath = make(map[string][]string)
	for _, r := range p.recs {
		p.byPath[r.path] = append(p.byPath[r.path], r.name)
	}
	p.folded = nil
	if man == nil && p.byContent {
		return s.datePutsLocked(p)
	}
	return nil
}

// datePutsLocked drops the chains a later commit folded, for a
// generation named by no manifest or intent record. A chain is live
// while its path's tracked file still holds the committed content the
// chain began from (or is absent when it began from none), or holds
// bytes the object pool cannot produce — damage, which the chain's
// content should replace. A file holding other content the pool proves
// was committed later: the chain was folded, and a crash brought its
// records back. A version-1 record carries no committed digest, so its
// chain stays live. Callers hold the lock.
func (s *Store) datePutsLocked(p *putLog) error {
	for path, h := range p.live {
		if !h.dated {
			continue
		}
		content, err := s.read(path)
		if s.dead != nil {
			return s.dead
		}
		if err != nil {
			continue // absent, or unreadable: not evidence of a fold
		}
		if sum := sha256.Sum256(content); sum == h.root || !s.hasObject(sum) {
			continue
		}
		delete(p.live, path)
		p.folded = append(p.folded, p.byPath[path]...)
		p.dangling = slices.DeleteFunc(p.dangling, func(name string) bool { return slices.Contains(p.byPath[path], name) })
	}
	sort.Strings(p.folded)
	return nil
}

// committed reports whether every live head holds its path's committed
// content, so the logical tree is the manifest's.
func (p *putLog) committed(man *Manifest) bool {
	for path, h := range p.live {
		if !h.atCommitted(man, path) {
			return false
		}
	}
	return true
}

// putLocked makes data path's logical content with one record: a
// committed record when data is the committed content, a full record
// when the path has no chain to extend, a link splicing the head's
// content otherwise. It writes nothing when data already is the path's
// content. Callers hold the lock.
func (s *Store) putLocked(p *putLog, man *Manifest, path string, data []byte) error {
	var e Entry
	hasEntry := false
	if man != nil {
		e, hasEntry = man.Lookup(path)
	}
	var sum [sha256.Size]byte
	if hasEntry && e.Size == int64(len(data)) {
		sum = sha256.Sum256(data)
	}
	atCommitted := hasEntry && e.Size == int64(len(data)) && sum == e.Hash
	prev := p.live[path]
	switch {
	case prev == nil && atCommitted,
		prev != nil && prev.committed && atCommitted,
		prev != nil && !prev.committed && bytes.Equal(prev.data, data):
		return nil
	}
	if err := s.refuseIfInterrupted("put"); err != nil {
		return err
	}
	rec := putRecord{path: path}
	if atCommitted {
		rec.kind, rec.base = putCommitted, e.Hash
		return s.writePutLocked(p, rec, committedHead(e.Hash), 1)
	}
	head := &putHead{dated: true, data: bytes.Clone(data), hash: sum, hashed: hasEntry && e.Size == int64(len(data))}
	if prev == nil || prev.committed || !prev.dated {
		rec.kind, rec.data = putFull, data
		switch {
		case hasEntry:
			rec.base = e.Hash
		case man == nil:
			// With no manifest a rebuild dates the chain by the path's
			// tracked file, so the chain begins from what that holds.
			content, err := s.read(path)
			if s.dead != nil {
				return s.dead
			}
			if err == nil {
				rec.base = sha256.Sum256(content)
			}
		}
		head.root = rec.base
		return s.writePutLocked(p, rec, head, 1)
	}
	rec.kind, rec.base = putLink, prev.sum
	rec.off, rec.cut, rec.data = spliceOf(prev.data, data)
	head.root = prev.root
	return s.writePutLocked(p, rec, head, len(p.byPath[path]))
}

// writePutLocked writes rec durably as its path's new head, in the
// first free slot: write and fsync, in place. With no slot free it
// reserves batch slots, at least one: rec in the first, putFree in the
// rest, then an fsync of rec and one of .popper for them all. A full or
// committed record needs no older one, so once it is durable the path's
// older records and the free slots are removed without an fsync: a
// crash that undoes a removal brings back records the newer one
// outranks and slots no Put wrote, and the next fsync of .popper makes
// the removals durable anyway. A failed write drops the record cache:
// what it left is for the next scan to read. Callers hold the lock.
func (s *Store) writePutLocked(p *putLog, rec putRecord, head *putHead, batch int) error {
	if len(rec.path) > math.MaxUint16 {
		return fmt.Errorf("store: put %s: path longer than a record can name", rec.path)
	}
	reserve, batch := len(p.free) == 0, max(batch, 1)
	rec.seq = p.next
	if !reserve {
		rec.seq = p.free[0]
	}
	rec.name = putRecordPath(p.gen, rec.seq)
	var slots []string
	err := s.write(rec.name, rec.encode())
	if err == nil {
		err = s.sync(rec.name)
	}
	if err == nil && reserve {
		for seq := rec.seq + 1; seq < rec.seq+batch && err == nil; seq++ {
			slots = append(slots, putRecordPath(p.gen, seq))
			err = s.write(slots[len(slots)-1], []byte(putFree))
		}
		if err == nil {
			err = s.syncDir(popperDir)
		}
	}
	if err != nil {
		s.puts = nil
		return err
	}
	head.name, head.seq, head.path, head.sum = rec.name, rec.seq, rec.path, rec.sum
	if p.live == nil {
		p.live = make(map[string]*putHead)
		p.byPath = make(map[string][]string)
	}
	p.live[rec.path] = head
	p.maxGen = max(p.maxGen, p.gen)
	if reserve {
		p.names = append(append(p.names, rec.name), slots...)
		for i := range slots {
			p.free = append(p.free, rec.seq+1+i)
		}
		p.next = rec.seq + batch
	} else {
		p.free = p.free[1:]
	}
	if rec.kind == putLink {
		p.byPath[rec.path] = append(p.byPath[rec.path], rec.name)
		return nil
	}
	superseded := p.byPath[rec.path]
	p.byPath[rec.path] = []string{rec.name}
	for _, seq := range p.free {
		superseded = append(superseded, putRecordPath(p.gen, seq))
	}
	// Every record file past rec was a free slot.
	p.free, p.next = nil, rec.seq+1
	for _, name := range superseded {
		if err := s.remove(name); err != nil {
			s.puts = nil
			return err
		}
	}
	p.names = slices.DeleteFunc(p.names, func(name string) bool { return slices.Contains(superseded, name) })
	return nil
}

// putBackLocked writes a committed record for every path whose head is
// not its committed content while the workspace files hold the
// committed content there (or, like the manifest, hold none), in path
// order. The Sync that follows leaves those paths as committed, so
// their chains are superseded first, durably, by a record that outranks
// them. Without it a crash that undid the commit's removals would leave
// a chain that begins at the very content the manifest still records,
// which a rebuild after the manifest's loss would take for live. Each
// record takes a free slot, or a file of its own: a Sync reserves no
// slot. Callers hold the lock.
func (s *Store) putBackLocked(p *putLog, man *Manifest, files map[string][]byte, hashes map[string][sha256.Size]byte) error {
	var back []string
	for path, h := range p.live {
		if h.atCommitted(man, path) {
			continue
		}
		_, hasEntry := man.Lookup(path)
		content, inFiles := files[path]
		if hasEntry == inFiles && (!inFiles || man.matches(path, content, hashes)) {
			back = append(back, path)
		}
	}
	if len(back) == 0 {
		return nil
	}
	if err := s.refuseIfInterrupted("sync"); err != nil {
		return err
	}
	sort.Strings(back)
	for _, path := range back {
		rec := putRecord{kind: putCommitted, path: path, base: committedDigest(man, path)}
		if err := s.writePutLocked(p, rec, committedHead(rec.base), 1); err != nil {
			return err
		}
	}
	return nil
}

// dropPutsLocked removes the records a commit of gen superseded, then
// makes the removals durable: a record of an older generation that a
// crash brought back would be taken for live state by a repair that has
// no manifest to date it. Callers hold the lock.
func (s *Store) dropPutsLocked(p *putLog, gen int) error {
	s.puts = nil
	for _, name := range p.names {
		if err := s.remove(name); err != nil {
			return err
		}
	}
	if len(p.names) > 0 {
		if err := s.syncDir(popperDir); err != nil {
			return err
		}
	}
	s.puts = &putLog{gen: gen, next: 1}
	return nil
}

// PutFrontier returns the highest sequence number among the committed
// generation's live heads (0 when there are none). With the generation
// it measures how far a store got through a committed operation
// sequence: a replica that applied more Puts of the same generation has
// the higher frontier. A record that does not replay does not count — a
// replica whose newest link rotted, or one it needs, holds less of the
// sequence than one that holds the chain whole.
func (s *Store) PutFrontier() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return 0, s.dead
	}
	man, err := s.loadManifest()
	if err != nil {
		return 0, err
	}
	p, err := s.putLogLocked(man, nil)
	if err != nil {
		return 0, err
	}
	frontier := 0
	for _, h := range p.live {
		frontier = max(frontier, h.seq)
	}
	return frontier, nil
}

const (
	// noteDamagedPut marks a live-generation record that fails its
	// checksum: a Put that never returned, or rot.
	noteDamagedPut = "put record fails its checksum"
	// noteDanglingPut marks an intact record newer than its path's head
	// that does not replay: a record it needs is damaged or gone.
	noteDanglingPut = "put record does not replay (a record it needs is damaged or gone)"
	// noteFoldedPut marks a record whose chain a later commit folded,
	// found with no manifest.
	noteFoldedPut = "put record folded by a later commit (its path holds newer committed content)"
)
