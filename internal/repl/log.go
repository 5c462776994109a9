package repl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// The replicated log. Each record is one store mutation — a workspace
// Sync or an incremental Put — sealed with a content digest. A primary
// that fails to reach quorum truncates its own proposal and burns the
// index by stepping down into a fresh epoch (commitLocked), so an
// (epoch, index) pair names at most one record even when the rollback
// could not reach every follower that acknowledged it. Digests are
// still what consistency checks compare — they catch divergence that
// epochs alone cannot prove, and back the vote-time frontier tiebreak.

// recKind enumerates the operations the log replicates.
type recKind uint8

const (
	// RecNoop is the barrier a freshly elected primary commits to learn
	// the durable frontier of its log (the standard new-leader no-op).
	// It does not touch the store, so replica trees stay byte-identical
	// to a run that never failed over.
	RecNoop recKind = iota + 1
	// RecSync replicates a full workspace sync (store.Sync).
	RecSync
	// RecPut replicates one durable artifact write (store.Put).
	RecPut
)

// Record is one entry in the replicated log.
type Record struct {
	Index int
	Epoch int
	Kind  recKind
	Path  string            // RecPut
	Data  []byte            // RecPut
	Files map[string][]byte // RecSync

	// body is the record's encoding, which every send ships as it is.
	// A sealed or decoded record's Data and Files are read-only views
	// into it.
	body []byte
	// digest identifies the record (identify); sums holds the SHA-256 of
	// each of its files, hashed once from the bytes this copy holds —
	// sealed or received, never taken from the wire. The store commits
	// with them instead of hashing the files again.
	digest [sha256.Size]byte
	sums   map[string][sha256.Size]byte
}

// seal encodes the record once and computes its digest. Called once
// when the primary appends the record; the body and digest then travel
// with it. Data and Files become views into the body, so a caller that
// later changes what it passed in cannot change the sealed record.
func (r *Record) seal() {
	e := encoder{buf: make([]byte, 0, r.bodySize())}
	r.encodeBody(&e)
	d := decoder{buf: e.buf}
	if *r = decodeBody(&d); d.err != nil {
		panic("repl: a sealed record does not decode: " + d.err.Error())
	}
	r.body = e.buf
	r.digest = r.identify()
}

// identify hashes each file once, keeps the sums, and returns the
// record digest: SHA-256 over the index, epoch, kind and path, the
// SHA-256 of Data, then each file's path, size and SHA-256 in path
// order. It covers every field of the body, so a received body whose
// digest matches the one the sender carried is the body it sealed.
func (r *Record) identify() [sha256.Size]byte {
	paths := make([]string, 0, len(r.Files))
	size := 8 + 8 + 1 + 8 + len(r.Path) + sha256.Size
	for p := range r.Files {
		paths = append(paths, p)
		size += 8 + len(p) + 8 + sha256.Size
	}
	sort.Strings(paths)
	e := encoder{buf: make([]byte, 0, size)}
	e.u64(uint64(r.Index))
	e.u64(uint64(r.Epoch))
	e.u8(uint8(r.Kind))
	e.str(r.Path)
	e.hash(sha256.Sum256(r.Data))
	r.sums = make(map[string][sha256.Size]byte, len(paths))
	for _, p := range paths {
		content := r.Files[p]
		sum := sha256.Sum256(content)
		r.sums[p] = sum
		e.str(p)
		e.u64(uint64(len(content)))
		e.hash(sum)
	}
	return sha256.Sum256(e.buf)
}

func (r *Record) encodeBody(e *encoder) {
	e.u64(uint64(r.Index))
	e.u64(uint64(r.Epoch))
	e.u8(uint8(r.Kind))
	e.str(r.Path)
	e.bytes(r.Data)
	e.fileMap(r.Files)
}

// bodySize is the length of the record's encoding.
func (r *Record) bodySize() int {
	return 8 + 8 + 1 + 8 + len(r.Path) + 8 + len(r.Data) + fileMapSize(r.Files)
}

// decodeBody parses a record's encoding; Data and Files are views into
// the decoder's buffer.
func decodeBody(d *decoder) Record {
	return Record{
		Index: int(d.u64()),
		Epoch: int(d.u64()),
		Kind:  recKind(d.u8()),
		Path:  d.str(),
		Data:  d.bytes(),
		Files: d.fileMap(),
	}
}

// --- wire format -----------------------------------------------------
//
// Messages are length-framed binary. All maps are encoded in sorted
// path order — the stream is a pure function of the message value —
// and decoding accepts only that one encoding, so a message that
// decodes re-encodes to the same bytes. Every received byte is
// verified exactly once before a decoder acts on it:
//   - a record body (the bulk of an append) by its record digest, which
//     the receiver recomputes from the body's bytes and compares with
//     the digest the sender carried after it (Record.identify);
//   - every other byte, those carried digests included, by the
//     envelope's trailing SHA-256 checksum.
// Decoded byte fields are views into the received buffer, which is
// never reused.

type msgKind uint8

const (
	msgAppend msgKind = iota + 1
	msgAppendResp
	msgVote
	msgVoteResp
	msgSnapshot
)

// message is the single RPC envelope; which fields are meaningful
// depends on Kind.
type message struct {
	Kind  msgKind
	From  int
	Epoch int

	// msgAppend: records (PrevIndex, PrevIndex+len(Records)] with the
	// consistency digest of the record at PrevIndex; Commit is the
	// primary's commit index. TruncateTo > 0 orders the follower to
	// drop any suffix beyond it (quorum-failure rollback).
	PrevIndex  int
	PrevDigest [sha256.Size]byte
	Records    []Record
	Commit     int
	TruncateTo int

	// msgAppendResp: OK accepts through MatchIndex; !OK rejects with
	// MatchIndex as the walk-back hint. NeedSnapshot asks for a full
	// image install instead of log replay.
	OK           bool
	MatchIndex   int
	NeedSnapshot bool

	// msgVote: the candidate's log frontier, with the identity digest of
	// its frontier position (the equal-frontier vote tiebreak);
	// msgVoteResp: Granted.
	LastIndex  int
	LastEpoch  int
	LastDigest [sha256.Size]byte
	Granted    bool

	// msgSnapshot: the primary's full tree image at Base (its applied
	// index), with the identity digest the follower adopts for it.
	Image      map[string][]byte
	Base       int
	BaseEpoch  int
	BaseDigest [sha256.Size]byte
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) hash(h [sha256.Size]byte) { e.buf = append(e.buf, h[:]...) }

func (e *encoder) fileMap(m map[string][]byte) {
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	e.u64(uint64(len(paths)))
	for _, p := range paths {
		e.str(p)
		e.bytes(m[p])
	}
}

// fileMapSize is the length of a file map's encoding.
func fileMapSize(m map[string][]byte) int {
	n := 8
	for p, c := range m {
		n += 16 + len(p) + len(c)
	}
	return n
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("repl: decode: truncated %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("bool")
	}
	return v == 1
}

// bytes returns a view into the buffer (nil when empty), capped so an
// append to it cannot reach the bytes after it.
func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil || uint64(len(d.buf)-d.off) < n {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	end := d.off + int(n)
	v := d.buf[d.off:end:end]
	d.off = end
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) hash() (h [sha256.Size]byte) {
	if d.err != nil || d.off+sha256.Size > len(d.buf) {
		d.fail("hash")
		return h
	}
	copy(h[:], d.buf[d.off:])
	d.off += sha256.Size
	return h
}

// fileMap decodes a file map; its paths must be strictly increasing,
// as the encoder writes them.
func (d *decoder) fileMap() map[string][]byte {
	n := d.u64()
	// Every entry takes at least its two 8-byte length fields, so a count
	// the rest of the buffer cannot hold fails before it sizes a map.
	if d.err != nil || n > uint64(len(d.buf)-d.off)/16 {
		d.fail("file map")
		return nil
	}
	if n == 0 {
		return nil
	}
	m := make(map[string][]byte, n)
	prev := ""
	for i := uint64(0); i < n && d.err == nil; i++ {
		p := d.str()
		if i > 0 && p <= prev && d.err == nil {
			d.err = fmt.Errorf("repl: decode: file map path %q out of order at offset %d", p, d.off)
		}
		m[p], prev = d.bytes(), p
	}
	return m
}

// decodeRecord parses one record and the digest its sender carried
// after the body; decodeMessage checks the one against the other.
func decodeRecord(d *decoder) Record {
	start := d.off
	r := decodeBody(d)
	r.body = d.buf[start:d.off:d.off]
	r.digest = d.hash()
	return r
}

// msgFixedSize is the length of an envelope's fixed-size fields,
// checksum included.
const msgFixedSize = 1 + 8*11 + 3 + 4*sha256.Size

// encodeMessage renders the full envelope plus a trailing checksum
// over every byte but the record bodies. Records go out as their
// sealed bodies, each followed by its digest.
func encodeMessage(m message) []byte {
	size := msgFixedSize + fileMapSize(m.Image)
	for _, r := range m.Records {
		size += len(r.body) + sha256.Size
	}
	e := encoder{buf: make([]byte, 0, size)}
	sum := sha256.New()
	covered := 0 // e.buf[covered:] is not yet summed
	e.u8(uint8(m.Kind))
	e.u64(uint64(m.From))
	e.u64(uint64(m.Epoch))
	e.u64(uint64(m.PrevIndex))
	e.hash(m.PrevDigest)
	e.u64(uint64(len(m.Records)))
	for _, r := range m.Records {
		sum.Write(e.buf[covered:])
		e.buf = append(e.buf, r.body...)
		covered = len(e.buf)
		e.hash(r.digest)
	}
	e.u64(uint64(m.Commit))
	e.u64(uint64(m.TruncateTo))
	e.bool(m.OK)
	e.u64(uint64(m.MatchIndex))
	e.bool(m.NeedSnapshot)
	e.u64(uint64(m.LastIndex))
	e.u64(uint64(m.LastEpoch))
	e.hash(m.LastDigest)
	e.bool(m.Granted)
	e.fileMap(m.Image)
	e.u64(uint64(m.Base))
	e.u64(uint64(m.BaseEpoch))
	e.hash(m.BaseDigest)
	sum.Write(e.buf[covered:])
	return sum.Sum(e.buf)
}

// decodeMessage parses and verifies one envelope: its checksum first,
// then each record's digest.
func decodeMessage(raw []byte) (message, error) {
	if len(raw) < sha256.Size {
		return message{}, fmt.Errorf("repl: decode: message shorter than its checksum")
	}
	m, sum, err := decodeEnvelope(raw[:len(raw)-sha256.Size])
	if err != nil {
		return message{}, err
	}
	if !bytes.Equal(sum[:], raw[len(raw)-sha256.Size:]) {
		return message{}, fmt.Errorf("repl: decode: message checksum mismatch")
	}
	for i := range m.Records {
		if r := &m.Records[i]; r.identify() != r.digest {
			return message{}, fmt.Errorf("repl: decode: record %d digest mismatch", r.Index)
		}
	}
	return m, nil
}

// decodeEnvelope parses an envelope without its trailing checksum and
// returns the checksum of the bytes it covers: all but the record
// bodies. It verifies nothing.
func decodeEnvelope(body []byte) (message, [sha256.Size]byte, error) {
	var out [sha256.Size]byte
	d := &decoder{buf: body}
	sum := sha256.New()
	covered := 0 // body[covered:d.off] is not yet summed
	m := message{
		Kind:       msgKind(d.u8()),
		From:       int(d.u64()),
		Epoch:      int(d.u64()),
		PrevIndex:  int(d.u64()),
		PrevDigest: d.hash(),
	}
	if n := d.u64(); d.err == nil {
		for i := uint64(0); i < n && d.err == nil; i++ {
			sum.Write(body[covered:d.off])
			m.Records = append(m.Records, decodeRecord(d))
			covered = d.off - sha256.Size
		}
	}
	m.Commit = int(d.u64())
	m.TruncateTo = int(d.u64())
	m.OK = d.bool()
	m.MatchIndex = int(d.u64())
	m.NeedSnapshot = d.bool()
	m.LastIndex = int(d.u64())
	m.LastEpoch = int(d.u64())
	m.LastDigest = d.hash()
	m.Granted = d.bool()
	m.Image = d.fileMap()
	m.Base = int(d.u64())
	m.BaseEpoch = int(d.u64())
	m.BaseDigest = d.hash()
	if d.err == nil && d.off != len(body) {
		d.err = fmt.Errorf("repl: decode: %d trailing bytes", len(body)-d.off)
	}
	if d.err != nil {
		return message{}, out, d.err
	}
	sum.Write(body[covered:])
	sum.Sum(out[:0])
	return m, out, nil
}
