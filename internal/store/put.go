package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// Put records: a durable Put writes one self-checking record file,
// .popper/put-<generation>-<sequence>, instead of committing a manifest
// generation. The record is a two-blob cas extent — a header naming the
// generation, sequence and path, then the full content — so its own
// checksum proves it whole and it needs no temp file or rename: write,
// fsync, fsync of .popper. The logical tree is the committed manifest's
// files overlaid, per path, with the highest-sequence intact record of
// the committed generation. Once a record is durable, Put removes the
// record it supersedes, so a path holds one record at rest; a removal a
// crash undoes brings back a lower sequence, which loses. The next
// manifest commit folds the records in (their paths' content is part of
// the workspace it commits) and removes them durably, so none survives
// to be mistaken for live state if the manifest is later lost. A Sync
// whose files and records all equal the committed tree commits nothing
// and leaves the records where they are.

const (
	putPrefix = popperDir + "/put-"
	putHeader = "popper-put v1 "
)

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
	path string // the tracked path it writes
	hash [sha256.Size]byte
	data []byte
}

// putHeaderPrefix is a record header up to its path.
func putHeaderPrefix(gen, seq int) string {
	return putHeader + strconv.Itoa(gen) + " " + strconv.Itoa(seq) + " "
}

// encodePutRecord renders a record: a cas extent of the header and the
// content.
func encodePutRecord(gen, seq int, path string, data []byte) []byte {
	return cas.EncodeExtent([][]byte{[]byte(putHeaderPrefix(gen, seq) + path), data})
}

// decodePutRecord verifies the record stored at name: an intact
// two-blob extent whose header matches the name and names a tracked
// path. Any deviation — a torn tail, rot, a record copied under
// another name — is an error.
func decodePutRecord(name string, raw []byte) (putRecord, error) {
	gen, seq, ok := parsePutName(name)
	if !ok {
		return putRecord{}, errors.New("store: put record: malformed name")
	}
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
	path, ok := strings.CutPrefix(string(header), putHeaderPrefix(gen, seq))
	if !ok || !Tracked(path) {
		return putRecord{}, errors.New("store: put record: header does not match its name")
	}
	return putRecord{name: name, seq: seq, path: path, hash: recs[1].Hash, data: data}, nil
}

// putLog is what a scan of the record files found; the store caches it
// between scans. A log with no names is valid for any generation;
// otherwise it describes the records of gen.
type putLog struct {
	gen     int                  // the generation whose records are live
	maxGen  int                  // the highest generation any record names
	next    int                  // the next free sequence number in gen
	names   []string             // every record file, removed at the next commit
	damaged []string             // records of gen that fail their checksum
	live    map[string]putRecord // path → its highest-sequence intact record of gen
}

// keep files an intact record of gen unless a higher sequence already
// holds its path. A record this store wrote is kept without its data.
func (p *putLog) keep(rec putRecord) {
	if p.live == nil {
		p.live = make(map[string]putRecord)
	}
	if cur, ok := p.live[rec.path]; !ok || rec.seq > cur.seq {
		p.live[rec.path] = rec
	}
}

// putLogLocked returns the record cache for the committed manifest,
// scanning the disk when it is cold or describes another generation.
// Callers hold the lock.
func (s *Store) putLogLocked(man *Manifest) (*putLog, error) {
	if p := s.puts; p != nil {
		if len(p.names) == 0 {
			p.gen = 0
			if man != nil {
				p.gen = man.Generation
			}
			return p, nil
		}
		if man != nil && p.gen == man.Generation {
			return p, nil
		}
	}
	paths, err := s.fs.List()
	if err != nil {
		return nil, err
	}
	p, err := s.scanPutsLocked(man, paths)
	if err != nil {
		return nil, err
	}
	s.puts = p
	return p, nil
}

// scanPutsLocked reads the record files in a listing. The live
// generation is the committed manifest's, or — with no readable
// manifest — the highest any record names. Callers hold the lock.
func (s *Store) scanPutsLocked(man *Manifest, paths []string) (*putLog, error) {
	p := &putLog{next: 1}
	for _, path := range paths {
		if gen, _, ok := parsePutName(path); ok {
			p.names = append(p.names, path)
			p.maxGen = max(p.maxGen, gen)
		}
	}
	p.gen = p.maxGen
	if man != nil {
		p.gen = man.Generation
	}
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
		rec, derr := decodePutRecord(path, raw)
		if err != nil || derr != nil {
			p.damaged = append(p.damaged, path)
			continue
		}
		p.keep(rec)
	}
	return p, nil
}

// committed reports whether every live record holds its path's
// committed content, so the logical tree is the manifest's.
func (p *putLog) committed(man *Manifest) bool {
	for path, rec := range p.live {
		if e, ok := man.Lookup(path); !ok || e.Hash != rec.hash {
			return false
		}
	}
	return true
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
// generation's intact put records (0 when there are none). With the
// generation it measures how far a store got through a committed
// operation sequence: a replica that applied more Puts of the same
// generation has the higher frontier. A record that fails its checksum
// does not count — a replica whose newest record rotted holds less of
// the sequence than one that holds it whole.
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
	p, err := s.putLogLocked(man)
	if err != nil {
		return 0, err
	}
	frontier := 0
	for _, rec := range p.live {
		frontier = max(frontier, rec.seq)
	}
	return frontier, nil
}

// noteDamagedPut marks a live-generation record that fails its
// checksum: a Put that never returned, or rot.
const noteDamagedPut = "put record fails its checksum"
