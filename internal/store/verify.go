package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"popper/internal/cas"
)

// State classifies one finding.
type State uint8

const (
	// StateTorn: the file is a strict prefix of its manifested content —
	// the signature of a write interrupted by a crash.
	StateTorn State = iota + 1
	// StateCorrupted: the file exists but its bytes are neither the
	// manifested content nor a prefix of it.
	StateCorrupted
	// StateMissing: the manifest records the file but it is gone.
	StateMissing
	// StateExtra: the file is tracked-shaped but no manifest generation
	// records it (for example, written by a crashed sync that never
	// committed, or placed by hand).
	StateExtra
	// StateDebris: store-internal leftovers — in-flight temp files,
	// unreferenced or damaged cache objects, a damaged stage-cache
	// sidecar.
	StateDebris
	// StateManifest: the committed manifest is missing or damaged.
	StateManifest
	// StatePending: an intent record (.popper/manifest.next) survives —
	// the last sync never committed.
	StatePending
	// StateUnbacked: the object pool cannot produce a committed content
	// whose tracked file is intact — no loose object or extent record
	// proves it, so the workspace copy is its only one.
	StateUnbacked
	// StateLagging: a live replica trails the group's applied frontier.
	StateLagging
	// StateDivergent: a live replica's committed state (StateDigest)
	// differs from the primary history's: at the most advanced applied
	// index, or at the last log position both hold.
	StateDivergent
)

var stateNames = [...]string{"unknown", "torn", "corrupted", "missing", "extra", "debris", "manifest", "intent", "unbacked", "lagging", "divergent"}

func (st State) String() string {
	if int(st) < len(stateNames) {
		return stateNames[st]
	}
	return stateNames[0]
}

// Outcome is what a repair pass did about a finding.
type Outcome uint8

const (
	// Detected: no repair ran (a detect-only pass).
	Detected Outcome = iota
	// Healed: the finding's action restored it from Finding.Rung.
	Healed
	// Quarantined: no rung could prove the bytes. What is left of them
	// is preserved under .popper/quarantine and the entry is dropped —
	// never guessed at.
	Quarantined
	// Failed: the finding's action could not complete (a replica that
	// would not catch up or reseed).
	Failed
)

// Finding is one verified deviation between the committed manifest and
// the tree, or between a replica and its group.
type Finding struct {
	// Replica is the store the finding lives in (0 for a plain store).
	Replica int
	Path    string
	State   State
	// Size is the file's on-disk size; WantSize the manifested size
	// (where each applies).
	Size     int64
	WantSize int64
	// Repairable: a local copy holds the manifested bytes — the object
	// pool, or for an unbacked content the intact workspace file.
	Repairable bool
	Note       string
	// Outcome and Rung are set from the finding's action when a repair
	// pass applies it; Rung names the byte source of a heal.
	Outcome Outcome
	Rung    Rung
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%-9s %s", replicaPrefix(f.Replica, f.State >= StateLagging), f.State, f.Path)
	switch f.State {
	case StateTorn:
		if f.WantSize > 0 { // a torn extent has no single manifested size
			fmt.Fprintf(&b, " (%d of %d bytes)", f.Size, f.WantSize)
		}
	case StateCorrupted:
		fmt.Fprintf(&b, " (%d bytes, want %d)", f.Size, f.WantSize)
	case StateMissing:
		fmt.Fprintf(&b, " (want %d bytes)", f.WantSize)
	}
	if f.Note != "" {
		fmt.Fprintf(&b, " — %s", f.Note)
	}
	switch f.Outcome {
	case Healed:
		fmt.Fprintf(&b, " [healed from %s]", f.Rung)
	case Quarantined:
		b.WriteString(" [UNREPAIRABLE: quarantined]")
	case Failed:
		b.WriteString(" [UNREPAIRABLE]")
	default:
		if f.State == StateTorn || f.State == StateCorrupted || f.State == StateMissing || f.State == StateUnbacked {
			if f.Repairable {
				b.WriteString(" [restorable]")
			} else {
				b.WriteString(" [no local copy]")
			}
		}
	}
	return b.String()
}

// replicaPrefix labels a line with its replica: always for a group
// finding or action, otherwise only off the primary tree.
func replicaPrefix(id int, group bool) string {
	if id == 0 && !group {
		return ""
	}
	return fmt.Sprintf("replica %d: ", id)
}

// Report is the result of one verification pass over a store or a
// replicated group, plus the actions a repair pass applied.
type Report struct {
	// Generation and Tracked describe the committed manifest (of the
	// first live replica in a group); 0 when there is none.
	Generation int
	Tracked    int
	// Scanned counts manifest entries read and hashed; Bytes the content
	// bytes hashed.
	Scanned  int
	Bytes    int64
	Findings []Finding
	// Actions is the repair plan that was applied, in execution order.
	Actions []Action

	// man and next are the manifest and intent record the pass verified
	// against: the planner's input.
	man, next *Manifest
	// puts is what the pass found of the put records.
	puts *putLog
}

// Clean reports whether the pass found nothing wrong.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Count returns how many findings ended with the outcome.
func (r *Report) Count(o Outcome) int {
	n := 0
	for _, f := range r.Findings {
		if f.Outcome == o {
			n++
		}
	}
	return n
}

// Format renders the report the way `popper fsck` and `popper scrub`
// print it.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: generation %d, %d tracked file(s), %d entr%s verified (%d bytes)\n",
		r.Generation, r.Tracked, r.Scanned, plural(r.Scanned, "y", "ies"), r.Bytes)
	for _, f := range r.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	for _, a := range r.Actions {
		b.WriteString("  " + a.String() + "\n")
	}
	switch {
	case r.Clean():
		b.WriteString("scrub: clean — every tracked file matches the manifest\n")
	case len(r.Actions) == 0:
		fmt.Fprintf(&b, "scrub: %d finding(s)\n", len(r.Findings))
	default:
		fmt.Fprintf(&b, "scrub: %d finding(s), %d healed, %d unrepairable\n",
			len(r.Findings), r.Count(Healed), len(r.Findings)-r.Count(Healed))
	}
	return b.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Verify walks the repository once and classifies every deviation from
// the committed manifest. Each tracked file is read and hashed once,
// and comparing that hash with the file's manifest entry classifies it
// (torn, corrupted, missing). The same walk reads every loose object
// and extent once, and from what those prove it checks that the object
// pool can produce every committed content. It never writes.
func (s *Store) Verify() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyTreeLocked()
}

// verifyTreeLocked is Verify; callers hold the lock.
func (s *Store) verifyTreeLocked() (*Report, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	s.invalidateExtents() // trust nothing cached: the tree may have mutated underneath
	rep := &Report{}
	raw, err := s.read(manifestPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rep.Findings = append(rep.Findings, Finding{Path: manifestPath, State: StateManifest, Note: "manifest missing (legacy or damaged repository)"})
	case err != nil && s.dead != nil:
		return nil, s.dead
	default:
		if err == nil {
			rep.man, err = ParseManifest(raw)
		}
		if err != nil {
			rep.Findings = append(rep.Findings, Finding{Path: manifestPath, State: StateManifest, Note: "manifest damaged (checksum or format error)"})
		}
	}
	if raw, err := s.read(manifestNextPath); err == nil {
		rep.Findings = append(rep.Findings, Finding{Path: manifestNextPath, State: StatePending, Note: "interrupted sync: uncommitted intent record"})
		rep.next, _ = ParseManifest(raw) // a torn intent record is expected debris
	} else if s.dead != nil {
		return nil, s.dead
	}
	if err := s.verifyLocked(rep); err != nil {
		return nil, err
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool { return rep.Findings[i].Path < rep.Findings[j].Path })
	return rep, nil
}

// verifyLocked classifies the tree against rep.man and rep.next,
// appending findings. Callers hold the lock.
func (s *Store) verifyLocked(rep *Report) error {
	man, next := rep.man, rep.next
	if man != nil {
		rep.Generation, rep.Tracked = man.Generation, man.Len()
	}
	// The extents first, each read once: what they prove is the index
	// pass 1's pool lookups consult and what pass 2 classifies.
	paths, err := s.fs.List()
	if err != nil {
		return err
	}
	extents := s.readExtentsLocked(paths)

	// Pass 1: every manifested file, read and hashed once. Whether a
	// damaged file is repairable, and whether short content is torn,
	// depends on the pool, so its finding is settled after pass 2 has
	// proved the loose objects.
	var damaged []damage
	want := make(map[[sha256.Size]byte]bool)    // the contents damaged files need
	loose := make(map[[sha256.Size]byte][]byte) // those pass 2 proves as loose objects
	if man != nil {
		for _, e := range man.Entries {
			content, err := s.read(e.Path)
			missing := errors.Is(err, fs.ErrNotExist)
			if err != nil && !missing {
				return err
			}
			sum := sha256.Sum256(content)
			rep.Scanned++
			rep.Bytes += int64(len(content))
			if missing {
				want[e.Hash] = true
				damaged = append(damaged, damage{finding: len(rep.Findings), entry: e})
				rep.Findings = append(rep.Findings, Finding{Path: e.Path, State: StateMissing, WantSize: e.Size})
				continue
			}
			if sum == e.Hash {
				continue
			}
			want[e.Hash] = true
			damaged = append(damaged, damage{finding: len(rep.Findings), entry: e, content: content})
			f := Finding{Path: e.Path, Size: int64(len(content)), WantSize: e.Size, State: StateCorrupted}
			if next != nil {
				if ne, ok := next.Lookup(e.Path); ok && ne.Hash == sum {
					f.Note = "matches the interrupted sync's intent"
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}

	// Pass 2: everything on disk the manifest does not explain. The
	// loose objects and extents it reads prove the contents in pool.
	hashRefs := referencedHashes(man, next)
	pool := make(map[[sha256.Size]byte]bool, len(hashRefs))
	// Put records: a live one is healthy state awaiting the next commit.
	if rep.puts, err = s.scanPutsLocked(man, paths); err != nil {
		return err
	}
	for _, name := range rep.puts.names {
		if gen, _, _ := parsePutName(name); gen != rep.puts.gen {
			rep.Findings = append(rep.Findings, Finding{Path: name, State: StateDebris,
				Note: fmt.Sprintf("stale put record (generation %d, live %d)", gen, rep.puts.gen)})
		}
	}
	for _, name := range rep.puts.folded {
		rep.Findings = append(rep.Findings, Finding{Path: name, State: StateDebris, Note: noteFoldedPut})
	}
	for _, name := range rep.puts.damaged {
		rep.Findings = append(rep.Findings, Finding{Path: name, State: StateTorn, Note: noteDamagedPut})
	}
	for _, name := range rep.puts.dangling {
		rep.Findings = append(rep.Findings, Finding{Path: name, State: StateTorn, Note: noteDanglingPut})
	}
	for _, path := range paths {
		switch {
		case strings.HasSuffix(path, tmpSuffix):
			rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "in-flight temp file"})
		case path == manifestPath || path == manifestNextPath:
			// Reported above, not re-classified here.
		case isPutRecord(path):
			// Classified with the put records above.
		case strings.HasPrefix(path, quarantineDir+"/"):
			// Quarantined files are deliberately preserved; never re-flagged.
		case strings.HasPrefix(path, objectsDir+"/"):
			if note := s.objectProblem(path, hashRefs, pool, want, loose); note != "" {
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: note})
			}
		case strings.HasPrefix(path, extentsDir+"/"):
			if f, bad := extentFinding(path, extents, hashRefs, pool); bad {
				rep.Findings = append(rep.Findings, f)
			}
		case path == CacheStatePath:
			// The stage-cache sidecar is advisory and self-verifying; an
			// intact extent image is healthy, anything else is debris whose
			// removal costs only a cold cache.
			raw, err := s.read(path)
			if err != nil {
				if s.dead != nil {
					return s.dead
				}
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "unreadable stage-cache sidecar"})
				break
			}
			if _, perr := cas.ParseExtent(raw); perr != nil {
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "damaged stage-cache sidecar (cold start after removal)"})
			}
		case path == legacyMerklePath:
			// No finding: a -scrub-interval run's final pass precedes the
			// commit whose gc removes it.
		case strings.HasPrefix(path, popperDir+"/"):
			rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "unrecognized store metadata"})
		case Tracked(path):
			if man != nil {
				if _, ok := man.Lookup(path); ok {
					continue // verified in pass 1
				}
			}
			size, _ := s.fs.Stat(path)
			f := Finding{Path: path, State: StateExtra, Size: size}
			if next != nil {
				if ne, ok := next.Lookup(path); ok {
					content, err := s.read(path)
					if err == nil && sha256.Sum256(content) == ne.Hash {
						f.Note = "written by the interrupted sync"
					}
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	for _, d := range damaged {
		settle(&rep.Findings[d.finding], d, loose, s.loadExtentsLocked().blobs)
	}
	if man == nil {
		return nil
	}
	// Pass 3: every committed content the pool cannot produce, once per
	// digest, on a tracked file that holds it intact. Damage the walk
	// already flagged — the file itself, or the object that should back
	// it — is planned from those findings.
	for _, e := range man.Entries {
		if pool[e.Hash] || flagged(rep.Findings, e.Path) || flagged(rep.Findings, objectPath(e.Hash)) {
			continue
		}
		pool[e.Hash] = true
		rep.Findings = append(rep.Findings, Finding{Path: e.Path, State: StateUnbacked, WantSize: e.Size,
			Repairable: true, Note: "no loose object or extent record holds its committed content"})
	}
	return nil
}

// flagged reports whether a finding names path.
func flagged(findings []Finding, path string) bool {
	for _, f := range findings {
		if f.Path == path {
			return true
		}
	}
	return false
}

// damage is a manifested file pass 1 found missing or differing from
// its entry: the index of its finding, and the file's content.
type damage struct {
	finding int
	entry   Entry
	content []byte
}

// settle completes a damaged file's finding from the pool the pass
// proved: the loose objects pass 2 read and the extents' records. The
// file is repairable when the pool holds its committed bytes, and short
// content is torn when it is a strict prefix of them, or when the pool
// cannot say (short content is presumed torn).
func settle(f *Finding, d damage, loose, extents map[[sha256.Size]byte][]byte) {
	obj, ok := loose[d.entry.Hash]
	if !ok {
		obj, ok = extents[d.entry.Hash]
	}
	f.Repairable = ok
	if f.State == StateCorrupted && int64(len(d.content)) < d.entry.Size && (!ok || bytes.HasPrefix(obj, d.content)) {
		f.State = StateTorn
	}
}

// extentFinding classifies one packed extent from what the pass read
// of it, adding the contents it proves to pool — every record of an
// intact extent, the referenced records a torn one's repair will
// salvage; bad=false means healthy (intact, with at least one record a
// live generation references).
func extentFinding(path string, extents map[string]extentRead, hashRefs, pool map[[sha256.Size]byte]bool) (Finding, bool) {
	x, ok := extents[path]
	if !ok {
		return Finding{Path: path, State: StateDebris, Note: "unreadable extent"}, true
	}
	if x.torn {
		if !cas.IsExtent(x.raw) {
			return Finding{Path: path, State: StateDebris, Note: "not an extent (damaged beyond the magic)"}, true
		}
		salvageable := 0
		for _, r := range x.recs {
			if hashRefs[r.Hash] {
				pool[r.Hash] = true
				salvageable++
			}
		}
		return Finding{
			Path: path, State: StateTorn, Size: int64(len(x.raw)),
			Repairable: true,
			Note:       fmt.Sprintf("torn extent: %d referenced record(s) salvageable", salvageable),
		}, true
	}
	for _, r := range x.recs {
		pool[r.Hash] = true
	}
	if anyRecordReferenced(x.recs, hashRefs) {
		return Finding{}, false // live records pin the whole extent
	}
	return Finding{Path: path, State: StateDebris, Note: noteUnreferencedExtent}, true
}

// noteUnreferencedExtent marks an intact extent no live generation
// references: debris to remove, never to heal.
const noteUnreferencedExtent = "unreferenced extent"

// referencedHashes collects every content hash either manifest pins.
func referencedHashes(mans ...*Manifest) map[[sha256.Size]byte]bool {
	n := 0
	for _, m := range mans {
		if m != nil {
			n += m.Len()
		}
	}
	refs := make(map[[sha256.Size]byte]bool, n)
	for _, m := range mans {
		if m == nil {
			continue
		}
		for _, e := range m.Entries {
			refs[e.Hash] = true
		}
	}
	return refs
}

// objectHash decodes a loose object's path into the hash it names.
func objectHash(path string) ([sha256.Size]byte, bool) {
	var hash [sha256.Size]byte
	base := path[strings.LastIndexByte(path, '/')+1:]
	if len(base) != hex.EncodedLen(sha256.Size) {
		return hash, false
	}
	_, err := hex.Decode(hash[:], []byte(base))
	return hash, err == nil
}

// objectProblem classifies a cache object path, adding the content an
// intact object proves to pool, and its bytes to loose when want asks
// for them and the object sits at the path Store reads it from; empty
// means healthy.
func (s *Store) objectProblem(path string, hashRefs, pool, want map[[sha256.Size]byte]bool, loose map[[sha256.Size]byte][]byte) string {
	hash, ok := objectHash(path)
	if !ok {
		return "malformed object name"
	}
	content, rerr := s.read(path)
	if rerr != nil {
		return "unreadable object"
	}
	if sha256.Sum256(content) != hash {
		return "object content does not match its name"
	}
	pool[hash] = true
	if want[hash] && path == objectPath(hash) {
		loose[hash] = content
	}
	if !hashRefs[hash] {
		return "unreferenced object"
	}
	return ""
}
