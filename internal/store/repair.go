package store

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// Repair is a plan, then its execution. Store.Plan turns a Report into
// a list of typed actions without writing anything; each action names
// the rung of the repair chain that supplies its bytes:
//
//	replica quorum → local object pool → intact workspace copy (reseal)
//	→ quarantine
//
// Every rung is digest-verified, and quarantine happens only after all
// of them, the quorum included, failed. Store.Apply executes a plan
// with the store's atomic write protocol, so a crash mid-repair leaves a
// tree a second verify+repair still converges on.

// Rung names the byte source an action draws on.
type Rung uint8

const (
	// RungNone: no byte source (quarantine).
	RungNone Rung = iota
	// RungReplica: bytes a quorum of live replicas attests.
	RungReplica
	// RungPool: the local object pool, loose or packed — how it stores
	// the bytes is its own affair.
	RungPool
	// RungReseal: an intact workspace copy, or deterministic
	// reconstruction that needs no stored bytes (a manifest rebuild,
	// debris removal, an intent rollback).
	RungReseal
)

// Rungs is the repair chain, highest priority first.
var Rungs = [...]Rung{RungReplica, RungPool, RungReseal}

var rungNames = [...]string{"none", "replica", "pool", "reseal"}

func (r Rung) String() string {
	if int(r) < len(rungNames) {
		return rungNames[r]
	}
	return rungNames[0]
}

// Verb is an action's kind. Plans execute in Verb order: the object
// pool is seeded before debris goes, workspace files are settled before
// the manifest that records them, and replica-level actions come last.
type Verb uint8

const (
	// VerbInstall writes a quorum-attested store file (manifest, extent,
	// put record) byte for byte.
	VerbInstall Verb = iota + 1
	// VerbStore writes an object's proven bytes into the loose pool.
	VerbStore
	// VerbSalvage copies a torn extent's referenced, still-verifying
	// records out to loose objects and removes the extent.
	VerbSalvage
	// VerbRemove deletes debris.
	VerbRemove
	// VerbRestore rewrites a tracked file from proven bytes.
	VerbRestore
	// VerbQuarantine moves an unprovable file under
	// .popper/quarantine/gen-<N>/ and drops its entry.
	VerbQuarantine
	// VerbAdopt records an extra file in the next generation.
	VerbAdopt
	// VerbRollback discards an uncommitted intent record.
	VerbRollback
	// VerbRebuild commits a new manifest generation: entry surgery
	// (quarantine, adoption) or a manifest lost with no quorum copy.
	VerbRebuild
	// VerbHeal catches a lagging replica up by anti-entropy.
	VerbHeal
	// VerbReseed installs the primary's snapshot on a divergent replica.
	VerbReseed
)

var verbNames = [...]string{"", "installed", "stored", "salvaged", "removed", "restored", "quarantined", "adopted", "rolled-back", "rebuilt", "healed", "reseeded"}

func (v Verb) String() string {
	if int(v) < len(verbNames) {
		return verbNames[v]
	}
	return "unknown"
}

// Action is one typed repair step.
type Action struct {
	Verb    Verb
	Replica int // the replica it acts on (0 for a plain store)
	Path    string
	Rung    Rung
	Note    string
	data    []byte // the proven bytes Install, Store and Restore write
	dest    string // Quarantine's destination ("" when no bytes are left)
	// findings indexes the report findings the action resolves.
	findings []int
}

func (a Action) String() string {
	s := fmt.Sprintf("%s%-11s %s", replicaPrefix(a.Replica, a.Verb >= VerbHeal), a.Verb, a.Path)
	if a.Note != "" {
		s += " — " + a.Note
	}
	return s
}

// Quorum attests bytes across a replica group: content a majority of
// live replicas serve digest-verified (ObjectQuorum) or byte-identical
// (FileQuorum). *repl.Group implements it; a plain store plans with a
// nil Quorum.
type Quorum interface {
	ObjectQuorum(hash [sha256.Size]byte) ([]byte, int)
	FileQuorum(path string) ([]byte, int)
}

// Plan is the ordered list of actions that repairs one Report.
type Plan struct {
	Actions []Action
	// man is the manifest the plan repairs toward (nil: none survives);
	// gen the generation a Rebuild commits.
	man *Manifest
	gen int
	// puts holds the put records: a Rebuild carries the live ones into
	// its generation, which passes every record's, then removes them all.
	puts *putLog
}

// add appends an action and returns its index.
func (p *Plan) add(a Action) int {
	p.Actions = append(p.Actions, a)
	return len(p.Actions) - 1
}

// Plan turns a report into the actions that repair it, in execution
// (Verb) order. It only reads: quorum copies are fetched, local rungs
// looked up, and every byte an action will write is verified now. A
// clean report plans nothing.
func (s *Store) Plan(rep *Report, q Quorum) (*Plan, error) {
	p := &Plan{man: rep.man, puts: rep.puts}
	if rep.Clean() {
		return p, nil
	}
	fix := make([]int, len(rep.Findings)) // fix[i]: the action resolving finding i
	findings, subFix := rep.Findings, fix
	if rep.man == nil {
		// Every other finding was judged against no manifest. A quorum
		// copy re-anchors the tree: install it, resolve those findings to
		// the install, and plan against a verify of the installed manifest.
		if data, _ := fileQuorum(q, manifestPath); data != nil {
			if man, err := ParseManifest(data); err == nil {
				at := p.add(Action{Verb: VerbInstall, Path: manifestPath, Rung: RungReplica, data: data,
					Note: fmt.Sprintf("generation %d from the replica quorum", man.Generation)})
				for i := range fix {
					fix[i] = at
				}
				sub := &Report{man: man, next: rep.next}
				for _, f := range rep.Findings {
					if f.State == StatePending { // the intent still needs its rollback
						sub.Findings = append(sub.Findings, f)
					}
				}
				s.mu.Lock()
				err := s.verifyLocked(sub)
				s.mu.Unlock()
				if err != nil {
					return nil, err
				}
				p.man, p.puts, findings, subFix = man, sub.puts, sub.Findings, make([]int, len(sub.Findings))
			}
		}
	}
	if err := s.planFindings(p, findings, subFix, q); err != nil {
		return nil, err
	}
	for i, at := range fix {
		if at >= 0 {
			p.Actions[at].findings = append(p.Actions[at].findings, i)
		}
	}
	sort.SliceStable(p.Actions, func(i, j int) bool { return p.Actions[i].Verb < p.Actions[j].Verb })
	return p, nil
}

// planFindings plans one action per finding (fix[i] records it, -1 for
// none), then writes back objects whose only local copy the damage
// took; an unbacked finding resolves to the action that provides its
// content.
func (s *Store) planFindings(p *Plan, findings []Finding, fix []int, q Quorum) error {
	man := p.man
	p.gen = p.puts.maxGen + 1
	if man != nil {
		p.gen = max(p.gen, man.Generation+1)
	}
	rebuild := -1
	needRebuild := func() int {
		if rebuild < 0 {
			rebuild = p.add(Action{Verb: VerbRebuild, Path: manifestPath, Rung: RungReseal})
		}
		return rebuild
	}
	provides := make(map[[sha256.Size]byte]int) // hash → the action writing it into the pool
	restored := make(map[string]int)            // tracked path → its Restore or Quarantine
	var unbacked []int
	for i, f := range findings {
		switch {
		case f.State == StateUnbacked:
			unbacked = append(unbacked, i) // after the write-back below
		case f.State == StateManifest:
			fix[i] = needRebuild()
		case f.State == StatePending:
			fix[i] = p.add(Action{Verb: VerbRollback, Path: f.Path, Rung: RungReseal, Note: "uncommitted sync intent discarded"})
		case f.State == StateExtra:
			fix[i] = p.add(Action{Verb: VerbAdopt, Path: f.Path, Rung: RungReseal, Note: "tracked into the new manifest generation"})
			needRebuild()
		case f.Note == noteDamagedPut:
			// A damaged live record: the quorum's intact copy, else removal —
			// its Put never returned, or no rung can prove its bytes.
			if data, _ := fileQuorum(q, f.Path); data != nil {
				if rec, err := decodePutRecord(f.Path, data); err == nil {
					fix[i] = p.add(Action{Verb: VerbInstall, Path: f.Path, Rung: RungReplica, data: data,
						Note: fmt.Sprintf("%d bytes from the replica quorum", len(data))})
					p.puts.keep(rec)
					continue
				}
			}
			fix[i] = p.add(Action{Verb: VerbRemove, Path: f.Path, Rung: RungReseal, Note: f.Note})
		case strings.HasPrefix(f.Path, extentsDir+"/") && !strings.HasSuffix(f.Path, tmpSuffix) && f.Note != noteUnreferencedExtent:
			// A damaged extent: the quorum's intact image, else what its
			// own record digests still prove (torn), else removal.
			if data, _ := fileQuorum(q, f.Path); data != nil {
				if recs, err := cas.ParseExtent(data); err == nil {
					fix[i] = p.add(Action{Verb: VerbInstall, Path: f.Path, Rung: RungReplica, data: data,
						Note: fmt.Sprintf("%d bytes from the replica quorum", len(data))})
					for _, r := range recs {
						provides[r.Hash] = fix[i]
					}
					continue
				}
			}
			if f.State == StateTorn {
				fix[i] = p.add(Action{Verb: VerbSalvage, Path: f.Path, Rung: RungPool})
			} else {
				fix[i] = p.add(Action{Verb: VerbRemove, Path: f.Path, Rung: RungReseal, Note: f.Note})
			}
		case f.State == StateTorn || f.State == StateCorrupted || f.State == StateMissing:
			e, _ := man.Lookup(f.Path)
			data, rung := s.chain(q, e.Hash, intactCopy(man, e.Hash, findings))
			if data != nil {
				fix[i] = p.add(Action{Verb: VerbRestore, Path: f.Path, Rung: rung, data: data,
					Note: fmt.Sprintf("%d bytes from %s", len(data), rung)})
			} else {
				a := Action{Verb: VerbQuarantine, Path: f.Path, Note: "no rung holds the bytes; entry dropped"}
				if f.State != StateMissing {
					a.dest = quarantineDir + "/gen-" + strconv.Itoa(p.gen) + "/" + f.Path
					a.Note = "no rung holds the bytes; kept at " + a.dest
				}
				fix[i] = p.add(a)
				needRebuild()
			}
			restored[f.Path] = fix[i]
		default: // debris
			hash, isObject := objectHash(f.Path)
			if isObject && strings.HasPrefix(f.Path, objectsDir+"/") && man != nil && referencesHash(man, hash) {
				// A damaged object a live entry needs: heal it in place.
				if data, rung := s.chain(q, hash, intactCopy(man, hash, findings)); data != nil {
					fix[i] = p.add(Action{Verb: VerbStore, Path: f.Path, Rung: rung, data: data,
						Note: fmt.Sprintf("%d bytes from %s", len(data), rung)})
					provides[hash] = fix[i]
					continue
				}
			}
			fix[i] = p.add(Action{Verb: VerbRemove, Path: f.Path, Rung: RungReseal, Note: f.Note})
		}
	}
	// Every entry the plan keeps must end with its bytes in the pool:
	// content whose only local copy the damage took (a rotted extent
	// record, a destroyed object), or that the pool never held, is
	// written back from the chain.
	if man == nil {
		return nil
	}
	for _, e := range man.Entries {
		if _, ok := provides[e.Hash]; ok {
			continue
		}
		var data []byte
		var rung Rung
		if j, ok := restored[e.Path]; ok {
			if p.Actions[j].Verb != VerbRestore {
				continue // quarantined: the entry is dropped
			}
			data, rung = p.Actions[j].data, p.Actions[j].Rung
		}
		s.mu.Lock()
		_, local := s.readObjectAny(e.Hash)
		s.mu.Unlock()
		if local {
			continue
		}
		if data == nil {
			data, rung = s.chain(q, e.Hash, intactCopy(man, e.Hash, findings))
		}
		if data == nil {
			continue
		}
		provides[e.Hash] = p.add(Action{Verb: VerbStore, Path: objectPath(e.Hash), Rung: rung, data: data,
			Note: fmt.Sprintf("%d bytes from %s", len(data), rung)})
	}
	for _, i := range unbacked {
		e, _ := man.Lookup(findings[i].Path)
		if at, ok := provides[e.Hash]; ok {
			fix[i] = at
		} else {
			fix[i] = -1 // no rung holds the bytes now: the re-verify reports it
		}
	}
	return nil
}

// chain resolves a content hash down the repair chain, highest rung
// first, each digest-verified: the replica quorum, the local object
// pool, then the intact workspace copy at path ("" skips it).
func (s *Store) chain(q Quorum, hash [sha256.Size]byte, path string) ([]byte, Rung) {
	if q != nil {
		if data, _ := q.ObjectQuorum(hash); data != nil && sha256.Sum256(data) == hash {
			return data, RungReplica
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, RungNone
	}
	if data, ok := s.readObjectAny(hash); ok {
		return data, RungPool
	}
	if path != "" {
		if data, err := s.read(path); err == nil && sha256.Sum256(data) == hash {
			return data, RungReseal
		}
	}
	return nil, RungNone
}

// fileQuorum asks the quorum for a whole store file (nil without one).
func fileQuorum(q Quorum, path string) ([]byte, int) {
	if q == nil {
		return nil, 0
	}
	return q.FileQuorum(path)
}

// intactCopy returns a tracked path whose manifested content is hash
// and whose file no finding calls damaged, or "". (An unbacked finding
// names a file the walk verified intact.)
func intactCopy(man *Manifest, hash [sha256.Size]byte, findings []Finding) string {
	if man == nil {
		return ""
	}
next:
	for _, e := range man.Entries {
		if e.Hash != hash {
			continue
		}
		for _, f := range findings {
			if f.Path == e.Path && f.State != StateUnbacked {
				continue next
			}
		}
		return e.Path
	}
	return ""
}

// Apply executes a plan built from rep, then sets each finding's
// outcome from its action and records the actions in the report. Like
// Sync it writes atomically and durably, and it commits a new
// generation only for entry surgery; a repair that leaves the manifest's
// entries as they were keeps the generation, so a healed replica stays
// byte-identical to its peers. An empty plan touches nothing.
func (s *Store) Apply(rep *Report, p *Plan) error {
	if len(p.Actions) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	s.invalidateExtents()
	s.puts = nil // records may be installed, removed or carried in
	man := p.man
	var dropped []string
	var adopted []Entry
	for i := range p.Actions {
		a := &p.Actions[i]
		var err error
		switch a.Verb {
		case VerbInstall, VerbStore, VerbRestore:
			err = s.writeFileAtomic(a.Path, a.data)
			if a.Path == manifestPath {
				s.man, s.got = nil, false
			}
		case VerbSalvage:
			var n int
			n, err = s.salvageExtent(a.Path, referencedHashes(man))
			a.Note = fmt.Sprintf("%d referenced record(s) recovered to loose objects", n)
		case VerbRemove:
			err = s.remove(a.Path)
		case VerbQuarantine:
			dropped = append(dropped, a.Path)
			if a.dest != "" {
				err = s.quarantine(a.Path, a.dest)
			}
		case VerbAdopt:
			var content []byte
			if content, err = s.read(a.Path); err != nil {
				if s.dead != nil {
					return s.dead
				}
				err = nil // vanished since the scan
				break
			}
			e := Entry{Path: a.Path, Size: int64(len(content)), Hash: sha256.Sum256(content)}
			if _, err = s.ensureObject(e.Hash, content); err == nil {
				adopted = append(adopted, e)
			}
		case VerbRollback:
			if err = s.remove(manifestNextPath); err == nil {
				err = s.syncDir(popperDir)
			}
		case VerbRebuild:
			man, err = s.commitRebuilt(man, p.gen, dropped, adopted, p.puts.live)
			if err == nil {
				a.Note = fmt.Sprintf("generation %d, %d file(s)", man.Generation, man.Len())
				// Post-commit: every record is superseded.
				err = s.dropPutsLocked(p.puts, man.Generation)
			}
		}
		if err != nil {
			return err
		}
		if strings.HasPrefix(a.Path, extentsDir+"/") {
			s.invalidateExtents()
		}
	}
	if man != nil {
		if err := s.gc(man); err != nil {
			return err
		}
	}
	s.invalidateExtents()
	for _, a := range p.Actions {
		for _, i := range a.findings {
			if f := &rep.Findings[i]; a.Verb == VerbQuarantine {
				f.Outcome = Quarantined
			} else {
				f.Outcome, f.Rung = Healed, a.Rung
			}
		}
	}
	rep.Actions = append(rep.Actions, p.Actions...)
	return nil
}

// quarantine moves a file aside durably. Callers hold the lock.
func (s *Store) quarantine(path, dest string) error {
	if err := s.rename(path, dest); err != nil {
		return err
	}
	if err := s.syncDir(parentDir(dest)); err != nil {
		return err
	}
	return s.syncDir(parentDir(path))
}

// commitRebuilt commits the manifest a repair leaves: the surviving
// entries minus the dropped, plus the adopted, plus the live put
// records carried in — each record's bytes become its path's committed
// content — as generation gen. Callers hold the lock.
func (s *Store) commitRebuilt(man *Manifest, gen int, dropped []string, adopted []Entry, puts map[string]putRecord) (*Manifest, error) {
	next := &Manifest{Generation: gen}
	if man != nil {
	keep:
		for _, e := range man.Entries {
			for _, d := range dropped {
				if d == e.Path {
					continue keep
				}
			}
			if _, ok := puts[e.Path]; !ok {
				next.Entries = append(next.Entries, e)
			}
		}
	}
	for _, e := range adopted {
		if _, ok := puts[e.Path]; !ok {
			next.Entries = append(next.Entries, e)
		}
	}
	paths := make([]string, 0, len(puts))
	for path := range puts {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		rec := puts[path]
		if _, err := s.ensureObject(rec.hash, rec.data); err != nil {
			return nil, err
		}
		if err := s.writeFileAtomic(path, rec.data); err != nil {
			return nil, err
		}
		next.Entries = append(next.Entries, Entry{Path: path, Size: int64(len(rec.data)), Hash: rec.hash})
	}
	sortEntries(next)
	if err := s.writeFileAtomic(manifestPath, next.encodeForCommit()); err != nil {
		return nil, err
	}
	s.man, s.got = next, true
	return next, nil
}
