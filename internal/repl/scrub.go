package repl

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"popper/internal/store"
)

// Repair support: the repair chain's highest-priority rung is a replica
// quorum — bytes are trustworthy when a majority of live replicas
// independently serve the same verified content. A Group is the
// store.Quorum a replica's repair plan draws on. Silent rot is each
// replica's own verify pass to find and heal through that chain. What
// remains for the group is a replica whose committed state differs from
// the primary's while log replay finds nothing to do, which a forced
// snapshot install (Reseed) settles.

var _ store.Quorum = (*Group)(nil)

// Quorum returns the group's majority threshold.
func (g *Group) Quorum() int { return g.quorum() }

// ObjectQuorum returns the hash's bytes when at least a quorum of live
// replicas hold a digest-verified copy in their object caches. Rotted
// copies fail verification and simply do not count — when the quorum
// itself holds the rot, the attestation count falls short and the
// repair chain must fall down a rung.
func (g *Group) ObjectQuorum(hash [sha256.Size]byte) ([]byte, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var data []byte
	holders := 0
	for _, r := range g.reps {
		if r.down || r.applyErr != nil {
			continue
		}
		obj, ok := r.st.Object(hash)
		if !ok || sha256.Sum256(obj) != hash {
			continue
		}
		holders++
		if data == nil {
			data = obj
		}
	}
	if holders < g.quorum() {
		return nil, holders
	}
	return data, holders
}

// FileQuorum returns a store file's bytes when at least a quorum of
// live replicas serve identical content for the path — whole-file
// attestation for artifacts with no content hash of their own (extent
// images, the manifest, put records). The count returned is the
// largest agreeing set; nil bytes mean no variant reached quorum.
func (g *Group) FileQuorum(path string) ([]byte, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var variants [][]byte
	counts := make([]int, 0, len(g.reps))
	for _, r := range g.reps {
		if r.down || r.applyErr != nil {
			continue
		}
		content, err := r.st.ReadRaw(path)
		if err != nil {
			continue
		}
		matched := false
		for i, v := range variants {
			if bytes.Equal(v, content) {
				counts[i]++
				matched = true
				break
			}
		}
		if !matched {
			variants = append(variants, content)
			counts = append(counts, 1)
		}
	}
	best := -1
	for i, n := range counts {
		if best < 0 || n > counts[best] {
			best = i
		}
	}
	if best < 0 || counts[best] < g.quorum() {
		if best < 0 {
			return nil, 0
		}
		return nil, counts[best]
	}
	return variants[best], counts[best]
}

// Reseed force-installs the primary's full tree image onto a live
// replica — the repair for a committed state that diverges where log
// replay cannot see it: the replica's log digests still match, so
// Heal's consistency probe passes right over the difference. Like every
// snapshot it ships only a verified image: a primary with findings of
// its own refuses, and the error names them.
func (g *Group) Reseed(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.reps) {
		return fmt.Errorf("repl: reseed: no replica %d", id)
	}
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return err
	}
	if ldr.id == id {
		return fmt.Errorf("repl: reseed %d: replica is the primary", id)
	}
	if g.reps[id].down {
		return fmt.Errorf("repl: reseed %d: replica is down", id)
	}
	if err := g.installSnapshotLocked(ldr, id); err != nil {
		return fmt.Errorf("repl: reseed %d: %w", id, err)
	}
	return nil
}
