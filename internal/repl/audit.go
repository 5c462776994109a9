package repl

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"popper/internal/store"
)

// Replica agreement auditing — what `popper fsck` prints for a
// replicated repository. Agreement means: every live replica's tree at
// its applied index is consistent with the reference history (equal
// tree hash once caught up), and no two live replicas disagree about
// the same log position. At the most advanced applied index the
// reference tree is the one most live replicas there hold, so one
// replica whose tree rotted at rest — the primary included — is the
// one reported, never the healthy majority.

// ReplicaStatus is one replica's audit line.
type ReplicaStatus struct {
	ID         int
	Role       string
	Down       bool
	Epoch      int
	Base       int
	LastIndex  int
	Commit     int
	Applied    int
	Generation int // committed manifest generation of the store
	TreeHash   [sha256.Size]byte
	Err        error // terminal store failure, if any
}

// AuditReport is the group-wide agreement picture.
type AuditReport struct {
	Quorum   int
	Replicas []ReplicaStatus
	// Lagging lists live replicas whose applied index trails the most
	// advanced live replica (anti-entropy will catch them up).
	Lagging []int
	// Divergent lists live replicas whose tree disagrees with the
	// reference tree at the same applied index — real divergence, which
	// quorum commits should make impossible, or a tree that rotted at
	// rest.
	Divergent []int
	// Reference is the replica the others are classified against: a
	// live replica at the highest applied index holding the tree digest
	// most live replicas there share, the primary's on a tie (-1 when
	// no replica is live).
	Reference int
}

// Against names what a Divergent replica disagrees with: the primary's
// history while the primary is the reference, else the majority.
func (a *AuditReport) Against() string {
	if a.Reference >= 0 && a.Replicas[a.Reference].Role == primary.String() {
		return "the primary history"
	}
	return "the replica majority"
}

// Agreement reports whether every live, caught-up replica agrees.
func (a *AuditReport) Agreement() bool { return len(a.Divergent) == 0 }

// Converged reports full agreement with nobody lagging.
func (a *AuditReport) Converged() bool {
	return a.Agreement() && len(a.Lagging) == 0
}

// Format renders the audit the way fsck prints it.
func (a *AuditReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- replica agreement (quorum %d of %d) --------\n", a.Quorum, len(a.Replicas))
	for _, s := range a.Replicas {
		state := s.Role
		if s.Down {
			state = "down"
		}
		fmt.Fprintf(&b, "replica %d: %-9s epoch %d, log [%d..%d], commit %d, applied %d, generation %d, tree %x\n",
			s.ID, state, s.Epoch, s.Base, s.LastIndex, s.Commit, s.Applied, s.Generation, s.TreeHash[:6])
		if s.Err != nil {
			fmt.Fprintf(&b, "  stopped: %v\n", s.Err)
		}
	}
	for _, id := range a.Lagging {
		fmt.Fprintf(&b, "replica %d lags the quorum frontier (anti-entropy pending)\n", id)
	}
	for _, id := range a.Divergent {
		fmt.Fprintf(&b, "replica %d DIVERGES from %s\n", id, a.Against())
	}
	return b.String()
}

// Audit inspects every replica, reading each one's tree, and
// classifies disagreement. It reads state only — no messages move, so a
// partitioned group can still be audited from the outside.
func (g *Group) Audit() (*AuditReport, error) { return g.AuditVerified(nil) }

// AuditVerified is Audit over tree digests a verify pass already took:
// trees[id], when present, stands in for reading replica id's tree as
// long as that store has made no write since the pass read it (its
// write count is the fence — a Put moves it, though not the
// generation). Any other replica's tree is read as Audit reads it.
func (g *Group) AuditVerified(trees []*store.TreeDigest) (*AuditReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := &AuditReport{Quorum: g.quorum(), Reference: -1}
	// Pass one: snapshot every replica's status. A store read failure on
	// a replica that has not already stopped is an audit error, not a
	// divergence verdict — a zero hash must never enter a comparison.
	hashed := make([]bool, len(g.reps))
	for _, r := range g.reps {
		s := ReplicaStatus{
			ID: r.id, Role: r.role.String(), Down: r.down,
			Epoch: r.epoch, Base: r.base, LastIndex: r.lastIndex(),
			Commit: r.commit, Applied: r.applied, Err: r.applyErr,
		}
		if man, err := r.st.Manifest(); err == nil && man != nil {
			s.Generation = man.Generation
		}
		var hash [sha256.Size]byte
		var err error
		if r.id < len(trees) && trees[r.id] != nil && trees[r.id].Writes == r.st.Writes() {
			hash = trees[r.id].Sum
		} else {
			hash, err = r.st.TreeHash()
		}
		if err != nil {
			if r.applyErr == nil {
				return nil, fmt.Errorf("repl: audit replica %d: %w", r.id, err)
			}
		} else {
			s.TreeHash = hash
			hashed[r.id] = true
		}
		rep.Replicas = append(rep.Replicas, s)
	}
	// The reference position: the live replica with the highest applied
	// index (ties toward the primary, then the lowest id).
	ref := -1
	for _, r := range g.reps {
		if r.down {
			continue
		}
		if ref < 0 || r.applied > g.reps[ref].applied ||
			(r.applied == g.reps[ref].applied && r.role == primary && g.reps[ref].role != primary) {
			ref = r.id
		}
	}
	if ref < 0 {
		return rep, nil
	}
	// The reference tree: the digest most live replicas at that index
	// hold. The position's own replica keeps the reference unless
	// another digest outnumbers its own, so the primary's digest wins
	// a tie.
	top := g.reps[ref].applied
	votes := make(map[[sha256.Size]byte]int, len(g.reps))
	for _, r := range g.reps {
		if !r.down && r.applied == top && hashed[r.id] {
			votes[rep.Replicas[r.id].TreeHash]++
		}
	}
	for _, r := range g.reps {
		if h := rep.Replicas[r.id].TreeHash; !r.down && r.applied == top && hashed[r.id] &&
			votes[h] > votes[rep.Replicas[ref].TreeHash] {
			ref = r.id
		}
	}
	rep.Reference = ref
	// Pass two: classify each live replica against the reference using
	// the hashes computed above.
	refRep := g.reps[ref]
	for _, r := range g.reps {
		if r.down || r.id == ref {
			continue
		}
		switch {
		case r.applied < refRep.applied:
			// Behind: divergence is only provable at a shared position —
			// compare the digest chains where both logs overlap.
			if d, ok := overlapDigest(r, refRep); ok && d {
				rep.Divergent = append(rep.Divergent, r.id)
			} else {
				rep.Lagging = append(rep.Lagging, r.id)
			}
		case r.applied == refRep.applied:
			if rep.Replicas[r.id].TreeHash != rep.Replicas[ref].TreeHash {
				rep.Divergent = append(rep.Divergent, r.id)
			}
		default:
			// Ahead of the reference: an orphaned tail.
			rep.Divergent = append(rep.Divergent, r.id)
		}
	}
	return rep, nil
}

// overlapDigest compares the two replicas' identity digests at the
// highest log position both can witness; reports (diverged, provable).
func overlapDigest(a, b *replica) (bool, bool) {
	hi := a.lastIndex()
	if bHi := b.lastIndex(); bHi < hi {
		hi = bHi
	}
	lo := a.base
	if b.base > lo {
		lo = b.base
	}
	for i := hi; i >= lo; i-- {
		if i < a.base || i < b.base || i > a.lastIndex() || i > b.lastIndex() {
			continue
		}
		return a.digestAt(i) != b.digestAt(i), true
	}
	return false, false
}
