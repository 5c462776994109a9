package repl

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// Replica agreement auditing — what `popper fsck` prints for a
// replicated repository. Agreement is about committed state, not about
// how each replica stores it: every live replica's StateDigest (its
// manifest's bytes and its live put records) at its applied index is
// consistent with the primary's history — equal once caught up — and no
// two live replicas disagree about the same log position. Each
// replica's object pool layout (loose or packed, extent boundaries) is
// its own; its own verify pass proves the pool can produce every
// committed content, and finds whatever has rotted in its tree.

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
	Generation int               // committed manifest generation of the store
	State      [sha256.Size]byte // the store's StateDigest
	Err        error             // terminal store failure, if any
}

// AuditReport is the group-wide agreement picture.
type AuditReport struct {
	Quorum   int
	Replicas []ReplicaStatus
	// Lagging lists live replicas whose applied index trails the most
	// advanced live replica (anti-entropy will catch them up).
	Lagging []int
	// Divergent lists live replicas whose committed state disagrees with
	// the reference replica's at the same applied index, or whose log
	// disagrees with it where both overlap — real divergence, which
	// quorum commits should make impossible.
	Divergent []int
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
		fmt.Fprintf(&b, "replica %d: %-9s epoch %d, log [%d..%d], commit %d, applied %d, generation %d, state %x\n",
			s.ID, state, s.Epoch, s.Base, s.LastIndex, s.Commit, s.Applied, s.Generation, s.State[:6])
		if s.Err != nil {
			fmt.Fprintf(&b, "  stopped: %v\n", s.Err)
		}
	}
	for _, id := range a.Lagging {
		fmt.Fprintf(&b, "replica %d lags the quorum frontier (anti-entropy pending)\n", id)
	}
	for _, id := range a.Divergent {
		fmt.Fprintf(&b, "replica %d DIVERGES from the primary history\n", id)
	}
	return b.String()
}

// Audit classifies every replica by its committed state. It takes each
// replica's StateDigest under the group lock, which reads the manifest
// and put records a store has not cached, never a tracked file, object
// or extent. It reads state only — no messages move, so a partitioned
// group can still be audited from the outside.
func (g *Group) Audit() (*AuditReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := &AuditReport{Quorum: g.quorum()}
	// Pass one: snapshot every replica's status. A store read failure on
	// a replica that has not already stopped is an audit error, not a
	// divergence verdict — a zero digest must never enter a comparison.
	for _, r := range g.reps {
		s := ReplicaStatus{
			ID: r.id, Role: r.role.String(), Down: r.down,
			Epoch: r.epoch, Base: r.base, LastIndex: r.lastIndex(),
			Commit: r.commit, Applied: r.applied, Err: r.applyErr,
		}
		if man, err := r.st.Manifest(); err == nil && man != nil {
			s.Generation = man.Generation
		}
		state, err := r.st.StateDigest()
		if err != nil && r.applyErr == nil {
			return nil, fmt.Errorf("repl: audit replica %d: %w", r.id, err)
		}
		s.State = state
		rep.Replicas = append(rep.Replicas, s)
	}
	// The reference replica: the live one with the highest applied
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
	// Pass two: classify each live replica against the reference.
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
			if rep.Replicas[r.id].State != rep.Replicas[ref].State {
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
