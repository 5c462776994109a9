package repl

import "fmt"

// The state machine. Every transition below runs under the group lock
// in a fixed order, so a (seed, fault-schedule) pair replays the exact
// same history — determinism is what lets `make split` assert
// byte-identity rather than eventual similarity.

// maxElectionRounds bounds how many election windows ensureLeader will
// simulate before declaring the group quorumless.
const maxElectionRounds = 8

// stepLocked runs one scheduling pass at the current virtual clock:
// primaries whose heartbeat period elapsed broadcast (which doubles as
// anti-entropy), then followers whose election timer expired stand, in
// id order — the deterministic tiebreak.
func (g *Group) stepLocked() {
	for _, r := range g.reps {
		if r.down || r.role != primary {
			continue
		}
		if g.clock-r.lastBeat >= g.opts.HeartbeatEvery {
			r.lastBeat = g.clock
			g.replicateLocked(r, r.lastIndex())
		}
	}
	for _, r := range g.reps {
		if r.down || r.role == primary {
			continue
		}
		if g.clock-r.lastHeard >= g.opts.ElectionAfter {
			g.electLocked(r)
		}
	}
}

// ensureLeaderLocked returns the highest-epoch live primary, running
// election windows forward if none exists yet.
func (g *Group) ensureLeaderLocked() (*replica, error) {
	for round := 0; ; round++ {
		var best *replica
		for _, r := range g.reps {
			if !r.down && r.role == primary && (best == nil || r.epoch > best.epoch) {
				best = r
			}
		}
		if best != nil {
			return best, nil
		}
		if round >= maxElectionRounds {
			return nil, ErrNoPrimary
		}
		g.clock += g.opts.ElectionAfter
		g.stepLocked()
	}
}

// electLocked stands r for election: bump the epoch, vote for self,
// request votes in id order. A majority makes r primary; it then
// commits a no-op barrier to expose the durable frontier of its log.
// Losing backs off one full election window.
func (g *Group) electLocked(r *replica) {
	r.epoch++
	r.role = candidate
	r.votedFor = r.id
	votes := 1
	req := message{
		Kind: msgVote, From: r.id, Epoch: r.epoch,
		LastIndex: r.lastIndex(), LastEpoch: r.lastEpoch(),
		LastDigest: r.digestAt(r.lastIndex()),
	}
	for _, peer := range g.reps {
		if peer.id == r.id {
			continue
		}
		resp, err := g.rpc(r.id, peer.id, req)
		if err != nil {
			continue
		}
		if resp.Epoch > r.epoch {
			g.stepDownLocked(r, resp.Epoch)
			return
		}
		if resp.Granted {
			votes++
		}
	}
	if votes < g.quorum() {
		r.role = follower
		r.lastHeard = g.clock
		return
	}
	r.role = primary
	r.leader = r.id
	r.lastBeat = g.clock
	g.resetCursorsLocked(r)
	// The no-op barrier: committing it (quorum) commits every earlier-
	// epoch record the new primary inherited, without touching stores.
	_ = g.commitLocked(r, Record{Kind: RecNoop}, "noop")
}

// stepDownLocked demotes a replica that observed a higher epoch.
func (g *Group) stepDownLocked(r *replica, epoch int) {
	if epoch > r.epoch {
		r.epoch = epoch
		r.votedFor = -1
	}
	r.role = follower
	r.lastHeard = g.clock
}

// resetCursorsLocked re-arms a new primary's replication cursors:
// optimistically current, walked back by consistency rejections.
func (g *Group) resetCursorsLocked(ldr *replica) {
	for i := range ldr.next {
		ldr.next[i] = ldr.lastIndex() + 1
		ldr.acked[i] = 0
	}
}

// commitLocked appends one record to the primary's log, replicates it,
// and commits on quorum acknowledgement. On failure the proposal is
// actively rolled back — truncated from the primary's log and from
// every reachable follower that acknowledged it — so a failed
// operation leaves the repository exactly as if never attempted (the
// property the split matrix's unfailed reference run relies on). The
// rollback burns the index: the primary steps down into a fresh epoch,
// so no later proposal can reuse the (epoch, index) pair a follower the
// rollback could not reach may still associate with the dead record.
func (g *Group) commitLocked(ldr *replica, rec Record, op string) error {
	rec.Index = ldr.lastIndex() + 1
	rec.Epoch = ldr.epoch
	rec.seal()
	ldr.log = append(ldr.log, rec)
	count := g.replicateLocked(ldr, rec.Index)
	if ldr.role != primary {
		// Deposed mid-commit by a higher epoch. The record stays in this
		// log and the new primary's anti-entropy decides its fate — it may
		// yet commit, so the outcome is unknown, not rolled back.
		return &QuorumError{Op: op, Need: g.quorum(), Got: count, OutcomeUnknown: true}
	}
	if count < g.quorum() {
		g.rollbackLocked(ldr, rec.Index)
		if ldr.role == primary {
			g.stepDownLocked(ldr, ldr.epoch+1)
		}
		return &QuorumError{Op: op, Need: g.quorum(), Got: count}
	}
	ldr.commit = rec.Index
	g.applyLocked(ldr)
	if ldr.applyErr != nil {
		return ldr.applyErr
	}
	// Second round: push the commit index so acknowledged followers
	// apply immediately — read-your-writes holds across the quorum the
	// moment this returns, not just on the primary.
	g.replicateLocked(ldr, rec.Index)
	return nil
}

// rollbackLocked undoes an uncommitted proposal at index target on the
// primary and every reachable follower that acknowledged it.
func (g *Group) rollbackLocked(ldr *replica, target int) {
	ldr.log = ldr.log[:target-1-ldr.base]
	trunc := message{
		Kind: msgAppend, From: ldr.id, Epoch: ldr.epoch,
		PrevIndex: target - 1, PrevDigest: ldr.digestAt(target - 1),
		Commit: ldr.commit, TruncateTo: target - 1,
	}
	for _, peer := range g.reps {
		if peer.id == ldr.id || ldr.acked[peer.id] < target {
			continue
		}
		if resp, err := g.rpc(ldr.id, peer.id, trunc); err == nil && resp.Epoch > ldr.epoch {
			g.stepDownLocked(ldr, resp.Epoch)
		}
	}
	for i := range ldr.next {
		if ldr.next[i] > target {
			ldr.next[i] = target
		}
		if ldr.acked[i] >= target {
			ldr.acked[i] = target - 1
		}
	}
}

// replicateLocked drives every peer toward holding the primary's log
// through target. Returns how many group members (primary included)
// hold the record at target afterward.
func (g *Group) replicateLocked(ldr *replica, target int) int {
	count := 1
	for _, peer := range g.reps {
		if peer.id == ldr.id {
			continue
		}
		if ldr.role != primary {
			break
		}
		if g.syncPeerLocked(ldr, peer.id, target) {
			count++
		}
	}
	return count
}

// syncPeerLocked is anti-entropy toward one peer: stream records from
// the peer's next cursor, walking the cursor back on consistency
// rejections until the fork point is found and the divergent suffix
// replaced. A peer the log cannot reach (its cursor fell below the
// primary's snapshot base, or it reports divergence below its own
// applied state) gets a full tree image instead.
func (g *Group) syncPeerLocked(ldr *replica, peer, target int) bool {
	next := ldr.next[peer]
	for tries := 0; tries < len(ldr.log)+3; tries++ {
		if ldr.role != primary {
			return false
		}
		if next > ldr.lastIndex()+1 {
			next = ldr.lastIndex() + 1
		}
		if next <= ldr.base {
			if g.installSnapshotLocked(ldr, peer) != nil {
				return false
			}
			next = ldr.next[peer]
			continue
		}
		prev := next - 1
		hi := target
		if prev > hi {
			// The peer's cursor already passed target (confirm rounds
			// replicate toward the commit index, which trails any tail of
			// uncommitted inherited records): probe at prev with an empty
			// batch rather than slicing backwards.
			hi = prev
		}
		m := message{
			Kind: msgAppend, From: ldr.id, Epoch: ldr.epoch,
			PrevIndex: prev, PrevDigest: ldr.digestAt(prev),
			Records: ldr.log[prev-ldr.base : hi-ldr.base],
			Commit:  ldr.commit,
		}
		resp, err := g.rpc(ldr.id, peer, m)
		if err != nil {
			return false
		}
		if resp.Epoch > ldr.epoch {
			g.stepDownLocked(ldr, resp.Epoch)
			return false
		}
		if resp.NeedSnapshot {
			if g.installSnapshotLocked(ldr, peer) != nil {
				return false
			}
			next = ldr.next[peer]
			continue
		}
		if resp.OK {
			if resp.MatchIndex > ldr.lastIndex() {
				// The follower holds state beyond our log — an orphaned
				// tail from a previous life. Regress it to our image.
				if g.installSnapshotLocked(ldr, peer) != nil {
					return false
				}
				next = ldr.next[peer]
				continue
			}
			ldr.next[peer] = resp.MatchIndex + 1
			ldr.acked[peer] = resp.MatchIndex
			if resp.MatchIndex >= target {
				return true
			}
			next = resp.MatchIndex + 1
			continue
		}
		hint := resp.MatchIndex + 1
		if hint >= next {
			hint = next - 1
		}
		next = hint
		ldr.next[peer] = next
	}
	return false
}

// installSnapshotLocked ships the primary's committed tree image (at
// its applied index) to a peer log replay cannot reach. Only verified
// bytes ship (store.VerifiedImage): a primary whose tree holds damage it
// cannot prove its way around refuses, so rot is never copied over a
// peer. The peer then stays lagging until the primary is repaired, and
// the quorum rule decides commits.
func (g *Group) installSnapshotLocked(ldr *replica, peer int) error {
	img, err := ldr.st.VerifiedImage()
	if err != nil {
		return err
	}
	m := message{
		Kind: msgSnapshot, From: ldr.id, Epoch: ldr.epoch,
		Image: img, Base: ldr.applied,
		BaseEpoch:  ldr.epochAt(ldr.applied),
		BaseDigest: ldr.digestAt(ldr.applied),
	}
	resp, err := g.rpc(ldr.id, peer, m)
	if err != nil {
		return err
	}
	if resp.Epoch > ldr.epoch {
		g.stepDownLocked(ldr, resp.Epoch)
		return fmt.Errorf("replica %d is in a later epoch (%d)", peer, resp.Epoch)
	}
	if !resp.OK {
		return fmt.Errorf("replica %d did not install the snapshot", peer)
	}
	ldr.next[peer] = ldr.applied + 1
	ldr.acked[peer] = ldr.applied
	return nil
}

// confirmLocked re-confirms leadership with a quorum round at the
// current commit index. A primary in a minority partition fails this,
// which is what fences its reads.
func (g *Group) confirmLocked(ldr *replica) bool {
	return ldr.role == primary && g.replicateLocked(ldr, ldr.commit) >= g.quorum()
}

// applyLocked rolls a replica's store forward through the commit
// index. A store-level failure (injected disk fault on a replica)
// stops that replica — the replicated analogue of a dead machine.
func (g *Group) applyLocked(r *replica) {
	for r.applied < r.commit {
		rec := r.recordAt(r.applied + 1)
		switch rec.Kind {
		case RecSync:
			stats, err := r.st.Sync(rec.Files)
			if err != nil {
				r.applyErr = err
				r.down = true
				return
			}
			r.lastStats = stats
		case RecPut:
			if err := r.st.Put(rec.Path, rec.Data); err != nil {
				r.applyErr = err
				r.down = true
				return
			}
		}
		r.applied++
	}
}

// handleLocked dispatches one delivered message to a replica's FSM and
// returns its response.
func (g *Group) handleLocked(id int, m message) message {
	r := g.reps[id]
	switch m.Kind {
	case msgAppend:
		return g.onAppendLocked(r, m)
	case msgVote:
		return g.onVoteLocked(r, m)
	case msgSnapshot:
		return g.onSnapshotLocked(r, m)
	}
	return message{Kind: msgAppendResp, From: id, Epoch: r.epoch}
}

// fenceLocked is the shared epoch preamble for primary-originated
// messages: reject lower epochs (the stale primary learns it was
// superseded from the response), adopt higher ones, and record the
// sender as the current primary.
func (g *Group) fenceLocked(r *replica, m message) bool {
	if m.Epoch < r.epoch {
		return false
	}
	if m.Epoch > r.epoch {
		r.epoch = m.Epoch
		r.votedFor = -1
	}
	r.role = follower
	r.leader = m.From
	r.lastHeard = g.clock
	return true
}

// onAppendLocked is the follower's append/heartbeat handler: epoch
// fencing, (index, digest) consistency check, conflict truncation,
// record append, ordered rollback, then commit advancement and apply.
func (g *Group) onAppendLocked(r *replica, m message) message {
	resp := message{Kind: msgAppendResp, From: r.id, Epoch: r.epoch}
	if !g.fenceLocked(r, m) {
		return resp
	}
	resp.Epoch = r.epoch
	switch {
	case m.PrevIndex > r.lastIndex():
		// A gap: we are missing records before prev. Hint our frontier.
		resp.MatchIndex = r.lastIndex()
		return resp
	case m.PrevIndex == r.base:
		if m.PrevDigest != r.baseDigest {
			// Divergence at our snapshot point — log replay cannot fix
			// state already folded into the store.
			resp.NeedSnapshot = true
			return resp
		}
	case m.PrevIndex > r.base:
		if r.recordAt(m.PrevIndex).digest != m.PrevDigest {
			if m.PrevIndex <= r.applied {
				resp.NeedSnapshot = true
				return resp
			}
			// Truncate the conflicting suffix (prev included) and ask
			// the primary to walk back.
			r.log = r.log[:m.PrevIndex-1-r.base]
			resp.MatchIndex = r.lastIndex()
			return resp
		}
	}
	// m.PrevIndex < r.base needs no check: records at or below our base
	// are committed state both sides already agree on.
	for _, rec := range m.Records {
		if rec.Index <= r.base {
			continue
		}
		if rec.Index <= r.lastIndex() {
			if r.recordAt(rec.Index).digest == rec.digest {
				continue
			}
			if rec.Index <= r.applied {
				resp.NeedSnapshot = true
				return resp
			}
			r.log = r.log[:rec.Index-1-r.base]
		}
		r.log = append(r.log, rec)
	}
	if m.TruncateTo > 0 && m.TruncateTo < r.lastIndex() {
		if m.TruncateTo < r.applied {
			resp.NeedSnapshot = true
			return resp
		}
		if m.TruncateTo >= r.base {
			r.log = r.log[:m.TruncateTo-r.base]
		}
	}
	match := m.PrevIndex + len(m.Records)
	if match < r.base {
		match = r.base
	}
	if match > r.lastIndex() {
		match = r.lastIndex()
	}
	resp.OK = true
	resp.MatchIndex = match
	if c := min(m.Commit, match); c > r.commit {
		r.commit = c
	}
	g.applyLocked(r)
	if r.applyErr != nil {
		resp.OK = false
	}
	return resp
}

// onVoteLocked grants a vote to a higher-epoch candidate whose log is
// at least as complete as ours — the rule that guarantees an elected
// primary holds every committed record. Index burning (commitLocked)
// keeps (epoch, index) frontiers unambiguous; the digest tiebreak at an
// exactly equal frontier is defense in depth: if a rolled-back record
// ever does share a frontier with committed history, the stale
// candidate fails to assemble a quorum (every vote quorum intersects
// the commit quorum) instead of overwriting committed data.
func (g *Group) onVoteLocked(r *replica, m message) message {
	resp := message{Kind: msgVoteResp, From: r.id, Epoch: r.epoch}
	if m.Epoch <= r.epoch {
		return resp
	}
	r.epoch = m.Epoch
	r.votedFor = -1
	if r.role != follower {
		r.role = follower
	}
	resp.Epoch = r.epoch
	upToDate := m.LastEpoch > r.lastEpoch() ||
		(m.LastEpoch == r.lastEpoch() && m.LastIndex > r.lastIndex()) ||
		(m.LastEpoch == r.lastEpoch() && m.LastIndex == r.lastIndex() &&
			m.LastDigest == r.digestAt(r.lastIndex()))
	if upToDate && r.votedFor == -1 {
		r.votedFor = m.From
		r.lastHeard = g.clock
		resp.Granted = true
	}
	return resp
}

// onSnapshotLocked installs a full tree image: the store becomes a
// byte-exact copy of the primary's applied state and the log restarts
// from the image's index.
func (g *Group) onSnapshotLocked(r *replica, m message) message {
	resp := message{Kind: msgAppendResp, From: r.id, Epoch: r.epoch}
	if !g.fenceLocked(r, m) {
		return resp
	}
	resp.Epoch = r.epoch
	if err := r.st.InstallImage(m.Image); err != nil {
		r.applyErr = err
		r.down = true
		return resp
	}
	r.log = nil
	r.base = m.Base
	r.baseEpoch = m.BaseEpoch
	r.baseDigest = m.BaseDigest
	r.commit = m.Base
	r.applied = m.Base
	resp.OK = true
	resp.MatchIndex = m.Base
	return resp
}
