package repl

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"popper/internal/fault"
	"popper/internal/store"
)

// chaosSeed mirrors the repo-wide convention: `make split` sweeps the
// seed matrix via CHAOS_SEED, plain `go test` stays deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 42
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer", raw)
	}
	return seed
}

// memGroup builds an N-replica group over deterministic in-memory
// stores.
func memGroup(t *testing.T, n int, seed int64) *Group {
	t.Helper()
	g, err := New(Options{Replicas: n, Seed: seed}, func(id int) store.VFS {
		return store.NewMemFS(seed + int64(id))
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ws(gen int) map[string][]byte {
	return map[string][]byte{
		".popper.yml":  []byte("experiments:\n  - exp\n"),
		"exp/run.sh":   []byte("#!/bin/sh\npopper run exp\n"),
		"exp/vars.yml": []byte(fmt.Sprintf("alpha: %d\n", gen)),
	}
}

// wantIdenticalTrees asserts every live replica's full tree is
// byte-identical to replica `ref`'s.
func wantIdenticalTrees(t *testing.T, g *Group, ref int) {
	t.Helper()
	want, err := g.Store(ref).Image()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.Size(); id++ {
		if id == ref || g.Down(id) {
			continue
		}
		got, err := g.Store(id).Image()
		if err != nil {
			t.Fatalf("replica %d image: %v", id, err)
		}
		if len(got) != len(want) {
			t.Fatalf("replica %d holds %d files, replica %d holds %d", id, len(got), ref, len(want))
		}
		for path, content := range want {
			if !bytes.Equal(got[path], content) {
				t.Fatalf("replica %d diverges from %d at %s:\n got %q\nwant %q", id, ref, path, got[path], content)
			}
		}
	}
}

func TestReplicatedSyncKeepsTreesIdentical(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	for gen := 1; gen <= 3; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatalf("sync %d: %v", gen, err)
		}
	}
	if err := g.Put("exp/journal.csv", []byte("config,ok\n0,true\n")); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, 0)

	// The replicated tree matches a plain single store applying the
	// same operations — replication adds no bytes to the repository.
	ref := store.New(store.NewMemFS(chaosSeed(t)))
	for gen := 1; gen <= 3; gen++ {
		if _, err := ref.Sync(ws(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Put("exp/journal.csv", []byte("config,ok\n0,true\n")); err != nil {
		t.Fatal(err)
	}
	refImg, err := ref.Image()
	if err != nil {
		t.Fatal(err)
	}
	gotImg, err := g.Store(0).Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(refImg) != len(gotImg) {
		t.Fatalf("replicated tree has %d files, serial reference %d", len(gotImg), len(refImg))
	}
	for path, content := range refImg {
		if !bytes.Equal(gotImg[path], content) {
			t.Errorf("replicated tree diverges from serial reference at %s", path)
		}
	}
}

// TestReplicatedSyncDropsLegacySeal: every replica of a group an
// earlier version committed holds a hash-tree seal at .popper/merkle.
// The group audits clean and every replica verifies clean with it in
// place, and the next replicated commit removes it from every replica.
func TestReplicatedSyncDropsLegacySeal(t *testing.T) {
	const legacySeal = ".popper/merkle"
	g, fss := memGroupFS(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	for id, fs := range fss {
		if err := fs.WriteFile(legacySeal, []byte(fmt.Sprintf("seal of replica %d", id))); err != nil {
			t.Fatal(err)
		}
	}
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(aud.Lagging)+len(aud.Divergent) != 0 {
		t.Fatalf("legacy seals split the group: lagging %v, divergent %v", aud.Lagging, aud.Divergent)
	}
	for id := 0; id < g.Size(); id++ {
		rep, err := g.Store(id).Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("replica %d beside a legacy seal:\n%s", id, rep.Format())
		}
	}
	if _, err := g.Sync(ws(2)); err != nil {
		t.Fatal(err)
	}
	for id, fs := range fss {
		if _, err := fs.Stat(legacySeal); err == nil {
			t.Errorf("replica %d kept its legacy seal past the commit", id)
		}
	}
	wantIdenticalTrees(t, g, 0)
}

// TestReplicatedSyncRefusesNewlinePath: a path no manifest can record
// is refused by name before it is proposed, so it never reaches the
// log, no replica goes down applying it, and the group keeps
// committing.
func TestReplicatedSyncRefusesNewlinePath(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	bad := "exp/a\nb.csv"
	files := ws(2)
	files[bad] = []byte("x")
	if _, err := g.Sync(files); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("replicated sync with a newline path: want an error naming %q, got %v", bad, err)
	}
	if err := g.Put(bad, []byte("x")); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("replicated put of a newline path: want an error naming %q, got %v", bad, err)
	}
	for id := 0; id < g.Size(); id++ {
		if g.Down(id) {
			t.Fatalf("replica %d went down over a refused path", id)
		}
	}
	if _, err := g.Sync(ws(2)); err != nil {
		t.Fatalf("sync after a refused path: %v", err)
	}
	wantIdenticalTrees(t, g, 0)
}

func TestPrimaryCrashElectsNewEpoch(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	if got := g.Primary(); got != 0 {
		t.Fatalf("bootstrap primary = %d, want 0", got)
	}
	g.Crash(0)
	g.Tick(3.0)
	p := g.Primary()
	if p <= 0 {
		t.Fatalf("no failover primary elected (got %d)", p)
	}
	if g.Epoch() < 2 {
		t.Fatalf("epoch did not advance on failover: %d", g.Epoch())
	}
	// Read-your-writes across the failover: the committed workspace is
	// served by the new primary, and new writes commit on the quorum.
	files, err := g.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(files["exp/vars.yml"], ws(1)["exp/vars.yml"]) {
		t.Fatalf("failover lost the committed workspace: %q", files["exp/vars.yml"])
	}
	if _, err := g.Sync(ws(2)); err != nil {
		t.Fatalf("sync under failover primary: %v", err)
	}
	// The crashed primary rejoins as a follower and is caught up.
	g.Restart(0)
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, p)
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Converged() {
		t.Fatalf("group not converged after heal:\n%s", aud.Format())
	}
}

// linkPartitionRules isolates one replica: every link to and from it
// drops with a typed partition, occurrence-independent so the schedule
// is deterministic under any call interleaving.
func linkPartitionRules(id int) []fault.Rule {
	return []fault.Rule{
		{Site: fmt.Sprintf("gasnet/link/r%d/*", id), Kind: fault.Partition, Prob: 1},
		{Site: fmt.Sprintf("gasnet/link/*/r%d", id), Kind: fault.Partition, Prob: 1},
	}
}

func TestMinorityPartitionedPrimaryIsFenced(t *testing.T) {
	seed := chaosSeed(t)
	g := memGroup(t, 3, seed)
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	// Cut the primary (replica 0) off from both followers.
	g.SetFaults(fault.NewInjector(seed, linkPartitionRules(0)))

	// Reads are fenced: the cut-off primary cannot confirm leadership.
	if _, err := g.Load(); !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("minority read error = %v, want ErrNoPrimary", err)
	}
	// Writes through the stale primary fail quorum and roll back — and
	// the rollback burns the index: the primary steps down into a fresh
	// epoch, so no proposal can ever reuse the (epoch, index) pair a
	// missed follower might still hold.
	var qerr *QuorumError
	if _, err := g.Sync(ws(2)); !errors.As(err, &qerr) {
		t.Fatalf("minority write error = %v, want *QuorumError", err)
	}
	if qerr.OutcomeUnknown {
		t.Fatalf("quorum-failure rollback misreported as outcome-unknown: %v", qerr)
	}
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if aud.Replicas[0].Role == "primary" {
		t.Fatal("primary kept its role after a failed-quorum rollback (index not burned)")
	}
	if aud.Replicas[0].Epoch < 2 {
		t.Fatalf("failed-quorum rollback did not bump the epoch: %d", aud.Replicas[0].Epoch)
	}
	// The majority side elects a fresh epoch and serves read-your-writes.
	g.Tick(3.0)
	p := g.Primary()
	if p == 0 || p < 0 {
		t.Fatalf("majority did not elect a new primary (got %d)", p)
	}
	if _, err := g.Sync(ws(3)); err != nil {
		t.Fatalf("majority write: %v", err)
	}
	got, err := g.Read("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ws(3)["exp/vars.yml"]) {
		t.Fatalf("read-your-writes violated: %q", got)
	}
	// Heal the split: the deposed primary is fenced by the higher epoch
	// and anti-entropy truncates nothing committed (the failed sync was
	// already rolled back), then streams what it missed.
	g.SetFaults(nil)
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, p)
	aud, err = g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Converged() {
		t.Fatalf("not converged after heal:\n%s", aud.Format())
	}
}

func TestRejoinStreamsMissingRecords(t *testing.T) {
	g := memGroup(t, 5, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	g.Crash(3)
	for gen := 2; gen <= 5; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatalf("sync %d with one replica down: %v", gen, err)
		}
	}
	if err := g.Put("exp/journal.csv", []byte("gen,done\n5,true\n")); err != nil {
		t.Fatal(err)
	}
	g.Restart(3)
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(aud.Lagging) != 1 || aud.Lagging[0] != 3 {
		t.Fatalf("audit should show replica 3 lagging:\n%s", aud.Format())
	}
	// The next heartbeat is anti-entropy: missing generations stream to
	// the rejoined replica.
	g.Tick(1.0)
	wantIdenticalTrees(t, g, 0)
	aud, err = g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Converged() {
		t.Fatalf("not converged after rejoin:\n%s", aud.Format())
	}
}

func TestReopenInstallsSnapshotForStaleReplica(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Replicas: 3, Seed: chaosSeed(t)}
	g, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	// Replica 2 goes down; the quorum moves on for several generations.
	g.Crash(2)
	for gen := 2; gen <= 4; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process reopens the tree: logs are gone, bases differ, so
	// log replay cannot reach replica 2 — a snapshot install must.
	g2, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p := g2.Primary(); p != 0 {
		t.Fatalf("reopen should elect the most advanced replica 0, got %d", p)
	}
	if err := g2.Heal(); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g2, 0)
	aud, err := g2.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Converged() {
		t.Fatalf("reopened group not converged:\n%s", aud.Format())
	}
	// And the healed group keeps serving writes.
	if _, err := g2.Sync(ws(5)); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g2, 0)
}

func TestNoQuorumRefusesWrites(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	g.Crash(1)
	g.Crash(2)
	var qerr *QuorumError
	if _, err := g.Sync(ws(2)); !errors.As(err, &qerr) {
		t.Fatalf("write with majority down = %v, want *QuorumError", err)
	}
	// The failed proposal is rolled back: healing the group back to
	// quorum must converge on generation 1, not a half-written 2.
	g.Restart(1)
	g.Restart(2)
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	got, err := g.Read("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ws(1)["exp/vars.yml"]) {
		t.Fatalf("rolled-back write leaked: %q", got)
	}
	wantIdenticalTrees(t, g, 0)
}

// TestStaleRolledBackRecordCannotWinElection reconstructs the
// committed-data-loss scenario the vote-time digest tiebreak (and
// index burning) guard against: a partitioned follower is left holding
// a rolled-back record at the same (epoch, index) as the record the
// quorum later committed there. Its candidacy must fail — any vote
// quorum intersects the commit quorum, and the intersection rejects the
// mismatched frontier digest — and anti-entropy must replace the ghost
// with the committed history, never the reverse.
func TestStaleRolledBackRecordCannotWinElection(t *testing.T) {
	seed := chaosSeed(t)
	g := memGroup(t, 5, seed)
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	// Replica 1 misses the journal put the quorum commits.
	g.SetFaults(fault.NewInjector(seed, linkPartitionRules(1)))
	committed := []byte("gen,done\n1,true\n")
	if err := g.Put("exp/journal.csv", committed); err != nil {
		t.Fatal(err)
	}
	// Plant the ghost: the state a quorum-failure rollback leaves on a
	// follower it cannot reach — a different record at the exact
	// (epoch, index) of the committed journal put.
	g.mu.Lock()
	ldr, f := g.reps[0], g.reps[1]
	ghost := Record{
		Kind: RecPut, Path: "exp/ghost.csv", Data: []byte("rolled back"),
		Index: f.lastIndex() + 1, Epoch: ldr.recordAt(ldr.lastIndex()).Epoch,
	}
	if ghost.Index != ldr.lastIndex() {
		g.mu.Unlock()
		t.Fatalf("ghost index %d does not collide with the committed record at %d", ghost.Index, ldr.lastIndex())
	}
	ghost.seal()
	f.log = append(f.log, ghost)
	g.mu.Unlock()
	// The primary crashes and the split heals: the ghost holder's
	// election timer fires first (lowest id), so its candidacy is the
	// first the survivors see.
	g.Crash(0)
	g.SetFaults(nil)
	g.Tick(3.0)
	p := g.Primary()
	if p == 1 {
		t.Fatal("the ghost-holding replica won the election")
	}
	if p < 0 {
		t.Fatal("no primary elected after the crash")
	}
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	got, err := g.Read("exp/journal.csv")
	if err != nil {
		t.Fatalf("committed journal lost after failover: %v", err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("committed journal overwritten: %q", got)
	}
	files, err := g.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := files["exp/ghost.csv"]; ok {
		t.Fatal("rolled-back ghost record resurrected into the committed tree")
	}
	wantIdenticalTrees(t, g, p)
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Agreement() {
		t.Fatalf("ghost holder still diverges after heal:\n%s", aud.Format())
	}
}

// TestConfirmWithUncommittedTailDoesNotPanic drives the replication
// slice hazard: a primary whose commit index trails a tail of
// uncommitted records (what a deposed-mid-commit proposal or a failed
// no-op barrier leaves behind) must probe peers whose cursor already
// passed the confirm target, not slice the log backwards.
func TestConfirmWithUncommittedTailDoesNotPanic(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	ldr := g.reps[0]
	orphan := Record{
		Kind: RecPut, Path: "exp/orphan.csv", Data: []byte("inherited"),
		Index: ldr.lastIndex() + 1, Epoch: ldr.epoch,
	}
	orphan.seal()
	ldr.log = append(ldr.log, orphan)
	g.resetCursorsLocked(ldr) // cursors past the tail, commit behind it
	ok := g.confirmLocked(ldr)
	g.mu.Unlock()
	if !ok {
		t.Fatal("confirm with an uncommitted tail did not reach quorum at the commit index")
	}
	// The tail is committed by the next quorum round, and the group
	// converges — the tail was protocol-legal inherited state.
	if _, err := g.Sync(ws(2)); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, 0)
}

// TestElectionBarrierFailureBurnsTheIndex fails a fresh primary's no-op
// barrier deterministically: an After-windowed partition lets the vote
// round through and cuts the links before the barrier append. The
// winner must roll the barrier back AND step down into a fresh epoch —
// never re-proposing at the barrier's (epoch, index) — and the group
// must re-elect and converge once the links return.
func TestElectionBarrierFailureBurnsTheIndex(t *testing.T) {
	seed := chaosSeed(t)
	g := memGroup(t, 3, seed)
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	g.Crash(0)
	// Each directed link delivers exactly one more message: enough for
	// the vote round, gone for the barrier append.
	g.SetFaults(fault.NewInjector(seed, []fault.Rule{
		{Site: "gasnet/link/*", Kind: fault.Partition, After: 1, Prob: 1},
	}))
	g.Tick(3.0)
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if aud.Replicas[1].Role == "primary" {
		t.Fatal("replica 1 kept leadership after its barrier failed quorum")
	}
	if aud.Replicas[1].Epoch < 3 {
		t.Fatalf("failed barrier did not burn its epoch: still %d", aud.Replicas[1].Epoch)
	}
	// Links return, the crashed primary rejoins: a fresh epoch is
	// elected and the repository converges with read-your-writes.
	g.SetFaults(nil)
	g.Restart(0)
	if _, err := g.Sync(ws(2)); err != nil {
		t.Fatalf("write after barrier-failure recovery: %v", err)
	}
	got, err := g.Read("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ws(2)["exp/vars.yml"]) {
		t.Fatalf("read-your-writes violated after recovery: %q", got)
	}
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, g.Primary())
}

func TestMessageEncodingRoundTrip(t *testing.T) {
	rec := Record{Index: 7, Epoch: 3, Kind: RecSync, Files: ws(7)}
	rec.seal()
	put := Record{Index: 8, Epoch: 3, Kind: RecPut, Path: "exp/a.csv", Data: []byte("x,y\n1,2\n")}
	put.seal()
	m := message{
		Kind: msgAppend, From: 2, Epoch: 3,
		PrevIndex: 6, PrevDigest: rec.digest,
		Records: []Record{rec, put}, Commit: 6, TruncateTo: 0,
	}
	raw := encodeMessage(m)
	got, err := decodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.From != m.From || got.Epoch != m.Epoch ||
		got.PrevIndex != m.PrevIndex || got.PrevDigest != m.PrevDigest ||
		len(got.Records) != 2 || got.Commit != m.Commit {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Records[0].Digest() != rec.digest || !bytes.Equal(got.Records[1].Data, put.Data) {
		t.Fatal("record payloads did not survive the round trip")
	}
	// Corruption never decodes.
	raw[len(raw)/2] ^= 0x40
	if _, err := decodeMessage(raw); err == nil {
		t.Fatal("corrupted message decoded cleanly")
	}
}

func TestAuditFormatNamesRoles(t *testing.T) {
	g := memGroup(t, 3, chaosSeed(t))
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	out := aud.Format()
	for _, want := range []string{"quorum 2 of 3", "replica 0: primary", "replica 1: follower"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("audit output missing %q:\n%s", want, out)
		}
	}
}

// TestReplReopenElectsReplicaHoldingPuts: a put record does not move
// the manifest generation, so a replica that missed a committed Put
// reopens at the same generation as the peers that hold it. Reopen
// must elect a replica holding the Put and heal the laggard to it,
// never the reverse.
func TestReplReopenElectsReplicaHoldingPuts(t *testing.T) {
	seed := chaosSeed(t)
	fss := make([]*store.MemFS, 3)
	mkfs := func(id int) store.VFS {
		if fss[id] == nil {
			fss[id] = store.NewMemFS(seed + int64(id))
		}
		return fss[id]
	}
	opts := Options{Replicas: 3, Seed: seed}
	g, err := New(opts, mkfs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	// Replica 0 — the lowest id, which wins generation ties — misses
	// the journal put the quorum commits.
	g.Crash(0)
	g.Tick(3.0)
	journal := []byte("gen,done\n1,true\n")
	if err := g.Put("exp/journal.csv", journal); err != nil {
		t.Fatal(err)
	}
	// A fresh process reopens the repository.
	g2, err := New(opts, mkfs)
	if err != nil {
		t.Fatal(err)
	}
	if p := g2.Primary(); p == 0 {
		t.Fatal("reopen elected the replica that missed the put")
	}
	if err := g2.Heal(); err != nil {
		t.Fatal(err)
	}
	got, err := g2.Read("exp/journal.csv")
	if err != nil || !bytes.Equal(got, journal) {
		t.Fatalf("committed put lost across the reopen: %q (err %v)", got, err)
	}
	wantIdenticalTrees(t, g2, g2.Primary())
}
