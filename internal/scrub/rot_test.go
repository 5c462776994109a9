package scrub

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"popper/internal/repl"
	"popper/internal/store"
)

// The rot matrix: every artifact class × seeded damage round, injected
// at rest underneath a replicated store, must be detected, healed from
// the highest-priority live source, and leave the primary's tree
// byte-identical to the uncorrupted run. `make rot` sweeps CHAOS_SEED
// over this file under -race.

// testGroup is an N-replica group over deterministic in-memory stores:
// each replica's MemFS for at-rest rot injection, and the countingFS
// its store writes through.
type testGroup struct {
	*repl.Group
	fss []*store.MemFS
	cs  []*countingFS
}

func memGroup(t *testing.T, n int, seed int64) *testGroup {
	t.Helper()
	tg := &testGroup{fss: make([]*store.MemFS, n), cs: make([]*countingFS, n)}
	g, err := repl.New(repl.Options{Replicas: n, Seed: seed}, func(id int) store.VFS {
		tg.fss[id] = store.NewMemFS(seed + int64(id))
		tg.cs[id] = &countingFS{VFS: tg.fss[id]}
		return tg.cs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	tg.Group = g
	return tg
}

// buildGroup replays the canonical scenario through the replication
// log so every replica holds the same committed tree and the same live
// put record.
func buildGroup(t *testing.T, seed int64) *testGroup {
	t.Helper()
	g := memGroup(t, 3, seed)
	for _, w := range []map[string][]byte{ws1(), ws2()} {
		if _, err := g.Sync(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Put("exp/journal.csv", journalPayload); err != nil {
		t.Fatal(err)
	}
	return g
}

// mustGroupConverged proves a group repair converged: on every live
// replica a fresh verify plans nothing and the empty plan touches
// nothing.
func mustGroupConverged(t *testing.T, g *testGroup, when string) {
	t.Helper()
	for id := 0; id < g.Size(); id++ {
		if !g.Down(id) {
			mustConverged(t, g.Store(id), g.cs[id], g.Group, fmt.Sprintf("%s (replica %d)", when, id))
		}
	}
}

// wantConvergedGroup asserts every live replica's tree is
// byte-identical to the reference image.
func wantConvergedGroup(t *testing.T, g *testGroup, ref map[string][]byte, when string) {
	t.Helper()
	for id := 0; id < g.Size(); id++ {
		if g.Down(id) {
			continue
		}
		wantSameImage(t, mustImage(t, g.Store(id)), ref, fmt.Sprintf("%s (replica %d)", when, id))
	}
}

func TestRotMatrixGroupHealsEveryArtifactClass(t *testing.T) {
	seed := chaosSeed(t)
	classes := []struct {
		name    string
		pattern string
	}{
		{"workspace-packed", "exp/vars.yml"},
		{"workspace-loose", "exp/results.csv"},
		{"loose-object", looseObject()},
		{"put-record", ".popper/put-*"},
		{"extent", ".popper/extents/*"},
		{"manifest", store.ManifestFile},
	}
	// Three rot rounds per class: the seeded damage coin walks through
	// single-bit flips, multi-bit scatters and truncations.
	for _, class := range classes {
		for round := 1; round <= 3; round++ {
			t.Run(fmt.Sprintf("%s/round-%d", class.name, round), func(t *testing.T) {
				g := buildGroup(t, seed)
				ref := mustImage(t, g.Store(0))

				hit := g.fss[0].Rot(class.pattern, round)
				if len(hit) == 0 {
					t.Fatalf("rot pattern %q touched nothing", class.pattern)
				}

				sc := New(nil, Options{Repair: true, Group: g.Group})
				rep := mustScrub(t, sc)
				if rep.Count(store.Healed) == 0 {
					t.Fatalf("nothing healed:\n%s", rep.Format())
				}
				if unrepairable(rep) != 0 {
					t.Fatalf("healthy quorum left damage unrepairable:\n%s", rep.Format())
				}
				// A live quorum is the highest-priority rung: every heal must
				// name it, never a lower local rung.
				onlySource(t, rep, store.RungReplica)
				wantConvergedGroup(t, g, ref, "after quorum heal")
				mustGroupConverged(t, g, "after quorum heal")
				if rep2 := mustScrub(t, sc); !rep2.Clean() {
					t.Fatalf("second scrub not clean:\n%s", rep2.Format())
				}
			})
		}
	}
}

// TestRotDetectOnlyBlamesOnlyTheRottedReplica: when the primary's own
// copy of a tracked file rots, a detect-only group pass names the file
// on the primary and nothing on the healthy replicas. The audit
// compares committed state, which rot at rest does not move, so the two
// intact replicas are not called divergent for disagreeing with a
// rotted primary.
func TestRotDetectOnlyBlamesOnlyTheRottedReplica(t *testing.T) {
	seed := chaosSeed(t)
	for round := 1; round <= 3; round++ {
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			g := buildGroup(t, seed)
			if hit := g.fss[0].Rot("exp/vars.yml", round); len(hit) != 1 {
				t.Fatalf("rot touched %v", hit)
			}
			rep := mustScrub(t, New(nil, Options{Group: g.Group}))
			named := false
			for _, f := range rep.Findings {
				switch {
				case f.Replica != 0:
					t.Errorf("healthy replica %d blamed: %s", f.Replica, f)
				case f.Path == "exp/vars.yml":
					named = true
				case f.State == store.StateDivergent && strings.Contains(f.Note, "primary"):
					t.Errorf("the rotted primary is the minority, yet its finding says %q", f.Note)
				}
			}
			if !named {
				t.Fatalf("replica 0's rotted exp/vars.yml not reported:\n%s", rep.Format())
			}
			if len(rep.Actions) != 0 {
				t.Fatalf("detect-only pass acted: %v", rep.Actions)
			}
		})
	}
}

// TestRotMatrixQuorumHoldsTheRot pins the degradation contract: when a
// majority of replicas hold rotted copies, their attestations fail
// digest checks, the quorum rung falls short, and repair drops to the
// next live rung instead of trusting the majority's garbage.
func TestRotMatrixQuorumHoldsTheRot(t *testing.T) {
	seed := chaosSeed(t)
	g := buildGroup(t, seed)
	ref := mustImage(t, g.Store(0))
	objPath := looseObject()

	// The quorum holds the rot: replicas 1 and 2 rot their loose object,
	// replica 0 rots its workspace copy of the same content.
	for _, id := range []int{1, 2} {
		if got := g.fss[id].Rot(objPath, 1); len(got) != 1 {
			t.Fatalf("replica %d rot touched %v", id, got)
		}
	}
	if got := g.fss[0].Rot("exp/results.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}

	sc := New(nil, Options{Repair: true, Group: g.Group})
	rep := mustScrub(t, sc)
	if unrepairable(rep) != 0 {
		t.Fatalf("degraded quorum left damage unrepairable:\n%s", rep.Format())
	}
	// The chain cascades deterministically, replica by replica:
	//   - replica 0's workspace file heals from its own intact loose
	//     object (pool) — the rotted quorum fell short and never
	//     vouched bytes;
	//   - replica 1's rotted loose object cannot reach a quorum either
	//     (only replica 0 attests) and reconstructs from its intact
	//     workspace copy (reseal);
	//   - that heal restores the quorum, so replica 2 heals from the
	//     now-live quorum rung (replica).
	want := map[store.Rung]int{store.RungPool: 1, store.RungReseal: 1, store.RungReplica: 1}
	for rung, n := range want {
		if healedFrom(rep, rung) != n {
			t.Fatalf("expected cascade %v, got %d from %s:\n%s", want, healedFrom(rep, rung), rung, rep.Format())
		}
	}
	if n := rep.Count(store.Healed); n != 3 {
		t.Fatalf("expected 3 heals, got %d:\n%s", n, rep.Format())
	}
	wantConvergedGroup(t, g, ref, "after degraded heal")
	mustGroupConverged(t, g, "after degraded heal")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotMatrixMultiSiteRot rots several artifact classes at once on
// the primary — tracked files and the live put record — and the chain
// still converges byte-exactly in one pass.
func TestRotMatrixMultiSiteRot(t *testing.T) {
	seed := chaosSeed(t)
	g := buildGroup(t, seed)
	ref := mustImage(t, g.Store(0))

	if hit := g.fss[0].Rot("exp/*", 2); len(hit) < 3 {
		t.Fatalf("workspace rot touched only %v", hit)
	}
	if hit := g.fss[0].Rot(".popper/put-*", 2); len(hit) != 1 {
		t.Fatalf("put record rot touched %v", hit)
	}

	sc := New(nil, Options{Repair: true, Group: g.Group})
	rep := mustScrub(t, sc)
	if unrepairable(rep) != 0 || rep.Count(store.Healed) == 0 {
		t.Fatalf("multi-site heal failed:\n%s", rep.Format())
	}
	wantConvergedGroup(t, g, ref, "after multi-site heal")
	mustGroupConverged(t, g, "after multi-site heal")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotExtentWithoutQuorumDegrades pins the documented single-store
// degradation: a rotted extent with no replica group to fetch the
// image from salvages record-by-record into loose objects. The packed
// layout is lost but every tracked byte survives, and the store
// converges.
func TestRotExtentWithoutQuorumDegrades(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	refTracked := trackedView(t, st)
	if hit := fs.Rot(".popper/extents/*", 1); len(hit) == 0 {
		t.Fatal("no extents to rot")
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	mustConverged(t, st, c, nil, "after extent salvage")
	if unrepairable(rep) != 0 {
		t.Fatalf("extent rot with intact workspace should never quarantine:\n%s", rep.Format())
	}
	if got := trackedView(t, st); !sameView(got, refTracked) {
		t.Fatalf("tracked content changed across extent salvage:\n got %v\nwant %v", paths(got), paths(refTracked))
	}
	mustCleanVerify(t, st, "after extent salvage")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotManifestWithoutQuorumRebuilds pins the other documented
// degradation: a rotted manifest with no quorum to restore it is
// rebuilt by adopting the tree — content survives byte-exactly,
// generation history restarts.
func TestRotManifestWithoutQuorumRebuilds(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	refTracked := trackedView(t, st)
	if hit := fs.Rot(store.ManifestFile, 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	mustConverged(t, st, c, nil, "after manifest rebuild")
	if unrepairable(rep) != 0 {
		t.Fatalf("manifest rot quarantined content:\n%s", rep.Format())
	}
	if got := trackedView(t, st); !sameView(got, refTracked) {
		t.Fatalf("tracked content changed across manifest rebuild:\n got %v\nwant %v", paths(got), paths(refTracked))
	}
	mustCleanVerify(t, st, "after manifest rebuild")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// trackedView reads a store's logical workspace: the tracked files
// with the live put records overlaid.
func trackedView(t *testing.T, st *store.Store) map[string][]byte {
	t.Helper()
	files, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return files
}

// TestRotPutRecordWithoutQuorumFallsBack pins the single-store contract
// for a damaged live put record: no rung can prove its bytes, so repair
// removes it and Load falls back to the committed content. (A Put
// removes the record it supersedes, so there is no earlier record to
// fall back to.)
func TestRotPutRecordWithoutQuorumFallsBack(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	committed, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sync(committed); err != nil { // commits journalPayload
		t.Fatal(err)
	}
	newer := append(bytes.Clone(journalPayload), "003,ok\n"...)
	if err := st.Put("exp/journal.csv", newer); err != nil {
		t.Fatal(err)
	}
	var records []string
	all, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		if strings.HasPrefix(p, ".popper/put-") {
			records = append(records, p)
		}
	}
	if len(records) != 1 {
		t.Fatalf("want one live record, have %v", records)
	}
	victim := records[0]
	if got := fs.Rot(victim, 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	rep := mustScrub(t, New(st, Options{Repair: true}))
	removed := false
	for _, a := range rep.Actions {
		removed = removed || a.Path == victim && a.Verb == store.VerbRemove
	}
	if !removed || unrepairable(rep) != 0 {
		t.Fatalf("rotted record %s not removed:\n%s", victim, rep.Format())
	}
	mustConverged(t, st, c, nil, "after record removal")
	if got := trackedView(t, st)["exp/journal.csv"]; !bytes.Equal(got, journalPayload) {
		t.Fatalf("after removing %s, Load's journal is %q, want the committed %q", victim, got, journalPayload)
	}
}

func sameView(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for p, c := range want {
		if !bytes.Equal(got[p], c) {
			return false
		}
	}
	return true
}
