package scrub

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"popper/internal/cas"
	"popper/internal/store"
)

// A replica's object pool — which contents sit in loose objects, which
// in extents, and where the extent boundaries fall — is its own. Each
// store's verify pass proves that its pool can produce every committed
// content; a group agrees on committed state alone.

// dropFromPool deletes content's loose object and cuts its record out
// of every extent that holds one: the pool can no longer produce it,
// while the tracked files holding it stay intact.
func dropFromPool(t *testing.T, fs *store.MemFS, content []byte) {
	t.Helper()
	hash := sha256.Sum256(content)
	held := fs.Remove(store.ObjectFile(hash)) == nil
	paths, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, ".popper/extents/") {
			continue
		}
		raw, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := cas.ParseExtent(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var keep [][]byte
		for _, r := range recs {
			if r.Hash != hash {
				keep = append(keep, raw[r.Offset:r.Offset+r.Size])
			}
		}
		if len(keep) == len(recs) {
			continue
		}
		held = true
		if err := fs.WriteFile(path, cas.EncodeExtent(keep)); err != nil {
			t.Fatal(err)
		}
	}
	if !held {
		t.Fatalf("the pool held no copy of %.20q", content)
	}
}

// repack changes only how one pool stores two committed contents: the
// large results file's loose object moves into a new extent, and the
// small run script's record is cut out of its extent and stored loose.
func repack(t *testing.T, fs *store.MemFS) {
	t.Helper()
	results, script := ws2()["exp/results.csv"], ws2()["exp/run.sh"]
	dropFromPool(t, fs, results)
	if err := fs.WriteFile(".popper/extents/repacked.extent", cas.EncodeExtent([][]byte{results})); err != nil {
		t.Fatal(err)
	}
	dropFromPool(t, fs, script)
	if err := fs.WriteFile(store.ObjectFile(sha256.Sum256(script)), script); err != nil {
		t.Fatal(err)
	}
}

// stateAndTree returns a replica store's committed state and raw tree
// digests.
func stateAndTree(t *testing.T, st *store.Store) (state, tree [32]byte) {
	t.Helper()
	state, err := st.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if tree, err = st.TreeHash(); err != nil {
		t.Fatal(err)
	}
	return state, tree
}

// TestScrubHealsPoolLossOnAPlainStore: a plain store whose pool lost
// the only backup of two intact files — a large file's loose object and
// a small one's extent record — reports each, and repair stores them
// back from the workspace copies, so the files survive the workspace
// rotting later.
func TestScrubHealsPoolLossOnAPlainStore(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	ref := trackedView(t, st)
	dropFromPool(t, fs, ws2()["exp/results.csv"])
	dropFromPool(t, fs, ws2()["exp/run.sh"])

	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	lost := map[string]bool{"exp/results.csv": true, "exp/run.sh": true}
	for _, f := range rep.Findings {
		if f.State != store.StateUnbacked || !lost[f.Path] || !f.Repairable {
			t.Errorf("unexpected finding: %s", f)
		}
		delete(lost, f.Path)
	}
	if len(lost) != 0 {
		t.Fatalf("pool loss of %v not reported:\n%s", lost, rep.Format())
	}

	sc := New(st, Options{Repair: true})
	heal := mustScrub(t, sc)
	if heal.Count(store.Healed) != 2 || unrepairable(heal) != 0 {
		t.Fatalf("pool loss not healed:\n%s", heal.Format())
	}
	onlySource(t, heal, store.RungReseal)
	for _, a := range heal.Actions {
		if a.Verb != store.VerbStore {
			t.Errorf("pool heal took %s", a)
		}
	}
	mustConverged(t, st, c, nil, "after pool heal")

	// The pool backs the files again: rot in the workspace heals from it.
	if hit := fs.Rot("exp/results.csv", 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	onlySource(t, mustScrub(t, sc), store.RungPool)
	if got := trackedView(t, st); !sameView(got, ref) {
		t.Fatal("tracked content changed across the pool heal")
	}
}

// TestScrubPoolIgnoresTempExtents: an intact temp extent that a
// crashed write left behind is debris, not pool. A content only it holds
// is unbacked, and one repair pass stores it back before removing the
// temp file.
func TestScrubPoolIgnoresTempExtents(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	results := ws2()["exp/results.csv"]
	dropFromPool(t, fs, results)
	if err := fs.WriteFile(".popper/extents/gen-9.extent.ptmp", cas.EncodeExtent([][]byte{results})); err != nil {
		t.Fatal(err)
	}
	rep := mustScrub(t, New(st, Options{Repair: true}))
	if rep.Count(store.Healed) != 2 || unrepairable(rep) != 0 {
		t.Fatalf("want the unbacked content stored and the temp extent removed:\n%s", rep.Format())
	}
	mustConverged(t, st, c, nil, "after the temp extent's removal")
}

// TestScrubGroupPoolLossIsTheReplicasOwn: the same pool loss on a
// follower is that follower's finding — not a divergent tree — and a
// repair pass stores the contents back from the replica quorum without
// reseeding anything: the follower keeps its own layout.
func TestScrubGroupPoolLossIsTheReplicasOwn(t *testing.T) {
	g := buildGroup(t, chaosSeed(t))
	dropFromPool(t, g.fss[1], ws2()["exp/results.csv"])
	dropFromPool(t, g.fss[1], ws2()["exp/run.sh"])

	detect := mustScrub(t, New(nil, Options{Group: g.Group}))
	if len(detect.Findings) != 2 {
		t.Fatalf("want replica 1's two pool findings:\n%s", detect.Format())
	}
	for _, f := range detect.Findings {
		if f.Replica != 1 || f.State != store.StateUnbacked {
			t.Errorf("unexpected finding: %s", f)
		}
	}

	heal := mustScrub(t, New(nil, Options{Repair: true, Group: g.Group}))
	if heal.Count(store.Healed) != 2 || unrepairable(heal) != 0 {
		t.Fatalf("pool loss not healed:\n%s", heal.Format())
	}
	onlySource(t, heal, store.RungReplica)
	for _, a := range heal.Actions {
		if a.Verb != store.VerbStore || a.Replica != 1 {
			t.Errorf("pool heal took %s", a)
		}
	}
	mustGroupConverged(t, g, "after pool heal")
	state0, tree0 := stateAndTree(t, g.Store(0))
	state1, tree1 := stateAndTree(t, g.Store(1))
	if state1 != state0 {
		t.Fatal("the healed follower's committed state differs from the primary's")
	}
	if tree1 == tree0 {
		t.Fatal("the follower's tree equals the primary's: it was reseeded, not healed in place")
	}
}

// TestRotMatrixRepackedPoolAgrees: one replica — the primary or a
// follower — stores the same committed contents in another layout. A
// detect-only pass is clean, a repair pass plans nothing, and the
// replicas' committed states agree while their raw trees differ.
func TestRotMatrixRepackedPoolAgrees(t *testing.T) {
	seed := chaosSeed(t)
	for _, id := range []int{0, 1} {
		t.Run(fmt.Sprintf("replica-%d", id), func(t *testing.T) {
			g := buildGroup(t, seed)
			repack(t, g.fss[id])
			if rep := mustScrub(t, New(nil, Options{Group: g.Group})); !rep.Clean() {
				t.Fatalf("a repacked pool was reported:\n%s", rep.Format())
			}
			if rep := mustScrub(t, New(nil, Options{Repair: true, Group: g.Group})); !rep.Clean() || len(rep.Actions) != 0 {
				t.Fatalf("a repair pass over a repacked pool acted:\n%s", rep.Format())
			}
			mustGroupConverged(t, g, "repacked")
			state, tree := stateAndTree(t, g.Store(id))
			for other := 0; other < g.Size(); other++ {
				if other == id {
					continue
				}
				s, tr := stateAndTree(t, g.Store(other))
				if s != state {
					t.Errorf("replica %d's committed state differs from repacked replica %d's", other, id)
				}
				if tr == tree {
					t.Errorf("replica %d's tree equals repacked replica %d's: the repack changed nothing", other, id)
				}
			}
		})
	}
}
