package scrub

import (
	"bytes"
	"fmt"
	"testing"

	"popper/internal/repl"
	"popper/internal/store"
)

// reopen opens a fresh group over a test group's filesystems, the way
// a new process reopens a replicated repository.
func reopen(t *testing.T, g *testGroup, seed int64) *testGroup {
	t.Helper()
	g2, err := repl.New(repl.Options{Replicas: g.Size(), Seed: seed}, func(id int) store.VFS { return g.cs[id] })
	if err != nil {
		t.Fatal(err)
	}
	return &testGroup{Group: g2, fss: g.fss, cs: g.cs}
}

// TestRotReopenLeavesHealthyReplicasIntact: reopening a group whose
// replica 0 holds damage at rest never copies that damage over the
// healthy replicas, and a group repair then heals replica 0 from the
// replica rung.
func TestRotReopenLeavesHealthyReplicasIntact(t *testing.T) {
	seed := chaosSeed(t)
	newer := append(bytes.Clone(journalPayload), "003,ok\n"...)
	cases := []struct {
		name string
		// damage rots replica 0 and returns the journal every replica's
		// Load must return after the reopen (nil: not checked).
		damage func(t *testing.T, g *testGroup) []byte
	}{
		{"tracked-file", func(t *testing.T, g *testGroup) []byte {
			if hit := g.fss[0].Rot("exp/vars.yml", 1); len(hit) != 1 {
				t.Fatalf("rot touched %v", hit)
			}
			return nil
		}},
		// The newest put record rots: the replicas that hold it whole
		// lead, and the acknowledged journal survives everywhere.
		{"newest-put-record", func(t *testing.T, g *testGroup) []byte {
			if err := g.Put("exp/journal.csv", newer); err != nil {
				t.Fatal(err)
			}
			if hit := g.fss[0].Rot(".popper/put-*", 1); len(hit) != 1 {
				t.Fatalf("rot touched %v (want the one live record)", hit)
			}
			return newer
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGroup(t, seed)
			journal := tc.damage(t, g)
			ref := mustImage(t, g.Store(1))
			g2 := reopen(t, g, seed)
			files, err := g2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if journal != nil {
				if got := files["exp/journal.csv"]; !bytes.Equal(got, journal) {
					t.Fatalf("group Load's journal is %q, want the acknowledged %q", got, journal)
				}
				for id := 0; id < g2.Size(); id++ {
					if got := trackedView(t, g2.Store(id))["exp/journal.csv"]; !bytes.Equal(got, journal) {
						t.Fatalf("replica %d Load's journal is %q, want the acknowledged %q", id, got, journal)
					}
				}
			}
			for _, id := range []int{1, 2} {
				wantSameImage(t, mustImage(t, g2.Store(id)), ref, fmt.Sprintf("replica %d after reopen", id))
			}

			rep := mustScrub(t, New(nil, Options{Repair: true, Group: g2.Group}))
			if unrepairable(rep) != 0 {
				t.Fatalf("healthy quorum left damage unrepairable:\n%s", rep.Format())
			}
			if journal == nil {
				onlySource(t, rep, store.RungReplica)
			}
			wantConvergedGroup(t, g2, ref, "after group repair")
			mustGroupConverged(t, g2, "after group repair")
		})
	}
}

// TestRotSnapshotShipsOnlyVerifiedBytes: a replica that missed two
// generations needs a snapshot, and the primary's copy of a file rotted
// at rest meanwhile. The snapshot carries the committed bytes, never
// the rot, and a group repair converges every replica.
func TestRotSnapshotShipsOnlyVerifiedBytes(t *testing.T) {
	seed := chaosSeed(t)
	vars := func(n int) map[string][]byte {
		w := ws1()
		w["exp/vars.yml"] = []byte(fmt.Sprintf("alpha: %d\n", n))
		return w
	}
	g := memGroup(t, 3, seed)
	if _, err := g.Sync(vars(1)); err != nil {
		t.Fatal(err)
	}
	g.Crash(2)
	for n := 2; n <= 3; n++ {
		if _, err := g.Sync(vars(n)); err != nil {
			t.Fatal(err)
		}
	}
	if hit := g.fss[0].Rot("exp/vars.yml", 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	rotted, err := g.fss[0].ReadFile("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	g2 := reopen(t, g, seed)
	if err := g2.Heal(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g2.fss[2].ReadFile("exp/vars.yml"); bytes.Equal(got, rotted) {
		t.Fatalf("replica 2 received the primary's rotted bytes %q", got)
	}
	rep := mustScrub(t, New(nil, Options{Repair: true, Group: g2.Group}))
	if unrepairable(rep) != 0 {
		t.Fatalf("repair left damage:\n%s", rep.Format())
	}
	for id := 0; id < 3; id++ {
		if got, err := g2.fss[id].ReadFile("exp/vars.yml"); err != nil || string(got) != "alpha: 3\n" {
			t.Fatalf("replica %d holds %q (err %v), want %q", id, got, err, "alpha: 3\n")
		}
	}
	mustGroupConverged(t, g2, "after snapshot and repair")
	if aud, err := g2.Audit(); err != nil || !aud.Converged() {
		t.Fatalf("group not converged (err %v):\n%s", err, aud.Format())
	}
}

// TestScrubGroupConcurrentWithPutsAndSyncs runs detect-only group passes
// while a writer puts and syncs through the group. A put moves no
// generation; the audit takes every replica's committed state under the
// group lock the writes hold too, so a pass never compares one replica
// before a write with another after it.
func TestScrubGroupConcurrentWithPutsAndSyncs(t *testing.T) {
	g := buildGroup(t, chaosSeed(t))
	sc := New(nil, Options{Group: g.Group})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if i%4 == 3 {
				w := ws2()
				w["exp/journal.csv"] = journalPayload
				_, err = g.Sync(w)
			} else {
				err = g.Put("exp/journal.csv", append(bytes.Clone(journalPayload), fmt.Sprintf("%03d,ok\n", i)...))
			}
		}
		done <- err
	}()
	for i := 0; i < 30; i++ {
		rep, err := sc.Scrub()
		if err != nil {
			t.Fatalf("scrub during writes: %v", err)
		}
		for _, f := range rep.Findings {
			t.Errorf("phantom finding during concurrent writes: %s", f)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if rep := mustScrub(t, sc); !rep.Clean() {
		t.Fatalf("scrub after the writes:\n%s", rep.Format())
	}
}
