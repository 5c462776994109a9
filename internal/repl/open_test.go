package repl

import (
	"strings"
	"sync"
	"testing"

	"popper/internal/store"
)

// readLog wraps a VFS and records every path read.
type readLog struct {
	store.VFS
	mu    sync.Mutex
	paths []string
}

func (r *readLog) ReadFile(path string) ([]byte, error) {
	r.mu.Lock()
	r.paths = append(r.paths, path)
	r.mu.Unlock()
	return r.VFS.ReadFile(path)
}

// TestReplOpenReadsOnlyCommittedState: opening a populated group
// identifies each replica by its committed state — the manifest and the
// put records — and reads no tracked file, object or extent.
func TestReplOpenReadsOnlyCommittedState(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := memGroupFS(t, 3, seed)
	for gen := 1; gen <= 2; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Put("exp/journal.csv", []byte("gen,done\n2,true\n")); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveCacheState([]byte("not read at open")); err != nil {
		t.Fatal(err)
	}
	logs := make([]*readLog, len(fss))
	g2, err := New(Options{Replicas: 3, Seed: seed}, func(id int) store.VFS {
		logs[id] = &readLog{VFS: fss[id]}
		return logs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, l := range logs {
		if len(l.paths) == 0 {
			t.Fatalf("replica %d: open read nothing", id)
		}
		for _, path := range l.paths {
			if path != store.ManifestFile && !strings.HasPrefix(path, ".popper/put-") {
				t.Errorf("replica %d: open read %s", id, path)
			}
		}
	}
	// The replicas agree, so the first quorum round installs nothing.
	if _, err := g2.Load(); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g2, 0)
}

// TestReseedRefusesUnverifiedImage: a snapshot ships only bytes the
// primary can prove. With a put record no rung can vouch for, Reseed
// refuses and names it, and the peer's tree is left as it was.
func TestReseedRefusesUnverifiedImage(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := memGroupFS(t, 3, seed)
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	if err := g.Put("exp/journal.csv", []byte("gen,done\n1,true\n")); err != nil {
		t.Fatal(err)
	}
	before, err := g.Store(2).Image()
	if err != nil {
		t.Fatal(err)
	}
	hit := fss[0].Rot(".popper/put-*", 1)
	if len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	err = g.Reseed(2)
	if err == nil || !strings.Contains(err.Error(), hit[0]) {
		t.Fatalf("reseed from a primary with a rotted record: err %v, want one naming %s", err, hit[0])
	}
	after, err := g.Store(2).Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("refused reseed changed replica 2: %d files, was %d", len(after), len(before))
	}
	for path, content := range before {
		if string(after[path]) != string(content) {
			t.Fatalf("refused reseed changed replica 2's %s", path)
		}
	}
}

// TestReplAuditReadsOnlyCommittedState: the agreement audit of a group
// that committed in-process compares each replica's committed state —
// what its store already holds of the manifest and put records — and
// reads no tracked file, object or extent.
func TestReplAuditReadsOnlyCommittedState(t *testing.T) {
	seed := chaosSeed(t)
	fss := make([]*store.MemFS, 3)
	logs := make([]*readLog, 3)
	g, err := New(Options{Replicas: 3, Seed: seed}, func(id int) store.VFS {
		fss[id] = store.NewMemFS(seed + int64(id))
		logs[id] = &readLog{VFS: fss[id]}
		return logs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 2; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Put("exp/journal.csv", []byte("gen,done\n2,true\n")); err != nil {
		t.Fatal(err)
	}
	for _, l := range logs {
		l.mu.Lock()
		l.paths = nil
		l.mu.Unlock()
	}
	aud, err := g.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Converged() {
		t.Fatalf("a healthy group does not agree:\n%s", aud.Format())
	}
	for id, l := range logs {
		for _, path := range l.paths {
			if path != store.ManifestFile && !strings.HasPrefix(path, ".popper/put-") {
				t.Errorf("replica %d: the audit read %s", id, path)
			}
		}
	}
}
