package repl

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"popper/internal/store"
)

// memGroupFS builds an N-replica group and keeps each replica's MemFS
// so tests can rot trees at rest underneath the group.
func memGroupFS(t *testing.T, n int, seed int64) (*Group, []*store.MemFS) {
	t.Helper()
	fss := make([]*store.MemFS, n)
	g, err := New(Options{Replicas: n, Seed: seed}, func(id int) store.VFS {
		fss[id] = store.NewMemFS(seed + int64(id))
		return fss[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, fss
}

func TestObjectQuorumDegradesWhenTheQuorumRots(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := memGroupFS(t, 3, seed)
	// A payload over the 4 KiB packing threshold stays a loose object.
	payload := bytes.Repeat([]byte("config,status\n001,ok\n"), 200)
	files := ws(1)
	files["exp/results.csv"] = payload
	if _, err := g.Sync(files); err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256(payload)

	data, holders := g.ObjectQuorum(hash)
	if holders < g.Quorum() || !bytes.Equal(data, payload) {
		t.Fatalf("healthy group: %d holders, data %q", holders, data)
	}

	// Rot one replica's loose copy: a majority still attests.
	objPath := store.ObjectFile(hash)
	if got := fss[1].Rot(objPath, 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	data, holders = g.ObjectQuorum(hash)
	if holders < g.Quorum() || !bytes.Equal(data, payload) {
		t.Fatalf("one rotted copy: %d holders, data %q", holders, data)
	}

	// Rot a second copy: the quorum itself now holds the rot. The rotted
	// copies fail digest verification, the count falls short, and the
	// caller must drop down the repair chain — no guessed bytes.
	if got := fss[2].Rot(objPath, 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	data, holders = g.ObjectQuorum(hash)
	if data != nil {
		t.Fatalf("quorum-rotted object still attested (%d holders)", holders)
	}
	if holders >= g.Quorum() {
		t.Fatalf("rotted copies counted toward the quorum: %d", holders)
	}
}

func TestFileQuorumRequiresByteIdenticalMajority(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := memGroupFS(t, 3, seed)
	if _, err := g.Sync(ws(1)); err != nil {
		t.Fatal(err)
	}
	want, err := g.Store(0).ReadRaw(store.ManifestFile)
	if err != nil {
		t.Fatal(err)
	}
	data, n := g.FileQuorum(store.ManifestFile)
	if n != 3 || !bytes.Equal(data, want) {
		t.Fatalf("healthy group: %d agree", n)
	}

	// One rotted replica: the other two still form a byte-identical
	// majority serving the pristine image.
	fss[1].Rot(store.ManifestFile, 1)
	data, n = g.FileQuorum(store.ManifestFile)
	if n != 2 || !bytes.Equal(data, want) {
		t.Fatalf("one rotted manifest: %d agree, pristine=%v", n, bytes.Equal(data, want))
	}

	// Two rotted replicas (each differently — per-replica seeds): no
	// variant reaches quorum, so no bytes are vouched for.
	fss[2].Rot(store.ManifestFile, 1)
	if data, n = g.FileQuorum(store.ManifestFile); data != nil {
		t.Fatalf("split-brain file content reached quorum (%d)", n)
	}
}

func TestReseedHealsTreeRotLogReplayCannotSee(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := memGroupFS(t, 3, seed)
	for gen := 1; gen <= 2; gen++ {
		if _, err := g.Sync(ws(gen)); err != nil {
			t.Fatal(err)
		}
	}

	// Rot replica 2's workspace at rest: its log digests still match, so
	// anti-entropy sees a healthy, caught-up follower.
	if got := fss[2].Rot("exp/*", 1); len(got) == 0 {
		t.Fatal("rot touched nothing")
	}
	if err := g.Heal(); err != nil {
		t.Fatal(err)
	}
	rotted, err := g.Store(2).ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := g.Store(0).ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rotted, clean) {
		t.Fatal("rot vanished before the reseed — the scenario no longer exercises it")
	}

	// Reseed force-installs the primary's image and the trees converge.
	if err := g.Reseed(2); err != nil {
		t.Fatal(err)
	}
	wantIdenticalTrees(t, g, 0)

	// Guard rails: the primary cannot be reseeded from itself, and ids
	// must be in range.
	if err := g.Reseed(0); err == nil {
		t.Fatal("reseeding the primary should refuse")
	}
	if err := g.Reseed(99); err == nil {
		t.Fatal("reseeding a phantom replica should refuse")
	}
}
