package store

import (
	"strings"
	"sync"
	"testing"

	"popper/internal/cas"
)

// readCounter wraps a VFS and counts the bytes read per path.
type readCounter struct {
	VFS
	mu    sync.Mutex
	reads map[string]int
}

func (c *readCounter) ReadFile(path string) ([]byte, error) {
	data, err := c.VFS.ReadFile(path)
	c.mu.Lock()
	if c.reads == nil {
		c.reads = make(map[string]int)
	}
	c.reads[path] += len(data)
	c.mu.Unlock()
	return data, err
}

// take returns the reads so far and starts counting afresh.
func (c *readCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.reads
	c.reads = nil
	return r
}

// populated builds a store holding two committed generations (their
// objects packed in extents), a live put record and a cache sidecar.
func populated(t *testing.T, v VFS) *Store {
	t.Helper()
	st := New(v)
	mustSync(t, st, w1())
	mustSync(t, st, w2())
	if err := st.Put("exp/journal.csv", []byte(j3+"004,ok\n")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCacheState(cas.EncodeExtent([][]byte{[]byte("meta")})); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreStateDigestReadsOnlyCommittedState(t *testing.T) {
	seed := chaosSeed(t)
	var fss [2]*MemFS
	var digests [2][32]byte
	for i := range fss {
		fss[i] = NewMemFS(seed + int64(i))
		populated(t, fss[i])
	}
	// Rot a tracked file and the extents of store 1: its committed state
	// is unchanged.
	for _, pattern := range []string{"exp/vars.yml", ".popper/extents/*"} {
		if hit := fss[1].Rot(pattern, 1); len(hit) == 0 {
			t.Fatalf("rot %q touched nothing", pattern)
		}
	}
	for i, fs := range fss {
		c := &readCounter{VFS: fs}
		st := New(c)
		d, err := st.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = d
		for path := range c.take() {
			if path != ManifestFile && !isPutRecord(path) {
				t.Errorf("store %d: StateDigest read %s", i, path)
			}
		}
	}
	if digests[0] != digests[1] {
		t.Fatal("stores with the same committed history disagree")
	}
	// Another Put is another committed state.
	st := New(fss[1])
	if err := st.Put("exp/results.csv", []byte("metric,value\nthroughput,900\n")); err != nil {
		t.Fatal(err)
	}
	if d, err := st.StateDigest(); err != nil || d == digests[0] {
		t.Fatalf("a put left the state digest unchanged (err %v)", err)
	}
	// With no manifest there is no committed state: the raw tree names it.
	if err := fss[0].Remove(ManifestFile); err != nil {
		t.Fatal(err)
	}
	st = New(fss[0])
	d, err := st.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := st.TreeHash(); d != want {
		t.Fatal("a store without a manifest is not identified by its tree")
	}
}

func TestPutFrontierCountsIntactRecordsOnly(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w1())
	for _, path := range []string{"exp/journal.csv", "exp/results.csv"} {
		if err := st.Put(path, []byte(path+"\n")); err != nil {
			t.Fatal(err)
		}
	}
	if hit := fs.Rot(putRecordPath(1, 2), 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	got, err := New(fs).PutFrontier()
	if err != nil || got != 1 {
		t.Fatalf("frontier with a rotted newest record = %d (err %v), want 1", got, err)
	}
}

func TestCacheStateUnchangedImageWritesNothing(t *testing.T) {
	mem := NewMemFS(1)
	image := cas.EncodeExtent([][]byte{[]byte("meta"), []byte("chunk")})
	st := New(mem)
	mustSync(t, st, w1())
	if err := st.SaveCacheState(image); err != nil {
		t.Fatal(err)
	}
	// A fresh process loads the sidecar and saves the same image back.
	c := &opCounter{VFS: mem}
	st = New(c)
	if got := st.LoadCacheState(); string(got) != string(image) {
		t.Fatal("sidecar did not load")
	}
	if err := st.SaveCacheState(append([]byte(nil), image...)); err != nil {
		t.Fatal(err)
	}
	if c.mutations != 0 {
		t.Fatalf("saving the unchanged image made %d disk mutation(s)", c.mutations)
	}
	// A changed image is written.
	changed := cas.EncodeExtent([][]byte{[]byte("meta"), []byte("chunk 2")})
	if err := st.SaveCacheState(changed); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 {
		t.Fatalf("a changed image took %d write(s), want 1", c.writes)
	}
	// A repair that removes a damaged sidecar makes the store forget it.
	if err := mem.WriteFile(CacheStatePath, changed[:len(changed)/2]); err != nil {
		t.Fatal(err)
	}
	mustRepair(t, st, nil)
	before := c.writes
	if err := st.SaveCacheState(changed); err != nil {
		t.Fatal(err)
	}
	if c.writes != before+1 {
		t.Fatal("the image was not rewritten after repair removed the sidecar")
	}
	if got, err := mem.ReadFile(CacheStatePath); err != nil || string(got) != string(changed) {
		t.Fatalf("sidecar after save: %q (err %v)", got, err)
	}
}

func TestStoreVerifiedImageShipsCommittedBytes(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := populated(t, fs)
	want, err := st.Image()
	if err != nil {
		t.Fatal(err)
	}
	// Rot a tracked file and add an uncommitted one: the image carries
	// the committed bytes from the object pool and leaves the extra out.
	if hit := fs.Rot("exp/vars.yml", 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	if err := fs.WriteFile("exp/new.txt", []byte("not committed\n")); err != nil {
		t.Fatal(err)
	}
	got, err := st.VerifiedImage()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("verified image holds %d files, want %d", len(got), len(want))
	}
	for path, content := range want {
		if string(got[path]) != string(content) {
			t.Fatalf("verified image: %s = %q, want %q", path, got[path], content)
		}
	}
	// Damage no rung can prove around is refused, by name.
	name := putRecordPath(2, 1)
	if hit := fs.Rot(name, 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	if _, err := st.VerifiedImage(); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("image with a rotted put record: err %v", err)
	}
}

// TestStoreStateDigestNeverEncodesTheManifest: a store names the
// manifest it committed in-process by the digest of the bytes the
// commit wrote, as a reopened store names the bytes it read — neither
// encodes the manifest again, so an audit costs the same allocations
// on either.
func TestStoreStateDigestNeverEncodesTheManifest(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w1())
	mustSync(t, st, w2())
	if st.man == nil || st.man.digest == ([32]byte{}) {
		t.Fatal("the committed manifest carries no digest of the bytes the commit wrote")
	}
	stateAllocs := func(st *Store) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := st.StateDigest(); err != nil {
				t.Fatal(err)
			}
		})
	}
	committed, reopened := stateAllocs(st), stateAllocs(New(fs))
	if committed != reopened || reopened != 1 {
		t.Fatalf("StateDigest allocates %v times after an in-process commit, %v on a reopened store; want 1 on both", committed, reopened)
	}
	want, _ := New(fs).StateDigest()
	if got, _ := st.StateDigest(); got != want {
		t.Fatal("the committing store and a reopened one name different states")
	}
}
