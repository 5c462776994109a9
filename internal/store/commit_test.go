package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// Tests for the commit path's cost and its equivalence to the plain
// definitions: the one-pass manifest encoder against the fmt encoder it
// replaced, the incrementally sealed Merkle sidecar against a fresh
// MerkleForManifest, and a replacing Put whose allocations do not grow
// with the manifest.

// encodeFmt is the manifest encoder the one-pass Encode replaced, kept
// as the reference it must match byte for byte.
func encodeFmt(m *Manifest) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\ngeneration %d\n", manifestHeader, m.Generation)
	for _, e := range m.Entries {
		fmt.Fprintf(&b, "%s %d %s\n", hex.EncodeToString(e.Hash[:]), e.Size, e.Path)
	}
	sum := sha256.Sum256(b.Bytes())
	fmt.Fprintf(&b, "checksum %s\n", hex.EncodeToString(sum[:]))
	return b.Bytes()
}

func TestManifestEncodeMatchesFmtEncoder(t *testing.T) {
	segments := []string{"exp", "results.csv", "with space", "  lead", "trail ", "ünï", "a b c", "x", "sweep", "007"}
	sizes := []int64{0, 1, 9, 10, 4096, 1 << 40, -1, 1<<63 - 1}
	gens := []int{0, 1, 9, 10, 12345, 1<<31 - 1}
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for trial := 0; trial < 300; trial++ {
		files := map[string][]byte{}
		for i := rng.Intn(40); i > 0; i-- {
			parts := make([]string, 1+rng.Intn(4))
			for k := range parts {
				parts[k] = segments[rng.Intn(len(segments))]
			}
			files[strings.Join(parts, "/")] = []byte(strconv.Itoa(rng.Int()))
		}
		m := NewManifest(gens[rng.Intn(len(gens))], files)
		for i := range m.Entries {
			m.Entries[i].Size = sizes[rng.Intn(len(sizes))]
		}
		got, want := m.Encode(), encodeFmt(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: one-pass encoding differs:\n%s\nwant\n%s", trial, got, want)
		}
		parsed, err := ParseManifest(got)
		if err != nil || parsed.Generation != m.Generation || parsed.Len() != m.Len() {
			t.Fatalf("trial %d: encoding does not parse back: %v", trial, err)
		}
		for i, e := range m.Entries {
			if parsed.Entries[i] != e {
				t.Fatalf("trial %d: entry %d round-trips as %+v, want %+v", trial, i, parsed.Entries[i], e)
			}
		}
	}
}

// TestSyncRefusesNewlinePathAndRepoStillOpens: manifest entries are
// newline-framed, so a tracked path with a newline must be refused by
// name before anything is written — committing it would leave a
// manifest no later open can parse. A file with such a name already on
// disk is simply untracked: fsck ignores it and repair never adopts it.
func TestSyncRefusesNewlinePathAndRepoStillOpens(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	bad := "experiments/x/a\nb.csv"
	files := w1()
	files[bad] = []byte("x")
	files["exp/vars.yml"] = []byte("alpha: 9\n")
	if _, err := st.Sync(files); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("sync with a newline path: want an error naming %q, got %v", bad, err)
	}
	if err := st.Put(bad, []byte("x")); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("put of a newline path: want an error naming %q, got %v", bad, err)
	}
	if _, err := fs.Stat(manifestNextPath); err == nil {
		t.Fatal("a refused path must not leave an intent record behind")
	}
	if err := fs.WriteFile(bad, []byte("x")); err != nil {
		t.Fatal(err)
	}
	reopened := New(fs)
	man, err := reopened.Manifest()
	if err != nil || man == nil || man.Generation != 1 {
		t.Fatalf("reopen: committed generation must still load: man %v err %v", man, err)
	}
	mustCleanVerify(t, reopened, "with an untracked newline path on disk")
	if err := fs.WriteFile(manifestPath, []byte("damaged")); err != nil {
		t.Fatal(err)
	}
	if rep := mustRepair(t, New(fs), nil); verbs(rep)[manifestPath] != "rebuilt" {
		t.Fatalf("rebuild by adoption did not run:\n%s", rep.Format())
	}
	man, err = New(fs).Manifest()
	if err != nil {
		t.Fatalf("reopen after rebuild: %v", err)
	}
	if _, ok := man.Lookup(bad); ok {
		t.Fatal("rebuild adopted a path the manifest cannot record")
	}
}

// checkSealMatchesManifest asserts the invariant every commit path
// keeps: the on-disk seal is exactly the fresh tree of the on-disk
// committed manifest.
func checkSealMatchesManifest(t *testing.T, fs VFS, when string) {
	t.Helper()
	raw, err := fs.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%s: read manifest: %v", when, err)
	}
	man, err := ParseManifest(raw)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	seal, err := fs.ReadFile(MerklePath)
	if err != nil {
		t.Fatalf("%s: read seal: %v", when, err)
	}
	if !bytes.Equal(seal, MerkleForManifest(man).Encode()) {
		t.Fatalf("%s: sealed sidecar differs from MerkleForManifest(committed) at generation %d", when, man.Generation)
	}
}

// TestMerkleSealMatchesManifestAfterRandomOps drives seeded random
// sequences of Put, Sync, damage+repair, a quorum install of an earlier
// manifest, InstallImage and reopening through one repository. Whatever
// the store's cached tree was seeded from, every commit must seal the
// same bytes a fresh build over the committed manifest gives, and every
// repair must converge: a fresh verify plans nothing.
func TestMerkleSealMatchesManifestAfterRandomOps(t *testing.T) {
	pool := []string{
		".popper.yml", "exp/run.sh", "exp/vars.yml", "exp/journal.csv", "exp/results.csv",
		"exp/with space.csv", "exp/sweep/000/results.csv", "exp/sweep/001/results.csv",
		"a/b/c.txt", "zz/last.txt",
	}
	seed := chaosSeed(t)
	for run := int64(0); run < 6; run++ {
		rng := rand.New(rand.NewSource(seed*1000 + run))
		content := func() []byte { return []byte(fmt.Sprintf("v%d\n", rng.Intn(6))) }
		fs := NewMemFS(seed + run)
		cfs := &opCounter{VFS: fs}
		st := New(cfs)
		work := map[string][]byte{".popper.yml": []byte("experiments: [exp]\n")}
		mustSync(t, st, work)
		images := []map[string][]byte{}
		for step := 0; step < 80; step++ {
			when := fmt.Sprintf("seed %d run %d step %d", seed, run, step)
			path := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(7); op {
			case 0, 1: // a durable Put, replacing or adding an entry
				data := content()
				if err := st.Put(path, data); err != nil {
					t.Fatalf("%s: put: %v", when, err)
				}
				work[path] = data
			case 2: // a Sync that changes, adds and prunes
				work[path] = content()
				if other := pool[rng.Intn(len(pool))]; other != ".popper.yml" && len(work) > 2 {
					delete(work, other)
				}
				if _, err := st.Sync(work); err != nil {
					t.Fatalf("%s: sync: %v", when, err)
				}
			case 3: // damage, then fsck --repair
				switch rng.Intn(4) {
				case 0:
					_ = fs.Remove(path)
				case 1:
					_ = fs.WriteFile(path, []byte("hand edit\n"))
				case 2:
					_ = fs.WriteFile(manifestPath, []byte("garbage"))
				case 3:
					_ = fs.WriteFile(MerklePath, []byte("garbage"))
				}
				mustRepair(t, st, nil)
				mustConverged(t, st, cfs, when)
				var err error
				if work, err = st.Load(); err != nil {
					t.Fatalf("%s: load: %v", when, err)
				}
			case 4: // a damaged manifest heals to an earlier image's from a quorum
				if len(images) == 0 {
					continue
				}
				_ = fs.WriteFile(manifestPath, []byte("garbage"))
				rep := mustRepair(t, st, imageQuorum(images[rng.Intn(len(images))]))
				if rep.Actions[0].Verb != VerbInstall || rep.Actions[0].Path != manifestPath {
					t.Fatalf("%s: manifest not installed from the quorum:\n%s", when, rep.Format())
				}
				mustConverged(t, st, cfs, when)
				var err error
				if work, err = st.Load(); err != nil {
					t.Fatalf("%s: load: %v", when, err)
				}
			case 5: // snapshot catch-up installs an earlier image
				if len(images) == 0 {
					continue
				}
				if err := st.InstallImage(images[rng.Intn(len(images))]); err != nil {
					t.Fatalf("%s: install image: %v", when, err)
				}
				var err error
				if work, err = st.Load(); err != nil {
					t.Fatalf("%s: load: %v", when, err)
				}
			case 6: // a fresh process opens the repository
				st = New(cfs)
			}
			checkSealMatchesManifest(t, fs, when)
			if rng.Intn(4) == 0 {
				img, err := st.Image()
				if err != nil {
					t.Fatalf("%s: image: %v", when, err)
				}
				images = append(images, img)
			}
		}
	}
}

// imageQuorum attests the store files of one earlier image, and no
// objects.
type imageQuorum map[string][]byte

func (q imageQuorum) ObjectQuorum([sha256.Size]byte) ([]byte, int) { return nil, 0 }

func (q imageQuorum) FileQuorum(path string) ([]byte, int) {
	if data, ok := q[path]; ok {
		return data, 3
	}
	return nil, 0
}

// TestRepairInstallsQuorumManifestOverIntent: with the manifest
// damaged and an intent record left behind, a quorum copy of the
// manifest is installed and the intent still rolled back, in one plan
// that converges.
func TestRepairInstallsQuorumManifestOverIntent(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	cfs := &opCounter{VFS: fs}
	st := New(cfs)
	mustSync(t, st, w1())
	mustSync(t, st, w2())
	img := mustImage(t, st)
	for path, data := range map[string]string{manifestPath: "damaged", manifestNextPath: "torn intent"} {
		if err := fs.WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	st = New(cfs)
	rep := mustRepair(t, st, imageQuorum(img))
	if v := verbs(rep); v[manifestPath] != "installed" || v[manifestNextPath] != "rolled-back" {
		t.Fatalf("want the manifest installed and the intent rolled back:\n%s", rep.Format())
	}
	mustConverged(t, st, cfs, "after install")
	wantSameImage(t, mustImage(t, st), img, "after install")
}

// putFixture returns a store whose committed manifest records n files,
// plus the path of one of them, ready for replacing Puts. The manifest
// and seal are written straight to the filesystem; Put reads nothing
// else.
func putFixture(tb testing.TB, n int) (*Store, string) {
	tb.Helper()
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("experiments/e%02d/sweep/%05d/results.csv", i%50, i)] = []byte(strconv.Itoa(i))
	}
	man := NewManifest(1, files)
	fs := NewMemFS(1)
	for path, data := range map[string][]byte{manifestPath: man.Encode(), MerklePath: MerkleForManifest(man).Encode()} {
		if err := fs.WriteFile(path, data); err != nil {
			tb.Fatal(err)
		}
	}
	return New(fs), man.Entries[n/2].Path
}

// putReplaceContents are the two payloads replacing Puts alternate
// between, so every call commits a new generation.
var putReplaceContents = [2][]byte{[]byte("config,status\n0,ok\n"), []byte("config,status\n0,ok\n1,ok\n")}

// TestPutReplaceAllocsIndependentOfManifestSize pins the cost of a
// replacing Put — the sweep journal's durable commit — to O(1)
// allocations in the manifest size: one copy of the entries, one
// encoding, one tree. At most one extra allocation per extra tree level
// is tolerated between a 100- and a 10,000-entry manifest.
func TestPutReplaceAllocsIndependentOfManifestSize(t *testing.T) {
	allocs := func(n int) float64 {
		st, path := putFixture(t, n)
		i := 0
		return testing.AllocsPerRun(20, func() {
			i++
			if err := st.Put(path, putReplaceContents[i%2]); err != nil {
				t.Fatalf("put: %v", err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	extraLevels := float64(bits.Len(10000-1) - bits.Len(100-1))
	if large-small > extraLevels {
		t.Fatalf("replacing Put allocates %.0f times at 10,000 entries vs %.0f at 100: allocations grow with the manifest", large, small)
	}
}

func BenchmarkStorePutReplace(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			st, path := putFixture(b, n)
			if err := st.Put(path, putReplaceContents[0]); err != nil { // loads the manifest, seeds the tree
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put(path, putReplaceContents[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
