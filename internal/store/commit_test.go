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
// replaced, convergence over random operation sequences, the disk I/O
// of a Put and of the commit that folds it, a replacing Put whose
// allocations do not grow with the manifest, and what a commit does
// with the seal file an earlier version left.

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
		m := newManifest(gens[rng.Intn(len(gens))], files, nil)
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

// TestStoreConvergesAfterRandomOps drives seeded random sequences of
// Put, Sync, damage+repair, a quorum install of an earlier manifest,
// InstallImage and reopening through one repository. Every repair must
// converge — a fresh verify plans nothing — and Load must return what
// was last written, across every step.
func TestStoreConvergesAfterRandomOps(t *testing.T) {
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
				case 3: // an earlier version's seal: no finding
					_ = fs.WriteFile(legacyMerklePath, []byte("garbage"))
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
			// Read-your-writes across Put, Sync, repair and reopen.
			got, err := st.Load()
			if err != nil {
				t.Fatalf("%s: load: %v", when, err)
			}
			wantSameImage(t, got, work, when+": load")
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

// TestPutIOBound pins the disk cost of the durable journal path. A Put
// into a free slot is exactly one write and one file fsync, with no
// directory fsync, no rename and no manifest commit. A Put that finds no
// free slot reserves a batch: its record and the free slots, one write
// each, its record's fsync and one directory fsync. A link's batch is
// its chain's length, a full or committed record's is one. Each Put
// writes at most the bytes it inserts plus a fixed frame (plus the free
// slots' markers): the whole content for the first Put since the
// committed content, the new row for each later one — at the end or in
// the middle — and nothing for a Put of the committed content. A link
// removes nothing; a full or committed record removes the path's older
// records and every free slot. The re-run shape, whose last Put is the
// committed journal, leaves one record at rest, and the Sync after it is
// clean and does no I/O. A Sync of the committed tree over a chain cut
// short puts the committed journal back with one record, in a free slot
// when there is one and never reserving one, and commits nothing. A
// Sync that folds a changed journal is one commit and leaves no record
// and no slot.
func TestPutIOBound(t *testing.T) {
	c := &opCounter{VFS: NewMemFS(chaosSeed(t))}
	st := New(c)
	gen := mustSync(t, st, w2()).Generation
	const journal = "exp/journal.csv"
	frame := putFrame + len(journal)
	// files checks the record files at rest: records that are not free
	// slots, and free slots.
	files := func(when string, records, free int) {
		t.Helper()
		r, f := putFilesIn(t, c)
		if len(r) != records || len(f) != free {
			t.Fatalf("%s: records %v and free slots %v, want %d and %d", when, r, f, records, free)
		}
	}
	// put checks one Put: inserted is what it may write besides the
	// frame; slots is the batch it reserves (0: it writes a free slot);
	// removes the records and slots it supersedes.
	put := func(j string, inserted, slots, removes int) {
		t.Helper()
		before := c.ioCounts
		if err := st.Put(journal, []byte(j)); err != nil {
			t.Fatal(err)
		}
		got := c.since(before)
		writes, dirSyncs, markers := 1, 0, 0
		if slots > 0 {
			writes, dirSyncs, markers = slots, 1, slots-1
		}
		if got.writes != writes || got.fsyncs != 1 || got.dirSyncs != dirSyncs || got.renames != 0 || got.commits != 0 || got.removes != removes {
			t.Fatalf("Put of %q did %+v, want %d write(s), one fsync, %d dir fsync(s), no rename, %d removal(s)", j, got, writes, dirSyncs, removes)
		}
		if got.bytes > frame+inserted+markers*len(putFree) {
			t.Fatalf("Put of %q wrote %d bytes, want at most %d inserted + %d of frame + %d free slot(s)", j, got.bytes, inserted, frame, markers)
		}
	}
	const j134, j1234 = "config,status\n001,ok\n003,ok\n004,ok\n", "config,status\n001,ok\n002,ok\n003,ok\n004,ok\n"

	// The re-run: rows finish out of order, the last Put is the
	// committed journal.
	put(j1, len(j1), 1, 0)
	put(j13, len(j13)-len(j1), 1, 0)
	put(j3, 0, 1, 2)
	files("after the re-run", 1, 0)
	before := c.mutations
	if stats := mustSync(t, st, w2()); !stats.Clean || stats.Generation != gen || c.mutations != before {
		t.Fatalf("a sync of the committed tree with a committed record is %+v after %d mutation(s), want clean at generation %d with none",
			stats, c.mutations-before, gen)
	}
	mustCleanVerify(t, st, "with a committed record at rest")

	// Cut short, then a sync of the committed tree: no slot is free, and
	// the put-back writes a file of its own.
	put(j1, len(j1), 1, 1)
	put(j2, len(j2)-len(j1), 1, 0)
	before2 := c.ioCounts
	stats := mustSync(t, st, w2())
	got := c.since(before2)
	if !stats.Clean || stats.Generation != gen || got.commits != 0 || got.writes != 1 || got.flushes() != 2 || got.removes != 2 {
		t.Fatalf("the sync over a chain cut short did %+v (stats %+v), want the committed journal put back: 1 write, 2 flushes, 2 removals, no commit", got, stats)
	}
	files("after the put-back", 1, 0)
	if files, err := st.Load(); err != nil || string(files[journal]) != j3 {
		t.Fatalf("after the put-back Load's journal is %q (err %v), want the committed %q", files[journal], err, j3)
	}
	if got, want := mustStateDigest(t, st), mustStateDigest(t, New(c)); got != want {
		t.Fatal("after the put-back the writing store and a reopened one name different states")
	}

	// Cut short with a slot free: the put-back writes it in place.
	put(j1, len(j1), 1, 1)
	put(j13, len(j13)-len(j1), 1, 0)
	put(j134, len(j134)-len(j13), 2, 0)
	files("with a slot free", 3, 1)
	before2 = c.ioCounts
	stats = mustSync(t, st, w2())
	got = c.since(before2)
	if !stats.Clean || got.commits != 0 || got.writes != 1 || got.fsyncs != 1 || got.dirSyncs != 0 || got.removes != 3 {
		t.Fatalf("the put-back into a free slot did %+v (stats %+v), want 1 write, 1 fsync, no dir fsync, 3 removals, no commit", got, stats)
	}
	files("after the put-back into a free slot", 1, 0)
	mustCleanVerify(t, st, "after the put-back into a free slot")

	// A fold: full, appending link, middle-inserting link (which reserves
	// a slot it leaves free), then a sync that commits the journal.
	put(j13, len(j13), 1, 1)
	put(j134, len(j134)-len(j13), 1, 0)
	put(j1234, len(j1234)-len(j134), 2, 0)
	files("before the fold", 3, 1)
	w := w2()
	w[journal] = []byte(j1234)
	before3 := c.ioCounts
	stats = mustSync(t, st, w)
	got = c.since(before3)
	// Intent, packed extent and journal: three atomic writes of two
	// flushes each; then the commit's and the removals' directory fsyncs.
	if stats.Clean || stats.Written != 1 || got.commits != 1 || got.writes != 3 || got.flushes() != 8 || got.removes != 4 {
		t.Fatalf("the folding sync did %+v (stats %+v), want one commit, 3 writes, 8 flushes, 4 removals", got, stats)
	}
	files("after the fold", 0, 0)
	if files, err := st.Load(); err != nil || string(files[journal]) != j1234 {
		t.Fatalf("after the fold Load's journal is %q (err %v), want the synced %q", files[journal], err, j1234)
	}
	if again := mustSync(t, st, w); !again.Clean {
		t.Fatalf("a sync after the fold is not clean: %+v", again)
	}

	// A chain of five links doubles its reservations (1, 1, 2, 4 slots);
	// the committed record takes a free slot and removes the chain and
	// the slots left free.
	row := func(n int) string {
		j := "config,status\n"
		for i := 1; i <= n; i++ {
			j += fmt.Sprintf("%03d,ok\n", i)
		}
		return j
	}
	put(row(1), len(row(1)), 1, 0)
	put(row(2), 7, 1, 0)
	put(row(3), 7, 2, 0)
	put(row(5), 14, 0, 0)
	put(row(6), 7, 4, 0)
	files("after five Puts", 5, 3)
	put(j1234, 0, 0, 7)
	files("after the committed record", 1, 0)
	mustCleanVerify(t, st, "after the committed record")
	if got, want := mustStateDigest(t, st), mustStateDigest(t, New(c)); got != want {
		t.Fatal("after the committed record the writing store and a reopened one name different states")
	}
}

func mustStateDigest(t *testing.T, st *Store) [sha256.Size]byte {
	t.Helper()
	d, err := st.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRepairCarriesLivePutRecords: the manifest is damaged while put
// records are live and no quorum holds a copy. The rebuild commits a
// new generation that carries the records in, so Load still returns the
// put bytes — before and after a reopen — and the repair converges.
func TestRepairCarriesLivePutRecords(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	cfs := &opCounter{VFS: fs}
	st := New(cfs)
	mustSync(t, st, w2())
	puts := map[string]string{"exp/journal.csv": j1, "exp/new.csv": "fresh,row\n"}
	for _, path := range []string{"exp/journal.csv", "exp/new.csv"} {
		if err := st.Put(path, []byte(puts[path])); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile(manifestPath, []byte("damaged")); err != nil {
		t.Fatal(err)
	}
	st = New(cfs)
	// Which records are live depends on the committed generation.
	if _, err := st.Load(); err == nil || !strings.Contains(err.Error(), "popper fsck --repair") {
		t.Fatalf("load over a damaged manifest with live records: want the fsck hint, got %v", err)
	}
	if rep := mustRepair(t, st, nil); verbs(rep)[manifestPath] != "rebuilt" {
		t.Fatalf("manifest not rebuilt:\n%s", rep.Format())
	}
	mustConverged(t, st, cfs, "after rebuild")
	for _, s := range []*Store{st, New(cfs)} {
		got, err := s.Load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		for path, want := range w2() {
			if w, ok := puts[path]; ok {
				want = []byte(w)
			}
			if !bytes.Equal(got[path], want) {
				t.Fatalf("%s after rebuild: %q, want %q", path, got[path], want)
			}
		}
		if string(got["exp/new.csv"]) != puts["exp/new.csv"] {
			t.Fatalf("a put of a new path was lost by the rebuild: %q", got["exp/new.csv"])
		}
	}
}

// TestFoldedPutRecordsStayGoneAfterManifestLoss: a fold removes the
// records it superseded durably. Power is lost right after the fold,
// then the manifest is damaged with no quorum to restore it; the
// rebuild, which has no manifest to date records by, must find none
// and keep the folded content. Each seed settles the crash differently.
func TestFoldedPutRecordsStayGoneAfterManifestLoss(t *testing.T) {
	for i := int64(0); i < 16; i++ {
		fs := NewMemFS(chaosSeed(t) + i)
		st := New(fs)
		mustSync(t, st, w1())
		for _, j := range []string{j1, j2} {
			if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
				t.Fatal(err)
			}
		}
		mustSync(t, st, w2()) // folds the records; its journal is j3
		fs.Crash()
		if err := fs.WriteFile(manifestPath, []byte("damaged")); err != nil {
			t.Fatal(err)
		}
		cfs := &opCounter{VFS: fs}
		st = New(cfs)
		mustRepair(t, st, nil)
		mustConverged(t, st, cfs, "after rebuild")
		got, err := st.Load()
		if err != nil {
			t.Fatalf("seed +%d: load: %v", i, err)
		}
		if string(got["exp/journal.csv"]) != j3 {
			t.Fatalf("seed +%d: after the rebuild Load's journal is %q, want the folded %q", i, got["exp/journal.csv"], j3)
		}
	}
}

// TestLegacySealVerifiesCleanAndSyncRemovesIt: a repository an earlier
// version committed holds a hash-tree seal at .popper/merkle. Whatever
// its bytes, the store verifies clean with it in place, a clean sync
// leaves it where it is, and the next commit removes it.
func TestLegacySealVerifiesCleanAndSyncRemovesIt(t *testing.T) {
	for _, seal := range []string{"\x00", "garbage", strings.Repeat("\xff", 4096)} {
		fs := NewMemFS(chaosSeed(t))
		mustSync(t, New(fs), w1())
		if err := fs.WriteFile(legacyMerklePath, []byte(seal)); err != nil {
			t.Fatal(err)
		}
		st := New(fs)
		mustCleanVerify(t, st, "with a legacy seal")
		if stats := mustSync(t, st, w1()); !stats.Clean {
			t.Fatalf("a sync of the committed tree beside a legacy seal is %+v, want clean", stats)
		}
		if _, err := fs.Stat(legacyMerklePath); err != nil {
			t.Fatalf("a clean sync touched the legacy seal: %v", err)
		}
		mustSync(t, st, w2())
		if _, err := fs.Stat(legacyMerklePath); err == nil {
			t.Fatalf("the commit of generation %d left the legacy seal (%d bytes) behind", mustManifest(t, st).Generation, len(seal))
		}
		mustCleanVerify(t, st, "after the commit")
	}
}

// putFixture returns a store whose committed manifest records n files,
// plus the path of one of them, ready for replacing Puts. The manifest
// is written straight to the filesystem; Put reads nothing else.
func putFixture(tb testing.TB, n int) (*Store, string) {
	tb.Helper()
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("experiments/e%02d/sweep/%05d/results.csv", i%50, i)] = []byte(strconv.Itoa(i))
	}
	man := newManifest(1, files, nil)
	fs := NewMemFS(1)
	if err := fs.WriteFile(manifestPath, man.Encode()); err != nil {
		tb.Fatal(err)
	}
	return New(fs), man.Entries[n/2].Path
}

// putReplaceContents are the two payloads replacing Puts alternate
// between, so every call commits a new generation.
var putReplaceContents = [2][]byte{[]byte("config,status\n0,ok\n"), []byte("config,status\n0,ok\n1,ok\n")}

// TestPutReplaceAllocsIndependentOfManifestSize pins the cost of a
// replacing Put — the sweep journal's durable record — to O(1)
// allocations in the manifest size: one record encoding, whatever the
// manifest holds. At most one extra allocation per extra tree level is
// tolerated between a 100- and a 10,000-entry manifest.
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
			if err := st.Put(path, putReplaceContents[0]); err != nil { // loads the manifest
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
