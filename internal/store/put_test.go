package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// Tests for the put-record chain: replay over arbitrary splices, a
// repository a version-1 store left, and a link that rots in the middle
// of a chain.

// putRecordsIn lists the put record files on a VFS that are not free
// slots.
func putRecordsIn(t *testing.T, v VFS) []string {
	t.Helper()
	recs, _ := putFilesIn(t, v)
	return recs
}

// putFilesIn lists the put record files on a VFS: those that are not
// free slots, and the free slots.
func putFilesIn(t *testing.T, v VFS) (recs, free []string) {
	t.Helper()
	paths, err := v.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !isPutRecord(p) {
			continue
		}
		raw, err := v.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) == putFree {
			free = append(free, p)
		} else {
			recs = append(recs, p)
		}
	}
	return recs, free
}

// TestPutChainReplaysRandomSplices drives seeded random edits of two
// paths through Put — insertions, deletions and replacements anywhere,
// returns to the committed content, and commits that end the chains —
// and requires Load, in the writing store and in a freshly opened one,
// to return the last Put of each path after every step.
func TestPutChainReplaysRandomSplices(t *testing.T) {
	seed := chaosSeed(t)
	for run := int64(0); run < 4; run++ {
		rng := rand.New(rand.NewSource(seed*100 + run))
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = "ab,\n01"[rng.Intn(6)]
			}
			return b
		}
		fs := NewMemFS(seed + run)
		st := New(fs)
		work := map[string][]byte{".popper.yml": []byte("experiments: [exp]\n"), "exp/a.csv": randBytes(40)}
		mustSync(t, st, work)
		committed := map[string][]byte{}
		for p, c := range work {
			committed[p] = c
		}
		paths := []string{"exp/a.csv", "exp/b.csv"}
		for step := 0; step < 150; step++ {
			when := fmt.Sprintf("seed %d run %d step %d", seed, run, step)
			path := paths[rng.Intn(len(paths))]
			cur := work[path]
			var next []byte
			switch op := rng.Intn(10); {
			case op < 3: // insert
				at := rng.Intn(len(cur) + 1)
				next = append(append(append([]byte{}, cur[:at]...), randBytes(1+rng.Intn(12))...), cur[at:]...)
			case op < 5: // delete
				at := rng.Intn(len(cur) + 1)
				end := at + rng.Intn(len(cur)-at+1)
				next = append(append([]byte{}, cur[:at]...), cur[end:]...)
			case op < 7: // replace
				at := rng.Intn(len(cur) + 1)
				end := at + rng.Intn(len(cur)-at+1)
				next = append(append(append([]byte{}, cur[:at]...), randBytes(rng.Intn(8))...), cur[end:]...)
			case op < 8: // back to the committed content
				if c, ok := committed[path]; ok {
					next = c
				} else {
					next = randBytes(3)
				}
			case op < 9: // a commit ends every chain
				if _, err := st.Sync(work); err != nil {
					t.Fatalf("%s: sync: %v", when, err)
				}
				committed = map[string][]byte{}
				for p, c := range work {
					committed[p] = c
				}
				continue
			default: // a fresh process
				st = New(fs)
				continue
			}
			if err := st.Put(path, next); err != nil {
				t.Fatalf("%s: put: %v", when, err)
			}
			work[path] = next
			for i, s := range []*Store{st, New(fs)} {
				got, err := s.Load()
				if err != nil {
					t.Fatalf("%s: load %d: %v", when, i, err)
				}
				for _, p := range paths {
					if !bytes.Equal(got[p], work[p]) {
						t.Fatalf("%s: load %d: %s is %q, want the last Put %q", when, i, p, got[p], work[p])
					}
				}
			}
		}
		mustCleanVerify(t, st, fmt.Sprintf("seed %d run %d", seed, run))
	}
}

// TestPutReplayInPlaceMatchesCopyingReplay checks replay's in-place
// splices against a replay that copies every content and keeps it all.
// The seeded records branch — several links on one base, links on
// another path's record, on a committed record, on a later or unknown
// record, and splices out of range — so a base is spliced in place
// only when no later link still reads it. A full record's bytes have
// room after them, as a decoded record's do (its checksum), and replay
// must never write there: a second replay of the same records, as
// repair makes after installing records, must see them unchanged.
func TestPutReplayInPlaceMatchesCopyingReplay(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	paths := []string{"exp/a.csv", "exp/b.csv"}
	for trial := 0; trial < 300; trial++ {
		var recs []putRecord
		content := map[int][]byte{} // seq → replayed content (nil: unresolved or committed)
		resolved := map[int]bool{}
		heads := map[string]int{} // path → newest resolved seq
		for seq := 1; seq <= 40; seq++ {
			name := putRecordPath(1, seq)
			r := putRecord{name: name, seq: seq, path: paths[rng.Intn(len(paths))], sum: sha256.Sum256([]byte(name))}
			switch k := rng.Intn(10); {
			case k == 0 || seq == 1:
				r.kind, r.data = putFull, fmt.Appendf(make([]byte, 0, 64), "full %d\n", seq)
				content[seq], resolved[seq] = r.data, true
			case k == 1:
				r.kind, resolved[seq] = putCommitted, true
			default:
				r.kind = putLink
				base := seq - 1 - rng.Intn(min(seq-1, 3)) // mostly the latest records
				switch rng.Intn(12) {
				case 0:
					base = seq + 1 // a record that comes later
				case 1:
					base = 1000 // no such record
				case 2, 3:
					if h, ok := heads[r.path]; ok {
						base = h
					}
				}
				r.base = sha256.Sum256([]byte(putRecordPath(1, base)))
				var b []byte
				var basePath string
				if base < seq {
					b, basePath = content[base], recs[base-1].path
				}
				r.off = rng.Intn(len(b) + 2)
				r.cut = rng.Intn(4)
				r.data = []byte(fmt.Sprintf("<%d>", seq))
				if resolved[base] && content[base] != nil && basePath == r.path && r.off <= len(b) && r.cut <= len(b)-r.off {
					out := append(append(append([]byte(nil), b[:r.off]...), r.data...), b[r.off+r.cut:]...)
					content[seq], resolved[seq] = out, true
				}
			}
			if resolved[seq] {
				heads[r.path] = seq
			}
			recs = append(recs, r)
		}
		for pass := 1; pass <= 2; pass++ {
			got, _ := replay(recs, nil)
			if len(got) != len(heads) {
				t.Fatalf("seed %d trial %d pass %d: replay has %d heads, want %d", seed, trial, pass, len(got), len(heads))
			}
			for path, seq := range heads {
				h := got[path]
				if h == nil || h.seq != seq || !bytes.Equal(h.data, content[seq]) {
					t.Fatalf("seed %d trial %d pass %d: %s's head is %+v, want record %d holding %q", seed, trial, pass, path, h, seq, content[seq])
				}
			}
		}
	}
}

// TestPutRecordV1RepositoryKeepsWorking: a repository a version-1 store
// left after a warm re-run — the committed journal plus one version-1
// record at rest holding it, written by the version-1 encoder — loads
// and verifies clean, and its clean sync stays clean. A re-run
// supersedes the version-1 record with version-2 records, and the next
// commit folds them.
func TestPutRecordV1RepositoryKeepsWorking(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	gen := mustSync(t, New(fs), w2()).Generation
	legacy := putRecordPath(gen, 3)
	if err := fs.WriteFile(legacy, encodePutRecordV1(gen, 3, "exp/journal.csv", []byte(j3))); err != nil {
		t.Fatal(err)
	}
	cfs := &opCounter{VFS: fs}
	st := New(cfs)
	if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != j3 {
		t.Fatalf("load over a version-1 record: journal %q, err %v", got["exp/journal.csv"], err)
	}
	mustCleanVerify(t, st, "with a version-1 record at rest")
	before := cfs.mutations
	if stats := mustSync(t, st, w2()); !stats.Clean || cfs.mutations != before {
		t.Fatalf("the sync of the committed tree over a version-1 record is %+v after %d mutation(s), want clean", stats, cfs.mutations-before)
	}
	if frontier, err := st.PutFrontier(); err != nil || frontier != 3 {
		t.Fatalf("frontier over a version-1 record = %d (err %v), want 3", frontier, err)
	}

	// The re-run: its first Put writes a full version-2 record and
	// removes the version-1 one.
	for _, j := range []string{j1, j2} {
		if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
			t.Fatal(err)
		}
	}
	recs := putRecordsIn(t, fs)
	if len(recs) != 2 || recs[0] == legacy || recs[1] == legacy {
		t.Fatalf("after the re-run's Puts the records are %v, want two version-2 records and not %s", recs, legacy)
	}
	for _, name := range recs {
		raw, _ := fs.ReadFile(name)
		if !bytes.HasPrefix(raw, []byte(putMagic)) {
			t.Fatalf("%s is not a version-2 record", name)
		}
	}
	w := w2()
	w["exp/journal.csv"] = []byte(j2)
	if stats := mustSync(t, st, w); stats.Clean {
		t.Fatal("the sync of a changed journal committed nothing")
	}
	if recs := putRecordsIn(t, fs); len(recs) != 0 {
		t.Fatalf("records %v survived the fold", recs)
	}
	if got, err := New(fs).Load(); err != nil || string(got["exp/journal.csv"]) != j2 {
		t.Fatalf("after the fold the journal is %q (err %v), want %q", got["exp/journal.csv"], err, j2)
	}
	mustCleanVerify(t, st, "after the fold")
}

// TestRotMiddlePutLinkOnPlainStore: a link in the middle of a chain
// rots. Verify reports it, and the later links that need it; Load
// serves the intact prefix; with no quorum, repair removes the link and
// every record that needs it, and converges.
func TestRotMiddlePutLinkOnPlainStore(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	gen := mustSync(t, st, w1()).Generation
	for _, j := range []string{j1, j2, j3, j3 + "004,ok\n"} {
		if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
			t.Fatal(err)
		}
	}
	middle := putRecordPath(gen, 2)
	if hit := fs.Rot(middle, 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	cfs := &opCounter{VFS: fs}
	st = New(cfs)
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{middle: noteDamagedPut, putRecordPath(gen, 3): noteDanglingPut, putRecordPath(gen, 4): noteDanglingPut}
	for name, note := range want {
		if f := findingAt(rep, name); f == nil || f.State != StateTorn || f.Note != note {
			t.Fatalf("verify does not report %s as torn (%s):\n%s", name, note, rep.Format())
		}
	}
	if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != j1 {
		t.Fatalf("Load over a rotted middle link: journal %q (err %v), want the intact prefix %q", got["exp/journal.csv"], err, j1)
	}
	rep = mustRepair(t, st, nil)
	for name := range want {
		if verbs(rep)[name] != "removed" {
			t.Fatalf("repair did not remove %s:\n%s", name, rep.Format())
		}
	}
	mustConverged(t, st, cfs, "after the repair")
	if recs := putRecordsIn(t, fs); len(recs) != 1 || recs[0] != putRecordPath(gen, 1) {
		t.Fatalf("after the repair the records are %v, want the intact prefix's %s", recs, putRecordPath(gen, 1))
	}
	if got, err := New(fs).Load(); err != nil || string(got["exp/journal.csv"]) != j1 {
		t.Fatalf("after the repair Load's journal is %q (err %v), want %q", got["exp/journal.csv"], err, j1)
	}
}

// TestPutWithNoManifestReadsEachRecordOnce: with no manifest, the
// writing store keeps its record cache between Puts, so 200 Puts read
// each record file at most once in all, not once per later Put. At
// several points the writing store and a freshly opened one must load
// the same tree.
func TestPutWithNoManifestReadsEachRecordOnce(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	c := &opCounter{VFS: fs}
	st := New(c)
	const journalPath = "exp/journal.csv"
	reads := make(map[string]int)
	for i := 1; i <= 200; i++ {
		c.reads = make(map[string]int)
		if err := st.Put(journalPath, benchJournal(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		for path, n := range c.reads {
			reads[path] += n
		}
		c.reads = nil
		if i != 1 && i != 2 && i%50 != 0 && i != 137 {
			continue
		}
		got, err := st.Load()
		if err != nil {
			t.Fatalf("after put %d: load: %v", i, err)
		}
		fresh, err := New(fs).Load()
		if err != nil {
			t.Fatalf("after put %d: load in a fresh store: %v", i, err)
		}
		if !bytes.Equal(got[journalPath], benchJournal(i)) || len(got) != len(fresh) || !bytes.Equal(got[journalPath], fresh[journalPath]) {
			t.Fatalf("after put %d: the writing store loads %d file(s), a fresh one %d; journals equal: %v, the last put's: %v",
				i, len(got), len(fresh), bytes.Equal(got[journalPath], fresh[journalPath]), bytes.Equal(got[journalPath], benchJournal(i)))
		}
	}
	records := 0
	for path, n := range reads {
		if !isPutRecord(path) {
			continue
		}
		records++
		if n > 1 {
			t.Errorf("the puts read %s %d times, want at most once", path, n)
		}
	}
	// The chain's reservations doubled: 1, 1, 2, ..., 128 slots.
	if recs, free := putFilesIn(t, fs); len(recs) != 200 || len(free) != 56 {
		t.Fatalf("200 puts left %d records and %d free slots, want 200 and 56", len(recs), len(free))
	}
	t.Logf("the puts read %d of 200 record files", records)
}

// TestLoadServesPutCache: after a commit and 50 journal Puts, the
// writing store's Load takes the chains from its record cache, so three
// Loads in a row read no record file, and each equals a freshly opened
// store's Load, which reads each record once.
func TestLoadServesPutCache(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	c := &opCounter{VFS: fs}
	st := New(c)
	mustSync(t, st, w2())
	const journalPath = "exp/journal.csv"
	for i := 1; i <= 50; i++ {
		if err := st.Put(journalPath, benchJournal(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	records := putRecordsIn(t, fs)
	if len(records) != 50 {
		t.Fatalf("50 puts left %d records", len(records))
	}
	for i := 1; i <= 3; i++ {
		c.reads = make(map[string]int)
		got, err := st.Load()
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		for path, n := range c.reads {
			if isPutRecord(path) {
				t.Fatalf("load %d on the writing store read %s %d time(s), want no record read", i, path, n)
			}
		}
		c.reads = make(map[string]int)
		fresh, err := New(c).Load()
		if err != nil {
			t.Fatalf("load %d in a fresh store: %v", i, err)
		}
		for _, name := range records {
			if c.reads[name] != 1 {
				t.Fatalf("load %d in a fresh store read %s %d time(s), want once", i, name, c.reads[name])
			}
		}
		c.reads = nil
		if len(got) != len(fresh) || !bytes.Equal(got[journalPath], benchJournal(50)) {
			t.Fatalf("load %d: the writing store loads %d file(s), a fresh one %d; the journal is the last put's: %v",
				i, len(got), len(fresh), bytes.Equal(got[journalPath], benchJournal(50)))
		}
		for path, content := range fresh {
			if !bytes.Equal(got[path], content) {
				t.Fatalf("load %d: %s differs between the writing store and a fresh one", i, path)
			}
		}
	}
}
