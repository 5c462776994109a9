package store

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"popper/internal/fault"
)

// slotPlan settles a crash during a Put into a free slot: the slot
// keeps keep(n) of its n new bytes (-1: its old bytes, the free-slot
// marker). Nothing else may be unsettled.
type slotPlan struct {
	t    *testing.T
	slot string
	keep func(n int) int
}

func (p slotPlan) KeepEntry(path string) bool {
	p.t.Errorf("%s: a namespace change is pending at a slot write", path)
	return true
}

func (p slotPlan) KeepBytes(path string, n int) int {
	if path != p.slot {
		p.t.Errorf("%s: unflushed content beside the slot under test", path)
		return n
	}
	return p.keep(n)
}

// writeLog records the paths written through it.
type writeLog struct {
	VFS
	paths []string
}

func (w *writeLog) WriteFile(path string, data []byte) error {
	w.paths = append(w.paths, path)
	return w.VFS.WriteFile(path, data)
}

// TestPutSlotCrashStatesTornNotRot enumerates every state a crash can
// leave a Put into a free slot in, for each record kind: the slot at its
// old bytes, the record cut at 0, 1, half and length−1 bytes, and the
// record whole but unflushed. Before that Put the test flushes the free
// slot's marker, as the page cache's writeback would, so the old bytes
// are the marker; an unflushed marker is the cut-at-0 state. In every
// state a fresh store's Load is the tree as of the last returned Put
// (the whole record adds the Put in flight, which reached the disk);
// Verify reports a cut record as a torn put record, never as rot of a
// tracked file, and nothing for the old bytes or the whole record; the
// repair converges; and a reopened store's next Put, with no repair
// first, writes no file that held a record.
func TestPutSlotCrashStatesTornNotRot(t *testing.T) {
	seed := chaosSeed(t)
	const journal, results = "exp/journal.csv", "exp/results.csv"
	const j134, j1234 = "config,status\n001,ok\n003,ok\n004,ok\n", "config,status\n001,ok\n002,ok\n003,ok\n004,ok\n"
	kinds := []struct {
		name, path, data string
		kind             byte
	}{
		{"full", results, "metric,value\nthroughput,901\n", putFull},
		{"link", journal, j1234, putLink},
		{"committed", journal, j3, putCommitted},
	}
	states := []struct {
		name string
		keep func(n int) int
		torn bool
	}{
		{"old-bytes", func(int) int { return -1 }, false},
		{"cut-0", func(int) int { return 0 }, true},
		{"cut-1", func(int) int { return 1 }, true},
		{"cut-half", func(n int) int { return n / 2 }, true},
		{"cut-len-1", func(n int) int { return n - 1 }, true},
		{"whole-unflushed", func(n int) int { return n }, false},
	}
	// crashed commits w2, Puts the journal three times — the third Put
	// reserves two slots and leaves one free — then crashes the Put of
	// the kind's record into that slot before its fsync and settles the
	// crash by keep.
	crashed := func(k int, keep func(int) int) (fs *MemFS, slot string, before, after map[string][]byte) {
		fs = NewMemFS(seed)
		st := New(fs)
		mustSync(t, st, w2())
		for _, j := range []string{j1, j13, j134} {
			if err := st.Put(journal, []byte(j)); err != nil {
				t.Fatal(err)
			}
		}
		if len(st.puts.free) != 1 {
			t.Fatalf("the third Put left free slots %v, want one", st.puts.free)
		}
		slot = putRecordPath(st.puts.gen, st.puts.free[0])
		if err := fs.Sync(slot); err != nil {
			t.Fatal(err)
		}
		before, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		after = maps.Clone(before)
		after[kinds[k].path] = []byte(kinds[k].data)
		st.SetFaults(fault.NewInjector(seed, []fault.Rule{{Site: "disk/fsync/" + slot, Kind: fault.Crash, Times: 1, Prob: 1}}))
		if err := st.Put(kinds[k].path, []byte(kinds[k].data)); !fault.IsCrash(err) {
			t.Fatalf("the Put did not crash before its fsync: %v", err)
		}
		if raw, _ := fs.ReadFile(slot); len(raw) < len(putMagic)+1 || raw[len(putMagic)] != kinds[k].kind {
			t.Fatalf("the Put in flight wrote %q into %s, want a %q record", raw, slot, kinds[k].kind)
		}
		fs.CrashWith(slotPlan{t: t, slot: slot, keep: keep})
		return fs, slot, before, after
	}
	for k, kind := range kinds {
		for _, state := range states {
			when := kind.name + "/" + state.name
			// Load, Verify and the repair.
			fs, slot, before, after := crashed(k, state.keep)
			want := before
			if state.name == "whole-unflushed" {
				want = after
			}
			if got, err := New(fs).Load(); err != nil || !maps.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: Load is %q (err %v), want %q", when, got, err, want)
			}
			cfs := &opCounter{VFS: fs}
			st := New(cfs)
			rep, err := st.Verify()
			if err != nil {
				t.Fatalf("%s: verify: %v", when, err)
			}
			var findings []string
			for _, f := range rep.Findings {
				if f.State != StateTorn || f.Path != slot || f.Note != noteDamagedPut {
					t.Fatalf("%s: verify reports %s, want only %s torn:\n%s", when, f, slot, rep.Format())
				}
				findings = append(findings, f.Path)
			}
			if state.torn != (len(findings) == 1) {
				t.Fatalf("%s: verify reports %v, torn slot expected: %v", when, findings, state.torn)
			}
			mustRepair(t, st, nil)
			mustCleanVerify(t, st, when+" after repair")
			mustConverged(t, st, cfs, when+" after repair")
			if got, err := st.Load(); err != nil || !maps.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: after the repair Load is %q (err %v), want %q", when, got, err, want)
			}

			// The reopened store's next Put, with no repair first.
			fs, _, _, _ = crashed(k, state.keep)
			held := putRecordsIn(t, fs)
			w := &writeLog{VFS: fs}
			st = New(w)
			next := want[journal]
			next = append(slices.Clip(next), "005,ok\n"...)
			if err := st.Put(journal, next); err != nil {
				t.Fatalf("%s: the next Put: %v", when, err)
			}
			for _, path := range w.paths {
				if slices.Contains(held, path) {
					t.Fatalf("%s: the next Put wrote %s, which held a record (records %v)", when, path, held)
				}
			}
			want = maps.Clone(want)
			want[journal] = next
			for name, s := range map[string]*Store{"the writing store": st, "a fresh store": New(fs)} {
				if got, err := s.Load(); err != nil || !maps.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("%s: after the next Put %s loads %q (err %v), want %q", when, name, got, err, want)
				}
			}
			cfs = &opCounter{VFS: fs}
			st = New(cfs)
			mustRepair(t, st, nil)
			mustConverged(t, st, cfs, when+" after the next Put and a repair")
		}
	}
	t.Logf("%d crash states per record kind (%d kinds)", len(states), len(kinds))
}

// TestPutFreeSlotToldApartFromEmptiedRecord: a record a returned Put
// wrote and later lost — emptied, or cut to 1 byte or to the free-slot
// marker's length — is a torn put record to Verify, never a free slot,
// and the next Put does not write over it.
func TestPutFreeSlotToldApartFromEmptiedRecord(t *testing.T) {
	for _, cut := range []int{0, 1, len(putFree)} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			fs := NewMemFS(chaosSeed(t))
			st := New(fs)
			mustSync(t, st, w2())
			for _, j := range []string{j1, j13} {
				if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
					t.Fatal(err)
				}
			}
			head := st.puts.live["exp/journal.csv"].name
			raw, err := fs.ReadFile(head)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(head, raw[:cut]); err != nil {
				t.Fatal(err)
			}
			rep, err := New(fs).Verify()
			if err != nil {
				t.Fatal(err)
			}
			if f := findingAt(rep, head); f == nil || f.State != StateTorn || f.Note != noteDamagedPut || len(rep.Findings) != 1 {
				t.Fatalf("the emptied head record is not reported torn:\n%s", rep.Format())
			}
			w := &writeLog{VFS: fs}
			if err := New(w).Put("exp/journal.csv", []byte(j3+"004,ok\n")); err != nil {
				t.Fatal(err)
			}
			if slices.Contains(w.paths, head) {
				t.Fatalf("the next Put wrote over the damaged record %s", head)
			}
		})
	}
}

// TestPutStaleSlotIsDebris: a free slot of an older generation — one a
// crash brought back after the commit that removed it — is debris, like
// a stale record, and the repair removes it.
func TestPutStaleSlotIsDebris(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	gen := mustSync(t, st, w2()).Generation
	stale := putRecordPath(gen-1, 3)
	if err := fs.WriteFile(stale, []byte(putFree)); err != nil {
		t.Fatal(err)
	}
	cfs := &opCounter{VFS: fs}
	st = New(cfs)
	rep := mustRepair(t, st, nil)
	if f := findingAt(rep, stale); f == nil || f.State != StateDebris || len(rep.Findings) != 1 || verbs(rep)[stale] != "removed" {
		t.Fatalf("the stale slot is not removed as debris:\n%s", rep.Format())
	}
	mustConverged(t, st, cfs, "after the stale slot's removal")
}

// TestRotFreeSlotInstalledFromQuorum: a free slot that rots reads as a
// torn put record. With a replica quorum that holds the slot's marker
// the repair installs it, so the replica keeps the slots its peers have
// and its next Put fills that slot in place; with none the repair
// removes it and the next Put reserves its name anew.
func TestRotFreeSlotInstalledFromQuorum(t *testing.T) {
	for _, quorum := range []bool{true, false} {
		t.Run(fmt.Sprintf("quorum=%v", quorum), func(t *testing.T) {
			fs := NewMemFS(chaosSeed(t))
			st := New(fs)
			mustSync(t, st, w2())
			for _, j := range []string{j1, j13, j3 + "004,ok\n"} {
				if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
					t.Fatal(err)
				}
			}
			slot := putRecordPath(st.puts.gen, st.puts.free[0])
			img := mustImage(t, st)
			if hit := fs.Rot(slot, 1); len(hit) != 1 {
				t.Fatalf("rot touched %v", hit)
			}
			var q Quorum
			want := "removed"
			if quorum {
				q, want = imageQuorum(img), "installed"
			}
			cfs := &opCounter{VFS: fs}
			st = New(cfs)
			rep := mustRepair(t, st, q)
			if f := findingAt(rep, slot); f == nil || f.State != StateTorn || len(rep.Findings) != 1 || verbs(rep)[slot] != want {
				t.Fatalf("the rotted free slot is not %s:\n%s", want, rep.Format())
			}
			mustConverged(t, st, cfs, "after the repair")
			if quorum {
				wantSameImage(t, mustImage(t, st), img, "after the install")
			}
			before := cfs.ioCounts
			if err := st.Put("exp/journal.csv", []byte(j3+"004,ok\n005,ok\n")); err != nil {
				t.Fatal(err)
			}
			got := cfs.since(before)
			if head := st.puts.live["exp/journal.csv"].name; head != slot || quorum != (got.dirSyncs == 0) {
				t.Fatalf("the next Put did %+v into %s; want %s, in place: %v", got, head, slot, quorum)
			}
		})
	}
}

// TestPutWritesPastEveryRecordFile: a free slot below another record
// file — here a torn record past it, as a crash inside a later
// reservation can leave — is never written: the next Put reserves past
// the torn file, so its record outranks every record file there. The
// stranded free slot is no finding, and the repair converges.
func TestPutWritesPastEveryRecordFile(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w2())
	for _, j := range []string{j1, j13, j3 + "004,ok\n"} {
		if err := st.Put("exp/journal.csv", []byte(j)); err != nil {
			t.Fatal(err)
		}
	}
	free := st.puts.free[0]
	torn := putRecordPath(st.puts.gen, free+1)
	if err := fs.WriteFile(torn, []byte("popper-put v2\nl")); err != nil {
		t.Fatal(err)
	}
	w := &writeLog{VFS: fs}
	st = New(w)
	next := j3 + "004,ok\n005,ok\n"
	if err := st.Put("exp/journal.csv", []byte(next)); err != nil {
		t.Fatal(err)
	}
	head := st.puts.live["exp/journal.csv"]
	if _, seq, _ := parsePutName(head.name); seq <= free+1 || slices.Contains(w.paths, putRecordPath(st.puts.gen, free)) || slices.Contains(w.paths, torn) {
		t.Fatalf("the Put wrote %v, its record %s; want every write past %s", w.paths, head.name, torn)
	}
	cfs := &opCounter{VFS: fs}
	st = New(cfs)
	rep := mustRepair(t, st, nil)
	if len(rep.Findings) != 1 || findingAt(rep, torn) == nil {
		t.Fatalf("want only %s torn:\n%s", torn, rep.Format())
	}
	mustConverged(t, st, cfs, "after the repair")
	if got, err := st.Load(); err != nil || string(got["exp/journal.csv"]) != next {
		t.Fatalf("Load's journal is %q (err %v), want %q", got["exp/journal.csv"], err, next)
	}
}
