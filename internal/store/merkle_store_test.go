package store

import (
	"bytes"
	"strings"
	"testing"

	"popper/internal/cas"
	"popper/internal/fault"
)

// mustImage snapshots the store's full tree (tracked + metadata).
func mustImage(t *testing.T, st *Store) map[string][]byte {
	t.Helper()
	img, err := st.Image()
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	return img
}

func wantSameImage(t *testing.T, got, want map[string][]byte, when string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: tree holds %d files, want %d", when, len(got), len(want))
	}
	for path, content := range want {
		if !bytes.Equal(got[path], content) {
			t.Fatalf("%s: %s differs:\n got %q\nwant %q", when, path, got[path], content)
		}
	}
}

func TestCommitSealsMerkleSidecar(t *testing.T) {
	fs := NewMemFS(chaosSeed(t))
	st := New(fs)
	mustSync(t, st, w1())
	raw, err := fs.ReadFile(MerklePath)
	if err != nil {
		t.Fatalf("no merkle seal after sync: %v", err)
	}
	m, err := cas.ParseMerkle(raw)
	if err != nil {
		t.Fatalf("seal does not parse: %v", err)
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != man.Generation {
		t.Fatalf("seal generation %d, manifest %d", m.Gen, man.Generation)
	}
	if m.Root() != MerkleForManifest(man).Root() {
		t.Fatal("sealed root does not match the manifest")
	}
	// Every commit reseals: the root must move with the tree.
	mustSync(t, st, w2())
	sealed2, err := fs.ReadFile(MerklePath)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cas.ParseMerkle(sealed2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Root() == m.Root() {
		t.Fatal("second generation sealed the same root")
	}
	mustCleanVerify(t, st, "after sealed syncs")

	// The seal is deterministic store metadata: a second store applying
	// the same syncs produces a byte-identical sidecar.
	fs2 := NewMemFS(chaosSeed(t) + 99)
	st2 := New(fs2)
	mustSync(t, st2, w1())
	mustSync(t, st2, w2())
	raw1, _ := fs.ReadFile(MerklePath)
	raw2, err := fs2.ReadFile(MerklePath)
	if err != nil || !bytes.Equal(raw1, raw2) {
		t.Fatalf("merkle seal is not a pure function of the manifest (err %v)", err)
	}
}

func TestFsckFlagsAndRepairsMerkleStates(t *testing.T) {
	seed := chaosSeed(t)

	damage := map[string]func(t *testing.T, fs *MemFS, st *Store){
		"rotted": func(t *testing.T, fs *MemFS, st *Store) {
			if got := fs.Rot(MerklePath, 1); len(got) != 1 {
				t.Fatalf("rot touched %v", got)
			}
		},
		"missing": func(t *testing.T, fs *MemFS, st *Store) {
			if err := fs.Remove(MerklePath); err != nil {
				t.Fatal(err)
			}
		},
		"stale": func(t *testing.T, fs *MemFS, st *Store) {
			old, err := fs.ReadFile(MerklePath)
			if err != nil {
				t.Fatal(err)
			}
			mustSync(t, st, w2())
			if err := fs.WriteFile(MerklePath, old); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS(seed)
			st := New(fs)
			mustSync(t, st, w1())
			hurt(t, fs, st)
			genBefore, err := st.Generation()
			if err != nil {
				t.Fatal(err)
			}
			ref := mustImage(t, st)

			rep, err := st.Verify()
			if err != nil {
				t.Fatal(err)
			}
			f := findingAt(rep, MerklePath)
			if f == nil || f.State != StateSeal {
				t.Fatalf("verify missed the %s seal:\n%s", name, rep.Format())
			}
			if !f.Repairable {
				t.Fatalf("merkle finding not repairable: %s", f.Note)
			}
			if rep = mustRepair(t, st, nil); verbs(rep)[MerklePath] != "resealed" {
				t.Fatalf("seal not resealed:\n%s", rep.Format())
			}
			mustCleanVerify(t, st, "after reseal")
			genAfter, err := st.Generation()
			if err != nil {
				t.Fatal(err)
			}
			if genAfter != genBefore {
				t.Fatalf("resealing moved the generation %d -> %d", genBefore, genAfter)
			}
			// Resealing restores the exact sidecar: everything but the
			// damaged seal was already identical, so the whole tree must be.
			got := mustImage(t, st)
			man, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			ref[MerklePath] = MerkleForManifest(man).Encode()
			wantSameImage(t, got, ref, "after reseal")
		})
	}
}

// TestRepairTwiceIsNoOp pins repair idempotency: the second of two
// back-to-back fsck+repair cycles must not act, move the generation, or
// touch a byte of the tree.
func TestRepairTwiceIsNoOp(t *testing.T) {
	seed := chaosSeed(t)
	fs := NewMemFS(seed)
	st := New(fs)
	mustSync(t, st, w1())
	mustSync(t, st, w2())

	// Damage spanning the repair verbs: a rotted tracked file (restore),
	// a rotted seal (reseal), and in-flight debris (remove).
	fs.Rot("exp/vars.yml", 1)
	fs.Rot(MerklePath, 1)
	if err := fs.WriteFile(".popper/objects/zz.ptmp", []byte("junk")); err != nil {
		t.Fatal(err)
	}

	rep := mustRepair(t, st, nil)
	if rep.Clean() {
		t.Fatal("damage went undetected")
	}
	if len(rep.Actions) == 0 {
		t.Fatal("first repair took no action")
	}
	mustCleanVerify(t, st, "after first repair")
	gen1, err := st.Generation()
	if err != nil {
		t.Fatal(err)
	}
	img1 := mustImage(t, st)

	if rep2 := mustRepair(t, st, nil); len(rep2.Actions) != 0 {
		t.Fatalf("second repair acted: %v", rep2.Actions)
	}
	gen2, err := st.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen1 {
		t.Fatalf("second repair moved the generation %d -> %d", gen1, gen2)
	}
	wantSameImage(t, mustImage(t, st), img1, "after second repair")
}

func TestMemFSRotIsDeterministicAndScoped(t *testing.T) {
	build := func() *MemFS {
		fs := NewMemFS(7)
		st := New(fs)
		mustSync(t, st, w1())
		return fs
	}
	a, b := build(), build()
	hitA := a.Rot("exp/*", 1)
	hitB := b.Rot("exp/*", 1)
	if len(hitA) == 0 {
		t.Fatal("rot touched nothing")
	}
	if strings.Join(hitA, ",") != strings.Join(hitB, ",") {
		t.Fatalf("rot is not deterministic: %v vs %v", hitA, hitB)
	}
	for _, p := range hitA {
		if !strings.HasPrefix(p, "exp/") {
			t.Fatalf("rot escaped its glob: %s", p)
		}
		ra, _ := a.ReadFile(p)
		rb, _ := b.ReadFile(p)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("rotted %s differs across identical runs", p)
		}
	}
	// The damage survives a crash: rot hits the durable view too.
	a.Crash()
	for _, p := range hitA {
		ra, _ := a.ReadFile(p)
		rb, _ := b.ReadFile(p)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("crash settled rotted %s differently", p)
		}
	}
}

// TestCorruptDiskFaultIsSilent pins the tentpole's read-side contract:
// a corrupt-disk rule serves rotted bytes without an error — the Load
// succeeds, the store stays alive, and only a verifier notices.
func TestCorruptDiskFaultIsSilent(t *testing.T) {
	seed := chaosSeed(t)
	fs := NewMemFS(seed)
	st := New(fs)
	mustSync(t, st, w1())
	clean, err := st.ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}

	st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/read/exp/vars.yml", Kind: fault.CorruptDisk, Times: 1, Prob: 1,
	}}))
	rotted, err := st.ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatalf("corrupt-disk surfaced an error: %v", err)
	}
	if bytes.Equal(rotted, clean) {
		t.Fatal("corrupt-disk fault served pristine bytes")
	}
	// The fault windowed out: the next read is clean again (the rot was
	// in the read path, not at rest).
	again, err := st.ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, clean) {
		t.Fatal("one-shot read rot persisted at rest")
	}
	// Injected rot is deterministic in (seed, site, occurrence).
	fs2 := NewMemFS(seed)
	st2 := New(fs2)
	mustSync(t, st2, w1())
	st2.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/read/exp/vars.yml", Kind: fault.CorruptDisk, Times: 1, Prob: 1,
	}}))
	rotted2, err := st2.ReadRaw("exp/vars.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rotted, rotted2) {
		t.Fatal("read rot is not deterministic across identical runs")
	}
}

// TestAtRestRotDetectedAndHealed is the store-level slice of the rot
// matrix: at-rest rot on a tracked file is invisible to reads, caught
// by fsck against the manifest, healed from the object cache, and the
// healed tree is byte-identical to the pre-rot one.
func TestAtRestRotDetectedAndHealed(t *testing.T) {
	seed := chaosSeed(t)
	fs := NewMemFS(seed)
	st := New(fs)
	mustSync(t, st, w1())
	mustSync(t, st, w2())
	ref := mustImage(t, st)
	genBefore, _ := st.Generation()

	if got := fs.Rot("exp/results.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if _, err := st.ReadRaw("exp/results.csv"); err != nil {
		t.Fatalf("silent rot was not silent: %v", err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	hit := findingAt(rep, "exp/results.csv")
	if hit == nil {
		t.Fatalf("verify missed the rot:\n%s", rep.Format())
	}
	if !hit.Repairable {
		t.Fatal("rot with an intact object cache should be restorable")
	}
	plan, err := st.Plan(rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(rep, plan); err != nil {
		t.Fatal(err)
	}
	mustCleanVerify(t, st, "after rot repair")
	if gen, _ := st.Generation(); gen != genBefore {
		t.Fatalf("healing rot moved the generation %d -> %d", genBefore, gen)
	}
	wantSameImage(t, mustImage(t, st), ref, "after rot repair")
}
