package store

import (
	"bytes"
	"strings"
	"testing"

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
	// an untracked one (adopt, rebuild), and in-flight debris (remove).
	fs.Rot("exp/vars.yml", 1)
	if err := fs.WriteFile("exp/extra.txt", []byte("placed by hand\n")); err != nil {
		t.Fatal(err)
	}
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
