package scrub

import (
	"bytes"
	"crypto/sha256"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/store"
)

// chaosSeed mirrors the repo-wide convention: `make rot` sweeps the
// seed matrix via CHAOS_SEED, plain `go test` stays deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 42
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer", raw)
	}
	return seed
}

func ws1() map[string][]byte {
	return map[string][]byte{
		".popper.yml":  []byte("experiments:\n  - exp\n"),
		"exp/run.sh":   []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml": []byte("alpha: 1\n"),
	}
}

// ws2 grows the tree: small files pack into an extent, the large
// results file stays a loose object.
func ws2() map[string][]byte {
	return map[string][]byte{
		".popper.yml":     []byte("experiments:\n  - exp\n"),
		"exp/run.sh":      []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml":    []byte("alpha: 2\n"),
		"exp/results.csv": bytes.Repeat([]byte("metric,value\nthroughput,812\n"), 200), // ~5.6 KB: loose
	}
}

var journalPayload = []byte("config,status\n001,ok\n002,ok\n")

// looseObject is the path of ws2's results.csv object: over the
// packing threshold, so it stays loose.
func looseObject() string { return store.ObjectFile(sha256.Sum256(ws2()["exp/results.csv"])) }

// buildStore runs the canonical scenario: two syncs (packing small
// objects into extents, the large results file loose) plus an
// incremental Put (a live put record awaiting the next commit).
func buildStore(t *testing.T, seed int64) (*store.Store, *store.MemFS) {
	t.Helper()
	st, fs, _ := countedStore(t, seed)
	return st, fs
}

// countedStore is buildStore over a countingFS.
func countedStore(t *testing.T, seed int64) (*store.Store, *store.MemFS, *countingFS) {
	t.Helper()
	fs := store.NewMemFS(seed)
	c := &countingFS{VFS: fs}
	st := store.New(c)
	for _, w := range []map[string][]byte{ws1(), ws2()} {
		if _, err := st.Sync(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("exp/journal.csv", journalPayload); err != nil {
		t.Fatal(err)
	}
	return st, fs, c
}

// countingFS wraps a VFS, counting reads per path, the bytes read and
// every operation that changes the tree.
type countingFS struct {
	store.VFS
	mu        sync.Mutex
	reads     map[string]int
	readBytes int64
	mutations int
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	data, err := c.VFS.ReadFile(path)
	c.mu.Lock()
	if c.reads == nil {
		c.reads = make(map[string]int)
	}
	c.reads[path]++
	c.readBytes += int64(len(data))
	c.mu.Unlock()
	return data, err
}

// takeReadBytes returns the bytes read so far and restarts the count.
func (c *countingFS) takeReadBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.readBytes
	c.readBytes = 0
	return n
}

func (c *countingFS) mutate() {
	c.mu.Lock()
	c.mutations++
	c.mu.Unlock()
}

func (c *countingFS) WriteFile(path string, data []byte) error {
	c.mutate()
	return c.VFS.WriteFile(path, data)
}

func (c *countingFS) Rename(oldPath, newPath string) error {
	c.mutate()
	return c.VFS.Rename(oldPath, newPath)
}

func (c *countingFS) Remove(path string) error {
	c.mutate()
	return c.VFS.Remove(path)
}

func (c *countingFS) Sync(path string) error {
	c.mutate()
	return c.VFS.Sync(path)
}

func (c *countingFS) SyncDir(dir string) error {
	c.mutate()
	return c.VFS.SyncDir(dir)
}

// counts snapshots the read counts and the mutation count, resetting
// the read counts.
func (c *countingFS) counts() (map[string]int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reads := c.reads
	c.reads = nil
	return reads, c.mutations
}

// mustConverged proves a repair converged on a store opened over c: a
// fresh verify plans nothing (with q as the quorum rung), and applying
// that empty plan writes, renames, removes and fsyncs nothing and keeps
// the generation.
func mustConverged(t *testing.T, st *store.Store, c *countingFS, q store.Quorum, when string) {
	t.Helper()
	gen0, err := st.Generation()
	if err != nil {
		t.Fatalf("%s: generation: %v", when, err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("%s: verify: %v", when, err)
	}
	plan, err := st.Plan(rep, q)
	if err != nil {
		t.Fatalf("%s: plan: %v", when, err)
	}
	if len(plan.Actions) != 0 {
		t.Fatalf("%s: a fresh verify still plans %v:\n%s", when, plan.Actions, rep.Format())
	}
	_, before := c.counts()
	if err := st.Apply(rep, plan); err != nil {
		t.Fatalf("%s: apply the empty plan: %v", when, err)
	}
	if _, after := c.counts(); after != before {
		t.Fatalf("%s: the empty plan made %d disk mutation(s)", when, after-before)
	}
	if gen, err := st.Generation(); err != nil || gen != gen0 {
		t.Fatalf("%s: the empty plan moved the generation %d -> %d (err %v)", when, gen0, gen, err)
	}
}

func mustImage(t *testing.T, st *store.Store) map[string][]byte {
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
		gotPaths, wantPaths := paths(got), paths(want)
		t.Fatalf("%s: tree holds %d files, want %d\n got: %v\nwant: %v", when, len(got), len(want), gotPaths, wantPaths)
	}
	for path, content := range want {
		if !bytes.Equal(got[path], content) {
			t.Fatalf("%s: %s differs:\n got %q\nwant %q", when, path, got[path], content)
		}
	}
}

func paths(img map[string][]byte) []string {
	var out []string
	for p := range img {
		out = append(out, p)
	}
	return out
}

func mustScrub(t *testing.T, sc *Scrubber) *Report {
	t.Helper()
	rep, err := sc.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	return rep
}

func mustCleanVerify(t *testing.T, st *store.Store, when string) {
	t.Helper()
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify %s: %v", when, err)
	}
	if !rep.Clean() {
		t.Fatalf("verify %s not clean:\n%s", when, rep.Format())
	}
}

// unrepairable counts the findings no rung could heal.
func unrepairable(rep *Report) int {
	return rep.Count(store.Quarantined) + rep.Count(store.Failed)
}

// healedFrom counts the findings the rung healed.
func healedFrom(rep *Report, rung store.Rung) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Outcome == store.Healed && f.Rung == rung {
			n++
		}
	}
	return n
}

// onlySource asserts every healed finding in the report was served by
// the expected rung.
func onlySource(t *testing.T, rep *Report, want store.Rung) {
	t.Helper()
	if rep.Count(store.Healed) == 0 {
		t.Fatalf("nothing healed:\n%s", rep.Format())
	}
	for _, f := range rep.Findings {
		if f.Outcome == store.Healed && f.Rung != want {
			t.Fatalf("finding healed from %s, want %s: %s", f.Rung, want, f)
		}
	}
}

func TestScrubCleanStoreVerifiesEveryEntry(t *testing.T) {
	st, _ := buildStore(t, chaosSeed(t))
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if !rep.Clean() {
		t.Fatalf("clean store reported findings:\n%s", rep.Format())
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != man.Generation {
		t.Fatalf("report generation %d, manifest %d", rep.Generation, man.Generation)
	}
	if rep.Scanned != man.Len() {
		t.Fatalf("scanned %d entries, manifest holds %d", rep.Scanned, man.Len())
	}
	if rep.Bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	if tot := sc.Totals(); tot.Passes != 1 {
		t.Fatalf("totals: %+v", tot)
	}

	reg := metrics.NewRegistry(nil, nil)
	sc.Record(reg)
	for _, name := range []string{"scrub_passes", "scrub_entries_verified", "scrub_bytes_verified"} {
		if v := reg.Gauge(name); v <= 0 {
			t.Fatalf("gauge %s = %v", name, v)
		}
	}
}

func TestScrubDetectOnlyReportsWithoutMutating(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	if got := fs.Rot("exp/vars.yml", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	before := mustImage(t, st)

	sc := New(st, Options{Repair: false})
	rep := mustScrub(t, sc)
	if rep.Clean() {
		t.Fatal("detection pass missed the rot")
	}
	hit := false
	for _, f := range rep.Findings {
		if f.Path == "exp/vars.yml" {
			hit = true
			if f.Outcome != store.Detected {
				t.Fatalf("detection-only finding mutated state: %s", f)
			}
		}
	}
	if len(rep.Actions) != 0 {
		t.Fatalf("detection-only pass acted: %v", rep.Actions)
	}
	if !hit {
		t.Fatalf("rot not localized:\n%s", rep.Format())
	}
	// The damaged tree is untouched.
	wantSameImage(t, mustImage(t, st), before, "after detection-only scrub")
	rep2 := mustScrub(t, sc)
	if rep2.Clean() {
		t.Fatal("second detection pass lost the finding")
	}
}

func TestScrubHealsFromLocalRungs(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		name string
		site string
		want store.Rung
	}{
		// vars.yml is small: its bytes live packed in an extent.
		{"packed-backed file", "exp/vars.yml", store.RungPool},
		// results.csv is over the packing threshold: its object is loose.
		{"loose-backed file", "exp/results.csv", store.RungPool},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, fs := buildStore(t, seed)
			ref := mustImage(t, st)
			if got := fs.Rot(tc.site, 1); len(got) != 1 {
				t.Fatalf("rot touched %v", got)
			}
			sc := New(st, Options{Repair: true})
			rep := mustScrub(t, sc)
			if rep.Count(store.Healed) == 0 || unrepairable(rep) != 0 {
				t.Fatalf("heal failed:\n%s", rep.Format())
			}
			onlySource(t, rep, tc.want)
			wantSameImage(t, mustImage(t, st), ref, "after heal")
			mustCleanVerify(t, st, "after heal")
			if rep2 := mustScrub(t, sc); !rep2.Clean() {
				t.Fatalf("second scrub not clean:\n%s", rep2.Format())
			}
		})
	}
}

func TestScrubHealsRottedLooseObjectInPlace(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	ref := mustImage(t, st)
	objPath := looseObject()
	if got := fs.Rot(objPath, 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	// No replica, extent or loose copy holds the bytes — but the intact
	// workspace copy proves them.
	onlySource(t, rep, store.RungReseal)
	wantSameImage(t, mustImage(t, st), ref, "after object heal")
	mustCleanVerify(t, st, "after object heal")

	// Every heal lands in exactly one per-rung gauge.
	reg := metrics.NewRegistry(nil, nil)
	sc.Record(reg)
	sum := 0.0
	for _, r := range store.Rungs {
		sum += reg.Gauge("scrub_healed_" + r.String())
	}
	if healed := reg.Gauge("scrub_healed"); healed == 0 || sum != healed {
		t.Fatalf("per-rung gauges sum to %v, scrub_healed is %v", sum, healed)
	}
}

// TestScrubReadsEachTrackedFileOnce pins the single walk: a detect-only
// pass reads every tracked file and every extent once — over a rotted
// file too, whose finding looks its content up in the pool, and on
// every replica of a group, the agreement audit included — and a pass
// that heals a rotted file reads each tracked file at most twice — once
// to verify it, once to prove the repair converged.
func TestScrubReadsEachTrackedFileOnce(t *testing.T) {
	st, fs, c := countedStore(t, chaosSeed(t))
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	once := append(entryPaths(man), extentFiles(t, fs)...)
	c.counts()
	if rep := mustScrub(t, New(st, Options{})); !rep.Clean() {
		t.Fatalf("clean store reported findings:\n%s", rep.Format())
	}
	reads, _ := c.counts()
	for _, path := range once {
		if reads[path] != 1 {
			t.Errorf("detect-only pass read %s %d times, want 1", path, reads[path])
		}
	}

	if got := fs.Rot("exp/vars.yml", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if rep := mustScrub(t, New(st, Options{})); !names(rep, "exp/vars.yml") {
		t.Fatalf("detect-only pass missed the rot:\n%s", rep.Format())
	}
	reads, _ = c.counts()
	for _, path := range once {
		if reads[path] != 1 {
			t.Errorf("detect-only pass over a rotted file read %s %d times, want 1", path, reads[path])
		}
	}

	rep := mustScrub(t, New(st, Options{Repair: true}))
	if rep.Count(store.Healed) != 1 {
		t.Fatalf("repair pass did not heal the rot:\n%s", rep.Format())
	}
	reads, _ = c.counts()
	for _, path := range entryPaths(man) {
		if reads[path] < 1 || reads[path] > 2 {
			t.Errorf("repair pass read %s %d times, want 1 or 2", path, reads[path])
		}
	}

	g := buildGroup(t, chaosSeed(t))
	if man, err = g.Store(0).Manifest(); err != nil {
		t.Fatal(err)
	}
	for _, c := range g.cs {
		c.counts()
	}
	if rep := mustScrub(t, New(nil, Options{Group: g.Group})); !rep.Clean() {
		t.Fatalf("clean group reported findings:\n%s", rep.Format())
	}
	for id, c := range g.cs {
		reads, _ := c.counts()
		for _, path := range append(entryPaths(man), extentFiles(t, g.fss[id])...) {
			if reads[path] != 1 {
				t.Errorf("detect-only group pass read replica %d's %s %d times, want 1", id, path, reads[path])
			}
		}
	}
}

func entryPaths(man *store.Manifest) []string {
	var out []string
	for _, e := range man.Entries {
		out = append(out, e.Path)
	}
	return out
}

// extentFiles lists the packed extents in a tree; the canonical
// scenario's two syncs leave two.
func extentFiles(t *testing.T, fs store.VFS) []string {
	t.Helper()
	all, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range all {
		if strings.HasPrefix(p, ".popper/extents/") {
			out = append(out, p)
		}
	}
	if len(out) != 2 {
		t.Fatalf("want the scenario's two extents, have %v", out)
	}
	return out
}

// names reports whether a finding names path.
func names(rep *Report, path string) bool {
	for _, f := range rep.Findings {
		if f.Path == path {
			return true
		}
	}
	return false
}

func TestScrubQuarantinesTheUnrepairable(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	if got := fs.Rot("exp/results.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if err := fs.Remove(looseObject()); err != nil {
		t.Fatal(err)
	}

	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if unrepairable(rep) == 0 {
		t.Fatalf("unprovable damage not reported:\n%s", rep.Format())
	}
	var unrep *store.Finding
	for i := range rep.Findings {
		if rep.Findings[i].Path == "exp/results.csv" {
			unrep = &rep.Findings[i]
		}
	}
	if unrep == nil || unrep.Outcome != store.Quarantined {
		t.Fatalf("results finding wrong: %+v\n%s", unrep, rep.Format())
	}

	// Never guessed at: the damaged bytes are preserved in quarantine,
	// the entry is dropped, and the tree converges — a second scrub is
	// clean.
	img := mustImage(t, st)
	if _, still := img["exp/results.csv"]; still {
		t.Fatal("unrepairable file still tracked in the workspace")
	}
	quarantined := false
	for p := range img {
		if strings.HasPrefix(p, store.QuarantinePrefix) && strings.HasSuffix(p, "exp/results.csv") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("damaged bytes not preserved in quarantine: %v", paths(img))
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := man.Lookup("exp/results.csv"); ok {
		t.Fatal("manifest still records the quarantined entry")
	}
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
	mustCleanVerify(t, st, "after quarantine")
}

// TestScrubDetectsTransientReadRot pins the read-side fault site: rot
// injected at disk/read/* poisons one read, the verify walk catches
// the mismatch, and the heal converges on the (undamaged) at-rest
// bytes.
func TestScrubDetectsTransientReadRot(t *testing.T) {
	seed := chaosSeed(t)
	st, _ := buildStore(t, seed)
	ref := mustImage(t, st)
	st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/read/exp/vars.yml", Kind: fault.CorruptDisk, Times: 1, Prob: 1,
	}}))
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if rep.Clean() {
		t.Fatal("transient read rot went undetected")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Path == "exp/vars.yml" && f.Outcome == store.Healed {
			found = true
		}
	}
	if !found {
		t.Fatalf("read rot not healed:\n%s", rep.Format())
	}
	wantSameImage(t, mustImage(t, st), ref, "after transient read rot")
	mustCleanVerify(t, st, "after transient read rot")
}

// TestScrubConcurrentWithSyncs runs detection passes while a writer
// commits generations — the race detector guards the locking, and the
// generation fence guards against phantom findings from in-flight
// trees.
func TestScrubConcurrentWithSyncs(t *testing.T) {
	st, _ := buildStore(t, chaosSeed(t))
	sc := New(st, Options{Repair: false})
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20 && err == nil; i++ {
			if i%2 == 0 {
				_, err = st.Sync(ws1())
			} else {
				_, err = st.Sync(ws2())
			}
		}
		done <- err
	}()
	for i := 0; i < 10; i++ {
		rep, err := sc.Scrub()
		if err != nil {
			t.Fatalf("scrub during syncs: %v", err)
		}
		for _, f := range rep.Findings {
			t.Errorf("phantom finding during concurrent syncs: %s", f)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	mustCleanVerify(t, st, "after concurrent scrub+sync")
}
