package pipeline

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"popper/internal/cas"
)

// TestCacheStateRoundTrip: a second "process" constructed from the
// first cache's SaveState image replays stages without executing them,
// and produces byte-identical workspaces.
func TestCacheStateRoundTrip(t *testing.T) {
	var runs1 atomic.Int64
	c1 := NewCache()
	pl1 := countingPipeline("v1", &runs1)
	pl1.Cache = c1
	pl1.CacheFilter = func(path string) bool { return path == "in.txt" }
	ctx1 := ctxWith("1", "a")
	rec1 := pl1.Run(ctx1)
	if rec1.Failed() || runs1.Load() != 1 {
		t.Fatalf("seed run: failed=%v runs=%d", rec1.Failed(), runs1.Load())
	}

	state := c1.SaveState()
	if len(state) == 0 {
		t.Fatal("SaveState returned nothing for a populated cache")
	}

	var runs2 atomic.Int64
	c2 := NewCacheOpts(CacheOptions{State: state})
	if c2.WarmEntries() != c1.Len() {
		t.Fatalf("restored %d entries, want %d", c2.WarmEntries(), c1.Len())
	}
	pl2 := countingPipeline("v1", &runs2)
	pl2.Cache = c2
	pl2.CacheFilter = func(path string) bool { return path == "in.txt" }
	ctx2 := ctxWith("1", "a")
	rec2 := pl2.Run(ctx2)
	if rec2.Failed() {
		t.Fatalf("warm run failed: %v", rec2.Err)
	}
	if runs2.Load() != 0 {
		t.Fatalf("warm cache re-executed the run stage (%d executions)", runs2.Load())
	}
	if rec2.CacheHits != 2 {
		t.Fatalf("warm run: %d cache hits, want 2", rec2.CacheHits)
	}
	if rec1.ResultHash != rec2.ResultHash {
		t.Fatalf("warm replay diverged: %s vs %s", rec1.ResultHash, rec2.ResultHash)
	}
	if !bytes.Equal(ctx1.Workspace["out.txt"], ctx2.Workspace["out.txt"]) {
		t.Fatalf("workspace diverged: %q vs %q", ctx1.Workspace["out.txt"], ctx2.Workspace["out.txt"])
	}
	if !strings.Contains(rec2.Log, "ran with x=1") {
		t.Fatalf("warm replay must splice the original log:\n%s", rec2.Log)
	}
}

// TestCacheStateDeterministic: the image is a pure function of the
// cache contents.
func TestCacheStateDeterministic(t *testing.T) {
	build := func() *Cache {
		var runs atomic.Int64
		c := NewCache()
		pl := countingPipeline("v1", &runs)
		pl.Cache = c
		pl.CacheFilter = func(path string) bool { return path == "in.txt" }
		for _, x := range []string{"1", "2", "3"} {
			if rec := pl.Run(ctxWith(x, "a")); rec.Failed() {
				t.Fatalf("x=%s: %v", x, rec.Err)
			}
		}
		return c
	}
	a, b := build().SaveState(), build().SaveState()
	if !bytes.Equal(a, b) {
		t.Fatal("SaveState images differ across identical histories")
	}
	// And re-serializing a restored cache reproduces the image.
	c := NewCacheOpts(CacheOptions{State: a})
	if !bytes.Equal(c.SaveState(), a) {
		t.Fatal("SaveState after RestoreState diverged")
	}
}

// TestCacheStateKeepsUnchangedImage: a cache restored from an image
// that adds and drops no entry saves that very image, byte for byte
// what re-encoding it would give; one new entry makes it re-encode.
func TestCacheStateKeepsUnchangedImage(t *testing.T) {
	var runs atomic.Int64
	c1 := NewCache()
	pl := countingPipeline("v1", &runs)
	pl.Cache = c1
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }
	for _, x := range []string{"1", "2"} {
		if rec := pl.Run(ctxWith(x, "a")); rec.Failed() {
			t.Fatal(rec.Err)
		}
	}
	image := c1.SaveState()

	c2 := NewCacheOpts(CacheOptions{State: image})
	pl.Cache = c2
	if rec := pl.Run(ctxWith("1", "a")); rec.Failed() || rec.CacheHits != 2 {
		t.Fatalf("warm replay: failed=%v hits=%d", rec.Failed(), rec.CacheHits)
	}
	if got := c2.SaveState(); len(got) != len(image) || &got[0] != &image[0] {
		t.Fatal("an unchanged cache did not return the image it restored")
	}
	reencoded := NewCache()
	if _, err := reencoded.RestoreState(image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.SaveState(), image) {
		t.Fatal("re-encoding the restored entries does not reproduce the image")
	}

	if rec := pl.Run(ctxWith("3", "a")); rec.Failed() || runs.Load() != 3 {
		t.Fatalf("new config: failed=%v runs=%d", rec.Failed(), runs.Load())
	}
	grown := c2.SaveState()
	if bytes.Equal(grown, image) {
		t.Fatal("a cache that gained an entry saved the old image")
	}
	if n := NewCacheOpts(CacheOptions{State: grown}).WarmEntries(); n != c2.Len() {
		t.Fatalf("the re-encoded image restores %d entries, want %d", n, c2.Len())
	}
}

// TestCacheStateDamaged: corruption anywhere means a cold start, not an
// error and not a partial cache.
func TestCacheStateDamaged(t *testing.T) {
	var runs atomic.Int64
	c := NewCache()
	pl := countingPipeline("v1", &runs)
	pl.Cache = c
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }
	if rec := pl.Run(ctxWith("1", "a")); rec.Failed() {
		t.Fatal(rec.Err)
	}
	state := c.SaveState()

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":   func(s []byte) []byte { return s[:len(s)/2] },
		"bit-flip":    func(s []byte) []byte { s = append([]byte(nil), s...); s[len(s)/2] ^= 0x40; return s },
		"not-extent":  func(s []byte) []byte { return []byte("junk") },
		"empty-bytes": func(s []byte) []byte { return nil },
		// An intact extent that is no cache state: a store hands over
		// whatever its sidecar holds.
		"foreign-extent": func(s []byte) []byte { return cas.EncodeExtent([][]byte{[]byte("meta")}) },
		"no-records":     func(s []byte) []byte { return cas.EncodeExtent(nil) },
	} {
		warmed := NewCacheOpts(CacheOptions{State: mutate(state)})
		if warmed.WarmEntries() != 0 || warmed.Len() != 0 {
			t.Fatalf("%s: damaged state produced %d entries, want cold start", name, warmed.Len())
		}
	}
}

// TestCacheStateSkipsEvictedEntries: an entry whose chunks the tier
// evicted is not replayable and must not be saved.
func TestCacheStateSkipsEvictedEntries(t *testing.T) {
	var runs atomic.Int64
	// A tiny budget so the second stage's output evicts the first's.
	c := NewCacheOpts(CacheOptions{MaxBytes: 1, Shards: 1})
	pl := countingPipeline("v1", &runs)
	pl.Cache = c
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }
	if rec := pl.Run(ctxWith("1", "a")); rec.Failed() {
		t.Fatal(rec.Err)
	}
	state := c.SaveState()
	warmed := NewCacheOpts(CacheOptions{State: state})
	// Whatever was saved must be fully replayable: every restored
	// entry's chunks are resident.
	if n := warmed.WarmEntries(); n > 0 && warmed.Tier().Len() == 0 {
		t.Fatalf("restored %d entries with no chunks", n)
	}
	if len(state) != 0 {
		if _, err := warmed.RestoreState(state); err != nil {
			t.Fatalf("saved state must restore cleanly: %v", err)
		}
	}
}

// TestCacheStateRestoreKeepsLiveEntries: restoring into a non-empty
// cache never clobbers entries the process already computed.
func TestCacheStateRestoreKeepsLiveEntries(t *testing.T) {
	var runsA, runsB atomic.Int64
	cA := NewCache()
	plA := countingPipeline("v1", &runsA)
	plA.Cache = cA
	plA.CacheFilter = func(path string) bool { return path == "in.txt" }
	if rec := plA.Run(ctxWith("1", "a")); rec.Failed() {
		t.Fatal(rec.Err)
	}
	state := cA.SaveState()

	cB := NewCache()
	plB := countingPipeline("v1", &runsB)
	plB.Cache = cB
	plB.CacheFilter = func(path string) bool { return path == "in.txt" }
	if rec := plB.Run(ctxWith("2", "b")); rec.Failed() {
		t.Fatal(rec.Err)
	}
	before := cB.Len()
	n, err := cB.RestoreState(state)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || cB.Len() != before+n {
		t.Fatalf("restore added %d entries onto %d, total %d", n, before, cB.Len())
	}
	// Both histories now replay warm.
	var runsC atomic.Int64
	plC := countingPipeline("v1", &runsC)
	plC.Cache = cB
	plC.CacheFilter = func(path string) bool { return path == "in.txt" }
	for _, tc := range []struct{ x, in string }{{"1", "a"}, {"2", "b"}} {
		if rec := plC.Run(ctxWith(tc.x, tc.in)); rec.Failed() || rec.CacheHits != 2 {
			t.Fatalf("x=%s: failed=%v hits=%d", tc.x, rec.Failed(), rec.CacheHits)
		}
	}
	if runsC.Load() != 0 {
		t.Fatalf("merged cache re-executed %d stages", runsC.Load())
	}
}
