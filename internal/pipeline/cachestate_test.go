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

// TestCacheStateSpacedPaths: strconv.Quote leaves a space in a path as
// it is, so a stage that writes or deletes such a path saves a set or
// del line whose quoted field holds spaces. The image must restore whole
// and replay the stage, not refuse as malformed and start every later
// process cold.
func TestCacheStateSpacedPaths(t *testing.T) {
	build := func(runs *atomic.Int64) *Pipeline {
		pl := New("spaced")
		pl.AddStage("run", func(c *Context) error {
			runs.Add(1)
			c.Workspace["out/my results.csv"] = []byte("x,y\n1," + c.Param("x", "") + "\n")
			c.Workspace["notes.txt"] = []byte("tab\tand  two spaces")
			delete(c.Workspace, "old draft.txt")
			delete(c.Workspace, "a  b\tc.txt")
			c.Logf("wrote results")
			return nil
		})
		if err := pl.CacheStage("run", "run@v1", nil); err != nil {
			t.Fatal(err)
		}
		pl.CacheFilter = func(path string) bool { return path == "in.txt" }
		return pl
	}
	ctx := func() *Context {
		return &Context{
			Params: map[string]string{"x": "7"},
			Workspace: map[string][]byte{
				"in.txt": []byte("a"), "old draft.txt": []byte("stale"), "a  b\tc.txt": []byte("stale"),
			},
		}
	}
	var runs1 atomic.Int64
	c1 := NewCache()
	pl1 := build(&runs1)
	pl1.Cache = c1
	ctx1 := ctx()
	if rec := pl1.Run(ctx1); rec.Failed() {
		t.Fatal(rec.Err)
	}
	state := c1.SaveState()
	if !bytes.Contains(state, []byte(`set "out/my results.csv" `)) || !bytes.Contains(state, []byte("del \"old draft.txt\"\n")) {
		t.Fatal("the image does not hold the spaced set and del lines this test is about")
	}

	c2 := NewCache()
	if n, err := c2.RestoreState(state); err != nil || n != c1.Len() {
		t.Fatalf("RestoreState = %d, %v; want %d entries", n, err, c1.Len())
	}
	if !bytes.Equal(c2.SaveState(), state) {
		t.Fatal("re-encoding the restored entries does not reproduce the image")
	}
	var runs2 atomic.Int64
	pl2 := build(&runs2)
	pl2.Cache = NewCacheOpts(CacheOptions{State: state})
	ctx2 := ctx()
	if rec := pl2.Run(ctx2); rec.Failed() || rec.CacheHits != 1 || runs2.Load() != 0 {
		t.Fatalf("warm run: failed=%v hits=%d runs=%d", rec.Failed(), rec.CacheHits, runs2.Load())
	}
	if len(ctx2.Workspace) != len(ctx1.Workspace) {
		t.Fatalf("warm workspace %d paths, cold %d", len(ctx2.Workspace), len(ctx1.Workspace))
	}
	for path, want := range ctx1.Workspace {
		if got, ok := ctx2.Workspace[path]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("warm replay of %q = %q, want %q", path, got, want)
		}
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

	// A chunk altered under the hash the image names it by, the image
	// resealed: every checksum the extent holds passes, yet the tier
	// would file the chunk under another hash. Whether it is a file's
	// or a log's, the cache starts cold and the stages run again.
	chunks := len(extentPayloads(state)) - 1
	if chunks < 3 {
		t.Fatalf("image carries %d chunks, want a file's and two logs'", chunks)
	}
	for i := 1; i <= chunks; i++ {
		warmed := NewCacheOpts(CacheOptions{State: withForgedChunk(state, i)})
		if warmed.WarmEntries() != 0 || warmed.Len() != 0 {
			t.Fatalf("chunk %d forged: restored %d entries, want cold start", i, warmed.Len())
		}
		runs.Store(0)
		pl.Cache = warmed
		if rec := pl.Run(ctxWith("1", "a")); rec.Failed() || runs.Load() != 1 || rec.CacheHits != 0 {
			t.Fatalf("chunk %d forged: failed=%v runs=%d hits=%d", i, rec.Failed(), runs.Load(), rec.CacheHits)
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
