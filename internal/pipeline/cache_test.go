package pipeline

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// countingPipeline builds a pipeline whose run stage writes an output
// derived from the "x" parameter and counts executions.
func countingPipeline(id string, runs *atomic.Int64) *Pipeline {
	pl := New("cachetest")
	pl.AddStage("setup", func(c *Context) error {
		c.Logf("setting up")
		return nil
	})
	pl.AddStage("run", func(c *Context) error {
		runs.Add(1)
		c.Workspace["out.txt"] = []byte("x=" + c.Param("x", "") + " in=" + string(c.Workspace["in.txt"]))
		c.Logf("ran with x=%s", c.Param("x", ""))
		return nil
	})
	if err := pl.CacheStage("setup", "setup@"+id, []string{}); err != nil {
		panic(err)
	}
	if err := pl.CacheStage("run", "run@"+id, nil); err != nil {
		panic(err)
	}
	return pl
}

func ctxWith(x string, in string) *Context {
	return &Context{
		Params:    map[string]string{"x": x},
		Workspace: map[string][]byte{"in.txt": []byte(in)},
	}
}

func TestCacheHitOnIdenticalRerun(t *testing.T) {
	var runs atomic.Int64
	cache := NewCache()
	pl := countingPipeline("v1", &runs)
	pl.Cache = cache
	// CacheFilter keyed on inputs only, so the first run's output does
	// not perturb the second run's key.
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	ctx := ctxWith("1", "a")
	rec1 := pl.Run(ctx)
	if rec1.Failed() || runs.Load() != 1 {
		t.Fatalf("first run: failed=%v runs=%d", rec1.Failed(), runs.Load())
	}
	if rec1.CacheHits != 0 {
		t.Fatalf("first run must not hit, got %d", rec1.CacheHits)
	}

	rec2 := pl.Run(ctxWith("1", "a"))
	if rec2.Failed() {
		t.Fatalf("cached run failed: %v", rec2.Err)
	}
	if runs.Load() != 1 {
		t.Fatalf("run stage re-executed on identical inputs (%d executions)", runs.Load())
	}
	if rec2.CacheHits != 2 {
		t.Fatalf("expected 2 cache hits (setup+run), got %d", rec2.CacheHits)
	}
	for _, s := range rec2.Stages {
		if !s.Cached {
			t.Fatalf("stage %s not marked cached: %+v", s.Stage, s)
		}
	}
	// The replay must reproduce the workspace byte-identically.
	if rec1.ResultHash != rec2.ResultHash {
		t.Fatalf("cached replay diverged: %s vs %s", rec1.ResultHash, rec2.ResultHash)
	}
	if !strings.Contains(rec2.Log, "(cached)") || !strings.Contains(rec2.Log, "ran with x=1") {
		t.Fatalf("cached log must splice the original stage output:\n%s", rec2.Log)
	}
	st := cache.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2/2", st.Hits, st.Misses)
	}
	if st.Entries != 2 || st.BytesAdded == 0 {
		t.Fatalf("stats must account stored entries and bytes: %+v", st)
	}
}

func TestCacheMissOnParamChange(t *testing.T) {
	var runs atomic.Int64
	pl := countingPipeline("v1", &runs)
	pl.Cache = NewCache()
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	pl.Run(ctxWith("1", "a"))
	rec := pl.Run(ctxWith("2", "a"))
	if runs.Load() != 2 {
		t.Fatalf("param change must re-execute the run stage (%d executions)", runs.Load())
	}
	// setup declared no param deps, so it still hits.
	if rec.CacheHits != 1 {
		t.Fatalf("setup should hit despite param change, CacheHits=%d", rec.CacheHits)
	}
}

func TestCacheMissOnWorkspaceChange(t *testing.T) {
	var runs atomic.Int64
	pl := countingPipeline("v1", &runs)
	pl.Cache = NewCache()
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	pl.Run(ctxWith("1", "a"))
	ctx := ctxWith("1", "CHANGED")
	rec := pl.Run(ctx)
	if runs.Load() != 2 {
		t.Fatalf("workspace change must re-execute the run stage (%d executions)", runs.Load())
	}
	if got := string(ctx.Workspace["out.txt"]); got != "x=1 in=CHANGED" {
		t.Fatalf("out.txt = %q", got)
	}
	_ = rec
}

func TestCacheMissOnStageIdentityChange(t *testing.T) {
	var runs atomic.Int64
	cache := NewCache()

	pl1 := countingPipeline("v1", &runs)
	pl1.Cache = cache
	pl1.CacheFilter = func(path string) bool { return path == "in.txt" }
	pl1.Run(ctxWith("1", "a"))

	// Same cache, same inputs, new stage code identity: must re-execute.
	pl2 := countingPipeline("v2", &runs)
	pl2.Cache = cache
	pl2.CacheFilter = func(path string) bool { return path == "in.txt" }
	rec := pl2.Run(ctxWith("1", "a"))
	if runs.Load() != 2 {
		t.Fatalf("stage identity change must re-execute (%d executions)", runs.Load())
	}
	if rec.CacheHits != 0 {
		t.Fatalf("no stage should hit across an identity bump, CacheHits=%d", rec.CacheHits)
	}
}

func TestCacheSaltSeparatesEnvironments(t *testing.T) {
	var runs atomic.Int64
	cache := NewCache()
	pl := countingPipeline("v1", &runs)
	pl.Cache = cache
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	pl.CacheSalt = "seed=1"
	pl.Run(ctxWith("1", "a"))
	pl.CacheSalt = "seed=2"
	pl.Run(ctxWith("1", "a"))
	if runs.Load() != 2 {
		t.Fatalf("different salts must not share entries (%d executions)", runs.Load())
	}
}

func TestCacheHitsRecordedInJournal(t *testing.T) {
	var runs atomic.Int64
	pl := countingPipeline("v1", &runs)
	pl.Cache = NewCache()
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	j := NewJournal()
	j.Append(pl.Run(ctxWith("1", "a")), "initial")
	j.Append(pl.Run(ctxWith("1", "a")), "re-run")
	recs := j.Records()
	if recs[0].CacheHits != 0 || recs[1].CacheHits != 2 {
		t.Fatalf("journal cache hits = %d, %d; want 0, 2", recs[0].CacheHits, recs[1].CacheHits)
	}
	cachedStages := 0
	for _, s := range recs[1].Stages {
		if s.Cached {
			cachedStages++
		}
	}
	if cachedStages != 2 {
		t.Fatalf("journal must record which stages replayed from cache, got %d", cachedStages)
	}
	out := j.Format()
	if !strings.Contains(out, "[2 cached]") {
		t.Fatalf("journal format must surface cache hits:\n%s", out)
	}
	same, err := j.Reproduced(1, 2)
	if err != nil || !same {
		t.Fatalf("cached re-run must reproduce the original workspace: %v %v", same, err)
	}
}

func TestCacheDeletedPathsReplay(t *testing.T) {
	pl := New("del")
	pl.AddStage("run", func(c *Context) error {
		delete(c.Workspace, "tmp.txt")
		c.Workspace["kept.txt"] = []byte("k")
		return nil
	})
	pl.CacheStage("run", "run@v1", nil)
	pl.Cache = NewCache()
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }

	ws1 := map[string][]byte{"in.txt": []byte("a"), "tmp.txt": []byte("scratch")}
	pl.Run(&Context{Workspace: ws1})
	if _, ok := ws1["tmp.txt"]; ok {
		t.Fatal("stage should have deleted tmp.txt")
	}
	ws2 := map[string][]byte{"in.txt": []byte("a"), "tmp.txt": []byte("scratch")}
	rec := pl.Run(&Context{Workspace: ws2})
	if rec.CacheHits != 1 {
		t.Fatalf("expected replay, CacheHits=%d", rec.CacheHits)
	}
	if _, ok := ws2["tmp.txt"]; ok {
		t.Fatal("cached replay must re-apply the deletion")
	}
	if string(ws2["kept.txt"]) != "k" {
		t.Fatal("cached replay must re-apply writes")
	}
}

func TestCacheFailedStageNotStored(t *testing.T) {
	attempts := 0
	pl := New("fail")
	pl.AddStage("run", func(c *Context) error {
		attempts++
		return fmt.Errorf("boom")
	})
	pl.CacheStage("run", "run@v1", nil)
	pl.Cache = NewCache()
	pl.Run(&Context{})
	pl.Run(&Context{})
	if attempts != 2 {
		t.Fatalf("failed stages must never be replayed from cache (%d attempts)", attempts)
	}
	if pl.Cache.Len() != 0 {
		t.Fatalf("failed stage stored in cache (%d entries)", pl.Cache.Len())
	}
}

func TestCacheStageValidation(t *testing.T) {
	pl := New("v")
	if err := pl.CacheStage("run", "id", nil); err == nil {
		t.Fatal("caching an unregistered stage must fail")
	}
	pl.AddStage("run", func(c *Context) error { return nil })
	if err := pl.CacheStage("run", "", nil); err == nil {
		t.Fatal("empty cache identity must fail")
	}
	if err := pl.CacheStage("run", "id", []string{"a"}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentLogf(t *testing.T) {
	ctx := &Context{}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				ctx.Logf("worker %d line %d", g, i)
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if n := strings.Count(ctx.logString(), "\n"); n != 800 {
		t.Fatalf("expected 800 log lines, got %d", n)
	}
}
