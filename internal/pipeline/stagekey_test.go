package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenKeyPipeline is a pipeline over a fixed context whose stage keys
// TestStageKeyGolden pins: "setup" declares its parameter dependencies
// (one of them absent), "run" declares none (nil: every parameter).
func goldenKeyPipeline() (*Pipeline, *Context) {
	pl := New("golden")
	noop := func(*Context) error { return nil }
	pl.AddStage("setup", noop)
	pl.AddStage("run", noop)
	pl.CacheStage("setup", "core/setup@v1", []string{"seed", "absent"})
	pl.CacheStage("run", "core/run/cloverleaf@v1", nil)
	pl.CacheSalt = "env-seed=3|faults=abc"
	pl.CacheFilter = func(path string) bool {
		return strings.HasPrefix(path, "experiments/e/") && !strings.HasSuffix(path, "results.csv")
	}
	ctx := &Context{
		Params: map[string]string{"seed": "7", "nodes": "1,2,4", "template": "cloverleaf", "": "empty-key"},
		Workspace: map[string][]byte{
			"experiments/e/vars.yml":         []byte("template: cloverleaf\nseed: 7\n"),
			"experiments/e/validations.aver": []byte("expect time > 0"),
			"experiments/e/datasets/d.ref":   {},
			"experiments/e/results.csv":      []byte("a,b\n1,2\n"),
			"experiments/other/vars.yml":     []byte("x: 1\n"),
			"README.md":                      []byte("# readme\n"),
		},
	}
	return pl, ctx
}

// TestStageKeyGolden pins the bytes of stage keys and of the result
// hash: a change to either silently cold-starts every stage-cache
// sidecar written before it. The digests were recorded from the key
// code as it stood before stage keys reused their path list.
func TestStageKeyGolden(t *testing.T) {
	pl, ctx := goldenKeyPipeline()
	want := map[string]string{
		"setup": "11ac12af8cb2f78eb52aaf6235be8df4206b76d7f17135b0d5bff5a042afdae5",
		"run":   "146f8ef280b271637848b6c990130327fb94caaf02c6926f5980f8057b36f896",
	}
	var shared stageKeys
	for _, stage := range []string{"setup", "run"} {
		var fresh stageKeys
		k := pl.cacheKey(stage, pl.cacheIDs[stage], ctx, &fresh)
		if got := hex.EncodeToString(k[:]); got != want[stage] {
			t.Errorf("stage %s key = %s, want %s", stage, got, want[stage])
		}
		// A key computed over a path list kept from an earlier key is the
		// same key.
		if again := pl.cacheKey(stage, pl.cacheIDs[stage], ctx, &shared); again != k {
			t.Errorf("stage %s key over a kept path list differs from a fresh one", stage)
		}
	}
	if got := hashWorkspace(ctx.Workspace, nil); got != "9837896fc84447d2" {
		t.Errorf("result hash = %s, want 9837896fc84447d2", got)
	}
}

// TestStageKeyPathListReuse: a run lists its key paths once and lists
// them again only when a stage executed or a replay moved an admitted
// path. Whatever the stage before it did, every key must equal the key
// computed from scratch over the workspace as it then stands. The cold
// run checks that for stages that executed (each stored entry sits
// under the from-scratch key), the warm run for replays (a stale key
// would miss).
func TestStageKeyPathListReuse(t *testing.T) {
	cases := []struct {
		name string
		// edit is the setup stage's workspace change.
		edit func(ws map[string][]byte)
	}{
		{"sets an admitted path", func(ws map[string][]byte) { ws["in/new.txt"] = []byte("new") }},
		{"deletes an admitted path", func(ws map[string][]byte) { delete(ws, "in/old.txt") }},
		{"rewrites an admitted path", func(ws map[string][]byte) { ws["in/a.txt"] = []byte("A2") }},
		{"sets only filtered-out paths", func(ws map[string][]byte) { ws["out/setup.log"] = []byte("log") }},
		{"changes nothing", func(map[string][]byte) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := New("keys")
			pl.AddStage("setup", func(c *Context) error { tc.edit(c.Workspace); return nil })
			pl.AddStage("run", func(c *Context) error {
				c.Workspace["out/result.txt"] = []byte("result")
				return nil
			})
			pl.AddStage("post-run", func(c *Context) error { return nil })
			for _, st := range []string{"setup", "run", "post-run"} {
				pl.CacheStage(st, st+"@v1", nil)
			}
			pl.Cache = NewCache()
			pl.CacheFilter = func(path string) bool { return strings.HasPrefix(path, "in/") }
			fresh := func() *Context {
				return &Context{
					Params: map[string]string{"x": "1"},
					Workspace: map[string][]byte{
						"in/a.txt": []byte("A"), "in/old.txt": []byte("old"), "out/prev.txt": []byte("prev"),
					},
				}
			}

			// The from-scratch key of every stage, over the workspace each
			// one starts from.
			ws := fresh().Workspace
			var want [][sha256.Size]byte
			for _, st := range []string{"setup", "run", "post-run"} {
				var k stageKeys
				want = append(want, pl.cacheKey(st, pl.cacheIDs[st], &Context{Params: map[string]string{"x": "1"}, Workspace: ws}, &k))
				if err := pl.stages[st](&Context{Workspace: ws}); err != nil {
					t.Fatal(err)
				}
			}

			cold := pl.Run(fresh())
			if cold.Failed() || cold.CacheHits != 0 {
				t.Fatalf("cold run: err=%v hits=%d", cold.Err, cold.CacheHits)
			}
			for i, k := range want {
				s := pl.Cache.shardFor(k)
				s.mu.Lock()
				_, ok := s.entries[k]
				s.mu.Unlock()
				if !ok {
					t.Errorf("cold run stored stage %d under a key other than the from-scratch one", i)
				}
			}
			warm := pl.Run(fresh())
			if warm.Failed() || warm.CacheHits != 3 {
				t.Fatalf("warm run: err=%v hits=%d, want all 3 stages replayed", warm.Err, warm.CacheHits)
			}
			if warm.ResultHash != cold.ResultHash {
				t.Fatalf("warm result %s differs from cold %s", warm.ResultHash, cold.ResultHash)
			}
		})
	}
}
