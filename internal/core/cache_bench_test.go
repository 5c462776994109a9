package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"popper/internal/cas"
	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/pipeline"
)

// cacheBenchSweepSize is the overlapping-sweep benchmark's matrix
// width: the acceptance criterion is pinned on a 64-configuration
// sweep.
const cacheBenchSweepSize = 64

// cacheBenchHostCounts is the federation scaling curve BENCH_cache.json
// records.
var cacheBenchHostCounts = []int{1, 16, 256}

// cacheBenchProject is sweepProject with a problem size large enough
// that stage compute — the thing the cache elides — dominates the
// per-configuration fixed costs (journaling, validation, merge), as in
// a real experiment.
func cacheBenchProject(tb testing.TB) *Project {
	tb.Helper()
	p := Init()
	if err := p.AddExperiment("cloverleaf", "sweep"); err != nil {
		tb.Fatal(err)
	}
	p.SetParam("sweep", "nodes", "1,2,4,8")
	p.SetParam("sweep", "iterations", "50")
	p.SetParam("sweep", "problem_size", "20")
	return p
}

// cacheBenchMatrix enumerates n single-parameter configurations.
func cacheBenchMatrix(n int) []map[string]string {
	configs := make([]map[string]string, n)
	for i := range configs {
		configs[i] = map[string]string{"seed": fmt.Sprintf("%d", i+1)}
	}
	return configs
}

// timeCachedSweep runs one n-configuration sweep on a fresh project
// sharing cache (federating across hosts simulated hosts when
// hosts > 0) and returns the wall-clock duration of the sweep alone.
func timeCachedSweep(tb testing.TB, cache *pipeline.Cache, n, hosts int) time.Duration {
	tb.Helper()
	p := cacheBenchProject(tb)
	start := time.Now()
	sr, err := p.RunSweep("sweep", &Env{Seed: 2}, cacheBenchMatrix(n), SweepOptions{
		Jobs: 1, Hosts: hosts, Cache: cache,
	})
	elapsed := time.Since(start)
	if err != nil || !sr.Passed() {
		tb.Fatalf("bench sweep (hosts=%d): %v / %v", hosts, err, sr.Err())
	}
	return elapsed
}

// sweepAllocs counts the heap allocations of one n-configuration sweep
// of p sharing cache, per configuration. GOMAXPROCS is 1 while it
// counts, as in testing.AllocsPerRun, so no other goroutine's
// allocations land in the count.
func sweepAllocs(tb testing.TB, p *Project, cache *pipeline.Cache, n int) float64 {
	tb.Helper()
	configs := cacheBenchMatrix(n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr, err := p.RunSweep("sweep", &Env{Seed: 2}, configs, SweepOptions{Jobs: 1, Cache: cache})
	runtime.ReadMemStats(&after)
	if err != nil || !sr.Passed() {
		tb.Fatalf("alloc-counted sweep: %v / %v", err, sr.Err())
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// warmAllocsPerConfigBound bounds what one configuration of a warm
// sweep allocates. With every stage replayed, a configuration pays only
// for its own key lookups, replays, validation of its own rows and its
// journal line; the template, vars.yml, the validations.aver parse and
// the base clone are resolved once per sweep. The sweep below measures
// 203 (216 under the race detector).
const warmAllocsPerConfigBound = 230

// TestWarmSweepAllocsPerConfig pins the warm sweep's per-configuration
// allocations: the third sweep of one project over one cache, the shape
// of the CI re-check loop, where the project already holds the previous
// sweep's per-configuration outputs.
func TestWarmSweepAllocsPerConfig(t *testing.T) {
	const n = 32
	cache := pipeline.NewCache()
	p := cacheBenchProject(t)
	sweepAllocs(t, p, cache, n) // cold: populates the cache
	sweepAllocs(t, p, cache, n)
	got := sweepAllocs(t, p, cache, n)
	if got > warmAllocsPerConfigBound {
		t.Fatalf("warm sweep allocates %.1f per configuration, want <= %d", got, warmAllocsPerConfigBound)
	}
	t.Logf("warm sweep: %.1f allocations per configuration", got)
}

// TestWarmSweepSpeedupAtLeast5x is the overlapping-sweep acceptance
// criterion: re-running a 64-configuration sweep against the cache the
// first run populated must complete at least 5x faster, because every
// stage replays from the tier instead of executing. The warm time is
// the best of three runs so scheduler noise on a loaded machine cannot
// fail a genuine speedup.
func TestWarmSweepSpeedupAtLeast5x(t *testing.T) {
	cache := pipeline.NewCache()
	cold := timeCachedSweep(t, cache, cacheBenchSweepSize, 0)
	afterCold := cache.Stats()

	warm := timeCachedSweep(t, cache, cacheBenchSweepSize, 0)
	for i := 0; i < 2; i++ {
		if w := timeCachedSweep(t, cache, cacheBenchSweepSize, 0); w < warm {
			warm = w
		}
	}
	if st := cache.Stats(); st.Misses != afterCold.Misses {
		t.Fatalf("warm sweeps recomputed %d stages; every stage must replay", st.Misses-afterCold.Misses)
	}
	if warm*5 > cold {
		t.Fatalf("warm 64-config sweep took %v vs cold %v — %.1fx, want >= 5x",
			warm, cold, float64(cold)/float64(warm))
	}
}

// benchFederation builds a tier federated over `hosts` simulated
// default-profile nodes, mirroring what federateSweepCache attaches to
// a sweep fleet.
func benchFederation(tb testing.TB, hosts int) (*cas.Federation, *cas.Tier) {
	tb.Helper()
	c := cluster.New(21)
	nodes, err := c.Provision(DefaultHostProfile, hosts)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.AttachAll(fedSegmentBytes); err != nil {
		tb.Fatal(err)
	}
	profiles := make([]*cluster.MachineProfile, hosts)
	for i := range profiles {
		profiles[i] = nodes[i].Profile()
	}
	tier := cas.NewTier(cas.Options{})
	fed, err := cas.NewFederation(tier, w, profiles)
	if err != nil {
		tb.Fatal(err)
	}
	return fed, tier
}

// peerFetchCost publishes a ~200 KB stage entry on host 0 and fetches
// it from the farthest host, returning the virtual seconds charged.
func peerFetchCost(tb testing.TB, hosts int) float64 {
	tb.Helper()
	fed, tier := benchFederation(tb, hosts)
	content := bytes.Repeat([]byte("stage entry bytes "), 12<<10) // ~216 KB
	refs := tier.PutChunked(content)
	key := [32]byte{1}
	if err := fed.Publish(0, key, refs); err != nil {
		tb.Fatal(err)
	}
	res, err := fed.Fetch(hosts-1, key)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Kind == cas.FetchMiss {
		tb.Fatalf("hosts=%d: published entry missed", hosts)
	}
	return res.Cost
}

// cacheBenchRecord is one BENCH_cache.json entry.
type cacheBenchRecord struct {
	NsPerOp         float64 `json:"ns_per_op"`
	Clock           string  `json:"clock"`
	AllocsPerConfig float64 `json:"allocs_per_config,omitempty"`
	Speedup         float64 `json:"warm_speedup,omitempty"`
	HitRate         float64 `json:"hit_rate,omitempty"`
	FetchVSeconds   float64 `json:"peer_fetch_vseconds,omitempty"`
	RecomputeVSecs  float64 `json:"recompute_vseconds,omitempty"`
	FetchVsRecomp   float64 `json:"fetch_over_recompute,omitempty"`
	RemoteFetches   int64   `json:"remote_fetches,omitempty"`
	BytesDedupRatio float64 `json:"bytes_dedup_ratio,omitempty"`
}

// TestWriteCacheBenchJSON records the federated cache's perf
// trajectory: when BENCH_JSON names an output file (`make bench-json`),
// it times the cold/warm 64-configuration overlapping sweep, the warm
// hit-rate across simulated fleet sizes, and the peer-fetch vs
// recompute virtual-cost curve, writing name → record JSON.
// BENCH_SMOKE=1 (wired into `make verify`) shrinks the matrix so
// regressions in the cache path fail the full loop without a long
// bench run.
func TestWriteCacheBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record cache benchmarks")
	}
	smoke := os.Getenv("BENCH_SMOKE") != ""
	sweepSize := cacheBenchSweepSize
	hostCounts := cacheBenchHostCounts
	if smoke {
		sweepSize = 8
		hostCounts = []int{1, 16}
	}
	records := make(map[string]cacheBenchRecord)

	// Overlapping sweep: cold populate, then warm replays.
	cache := pipeline.NewCache()
	cold := timeCachedSweep(t, cache, sweepSize, 0)
	warm := timeCachedSweep(t, cache, sweepSize, 0)
	if !smoke {
		for i := 0; i < 2; i++ {
			if w := timeCachedSweep(t, cache, sweepSize, 0); w < warm {
				warm = w
			}
		}
	}
	st := cache.Stats()
	dedup := 0.0
	if st.BytesAdded+st.BytesDeduped > 0 {
		dedup = float64(st.BytesDeduped) / float64(st.BytesAdded+st.BytesDeduped)
	}
	// Exact allocations per configuration, each sweep on a fresh
	// project as the timed ones: cold on an empty cache, warm on the
	// cache the timed sweeps populated.
	coldAllocs := sweepAllocs(t, cacheBenchProject(t), pipeline.NewCache(), sweepSize)
	warmAllocs := sweepAllocs(t, cacheBenchProject(t), cache, sweepSize)
	records["BenchmarkOverlappingSweep/cold"] = cacheBenchRecord{
		NsPerOp:         float64(cold.Nanoseconds()),
		Clock:           "wall",
		AllocsPerConfig: coldAllocs,
	}
	records["BenchmarkOverlappingSweep/warm"] = cacheBenchRecord{
		NsPerOp:         float64(warm.Nanoseconds()),
		Clock:           "wall",
		Speedup:         float64(cold) / float64(warm),
		BytesDedupRatio: dedup,
		AllocsPerConfig: warmAllocs,
	}
	if !smoke && warm*5 > cold {
		t.Errorf("warm sweep speedup %.1fx below the 5x acceptance bar", float64(cold)/float64(warm))
	}

	// Warm hit-rate across fleet sizes: one federated cache per fleet,
	// cold cluster sweep then warm cluster sweep.
	for _, hosts := range hostCounts {
		fleetCache := pipeline.NewCache()
		timeCachedSweep(t, fleetCache, sweepSize, hosts)
		coldStats := fleetCache.Stats()
		elapsed := timeCachedSweep(t, fleetCache, sweepSize, hosts)
		ws := fleetCache.Stats()
		hits := ws.Hits - coldStats.Hits
		misses := ws.Misses - coldStats.Misses
		rec := cacheBenchRecord{
			NsPerOp:       float64(elapsed.Nanoseconds()),
			Clock:         "wall",
			RemoteFetches: ws.RemoteFetches,
		}
		if hits+misses > 0 {
			rec.HitRate = float64(hits) / float64(hits+misses)
		}
		records[fmt.Sprintf("BenchmarkOverlappingSweep/warm-hosts=%d", hosts)] = rec
		if rec.HitRate < 1.0 {
			t.Errorf("hosts=%d: warm cluster sweep hit rate %.2f, want 1.0", hosts, rec.HitRate)
		}
	}

	// Peer fetch vs recompute, in virtual seconds (the same 1-second
	// stage baseline the cas acceptance test uses).
	const recomputeSeconds = 1.0
	for _, hosts := range hostCounts {
		start := time.Now()
		cost := peerFetchCost(t, hosts)
		records[fmt.Sprintf("BenchmarkPeerFetchVsRecompute/hosts=%d", hosts)] = cacheBenchRecord{
			NsPerOp:        float64(time.Since(start).Nanoseconds()),
			Clock:          "wall",
			FetchVSeconds:  cost,
			RecomputeVSecs: recomputeSeconds,
			FetchVsRecomp:  cost / recomputeSeconds,
		}
		if cost >= recomputeSeconds {
			t.Errorf("hosts=%d: peer fetch costs %.6f virtual seconds, recompute %.1f — fetch must win",
				hosts, cost, recomputeSeconds)
		}
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}
