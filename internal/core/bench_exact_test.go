//go:build !race

package core

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestCacheBenchJSONExactCounts runs the recorder's sweeps and requires
// each entry's exact fields — allocs_per_config, allocs_per_entry,
// bytes_dedup_ratio, hit_rate, remote_fetches, peer_fetch_vseconds,
// recompute_vseconds and fetch_over_recompute — to equal the committed
// BENCH_cache.json's.
// ns_per_op and warm_speedup are left to the wall clock: a change to
// the cache's model or a sweep's allocations fails here until `make
// bench-json` records it. The race build allocates more, so it skips
// this file.
func TestCacheBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_cache.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]cacheBenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	got := cacheBenchRecords(t, cacheBenchSweepSize, cacheBenchHostCounts, false)
	if len(got) != len(committed) {
		t.Errorf("the recorder has %d entries, BENCH_cache.json %d", len(got), len(committed))
	}
	for name, want := range committed {
		g, ok := got[name]
		if !ok {
			t.Errorf("BENCH_cache.json records %s, which the recorder does not run", name)
			continue
		}
		g.NsPerOp, g.Speedup = want.NsPerOp, want.Speedup
		if g != want || !sameBits(g.AllocsPerConfig, want.AllocsPerConfig) || !sameBits(g.AllocsPerEntry, want.AllocsPerEntry) ||
			!sameBits(g.BytesDedupRatio, want.BytesDedupRatio) ||
			!sameBits(g.HitRate, want.HitRate) || !sameBits(g.FetchVSeconds, want.FetchVSeconds) ||
			!sameBits(g.RecomputeVSecs, want.RecomputeVSecs) || !sameBits(g.FetchVsRecomp, want.FetchVsRecomp) {
			t.Errorf("%s: the recorder measures %+v, BENCH_cache.json holds %+v", name, g, want)
		}
	}
}

// TestAverBenchJSONExactCounts runs the recorder's fail-fast sweeps and
// requires their exact fields — rows_executed, configs,
// violating_configs and compute_saved — to equal the committed
// BENCH_aver.json's. The streaming entries hold only wall-clock fields
// and are left to the clock.
func TestAverBenchJSONExactCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_aver.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]averBenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	for name, g := range failFastBenchRecords(t, failFastBenchSweep) {
		want, ok := committed[name]
		if !ok {
			t.Errorf("the recorder runs %s, which BENCH_aver.json does not record", name)
			continue
		}
		g.NsPerOp = want.NsPerOp
		if g != want || !sameBits(g.ComputeSaved, want.ComputeSaved) {
			t.Errorf("%s: the recorder measures %+v, BENCH_aver.json holds %+v", name, g, want)
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
