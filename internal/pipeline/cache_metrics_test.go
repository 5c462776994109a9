package pipeline

import (
	"sync/atomic"
	"testing"

	"popper/internal/metrics"
)

// TestCacheRecordMetrics exercises the metrics bridge: after real cache
// traffic, Record must publish live cache_* gauges that agree with
// Stats, so sweep reports and the CI service chart the tier truthfully.
func TestCacheRecordMetrics(t *testing.T) {
	var runs atomic.Int64
	cache := NewCache()
	pl := countingPipeline("v1", &runs)
	pl.Cache = cache
	pl.CacheFilter = func(path string) bool { return path == "in.txt" }
	if rec := pl.Run(ctxWith("1", "a")); rec.Failed() {
		t.Fatalf("cold run: %v", rec.Err)
	}
	if rec := pl.Run(ctxWith("1", "a")); rec.Failed() || rec.CacheHits == 0 {
		t.Fatalf("warm run: failed=%v hits=%d", rec.Failed(), rec.CacheHits)
	}

	reg := metrics.NewRegistry(nil, nil)
	cache.Record(reg)
	st := cache.Stats()
	for name, want := range map[string]float64{
		"cache_hits":           float64(st.Hits),
		"cache_misses":         float64(st.Misses),
		"cache_entries":        float64(st.Entries),
		"cache_bytes_added":    float64(st.BytesAdded),
		"cache_bytes_deduped":  float64(st.BytesDeduped),
		"cache_remote_fetches": float64(st.RemoteFetches),
		"cache_remote_bytes":   float64(st.RemoteBytes),
		"cache_fetch_vseconds": st.FetchSeconds,
	} {
		if got := reg.Gauge(name); got != want {
			t.Errorf("gauge %s = %v, want %v", name, got, want)
		}
	}
	// The traffic above guarantees these are nonzero — a regression to
	// zero placeholders must fail, not silently chart flat lines.
	for _, name := range []string{"cache_hits", "cache_misses", "cache_entries", "cache_bytes_added"} {
		if reg.Gauge(name) == 0 {
			t.Errorf("gauge %s is zero after real cache traffic", name)
		}
	}
}
