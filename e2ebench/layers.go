package main

// driverSpans are the calls the driver makes itself, one at a time:
// each reports its self time (.ms) and heap allocation (.alloc_kb).
var driverSpans = []string{
	"store.open", "repl.open", "store.load", "repl.load", "core.load",
	"store.cache_state", "repl.cache_state", "pipeline.restore",
	"cas.set_fallback", "core.parse_sweep", "core.run_sweep",
	"pipeline.save", "store.sync", "repl.sync", "scrub.pass",
}

// hookSpans run on sweep workers as children of core.run_sweep; they
// report self time only, since other workers allocate meanwhile.
var hookSpans = []string{"store.put", "repl.put", "cas.fallback"}

// layerCountNames are the per-op work counts layerCounts fills in,
// with their units.
var layerCountNames = []struct{ name, unit string }{
	{"core.stages_executed", "count"},
	{"core.stages_replayed", "count"},
	{"sched.attempts", "count"},
	{"aver.assertions", "count"},
	{"aver.rows", "count"},
	{"pipeline.restore.entries", "count"},
	{"pipeline.save.kb", "KiB"},
	{"pipeline.cache.hit_ratio", "ratio"},
	{"pipeline.cache.kb_added", "KiB"},
	{"pipeline.cache.kb_deduped", "KiB"},
	{"cas.fallback.calls", "count"},
	{"store.load.kb_read", "KiB"},
	{"store.put.calls", "count"},
	{"store.put.kb_written", "KiB"},
	{"store.put.fsyncs", "count"},
	{"store.sync.files_written", "count"},
	{"store.sync.kb_written", "KiB"},
	{"store.sync.fsyncs", "count"},
	{"store.commits", "count"},
	{"repl.commits", "count"},
	{"repl.kb_written", "KiB"},
	{"repl.fsyncs", "count"},
	{"scrub.entries", "count"},
	{"scrub.kb_verified", "KiB"},
	{"scrub.findings", "count"},
}

// perLayerUnits lists every per-layer metric the traced run reports,
// with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{"core.run_sweep.self_ms": "ms", "trace.overhead_ms": "ms"}
	for _, n := range driverSpans {
		u[n+".ms"] = "ms"
		u[n+".alloc_kb"] = "KiB"
	}
	for _, n := range hookSpans {
		u[n+".ms"] = "ms"
	}
	for _, c := range layerCountNames {
		u[c.name] = c.unit
	}
	return u
}

// layerMetrics reduces the traced ops to per-layer metrics, each the
// median over ops of its per-op value. A span's .ms is its self time
// summed over the op's calls, except core.run_sweep.ms, which is the
// whole call (its self time is core.run_sweep.self_ms). A layer the
// workload does not use reads 0. trace.overhead_ms is added by the
// caller.
func layerMetrics(tr *tracer, ops []sample) map[string]metric {
	units := perLayerUnits()
	perOp := map[int]map[string]float64{}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		m := perOp[s.Op]
		if m == nil {
			m = map[string]float64{}
			perOp[s.Op] = m
		}
		if s.Name == "core.run_sweep" {
			m["core.run_sweep.ms"] += ms(s.End - s.Start)
			m["core.run_sweep.self_ms"] += ms(self[i])
		} else {
			m[s.Name+".ms"] += ms(self[i])
		}
		if s.AllocBytes >= 0 {
			m[s.Name+".alloc_kb"] += float64(s.AllocBytes) / 1024
		}
	}
	delete(units, "trace.overhead_ms")
	values := map[string][]float64{}
	for _, smp := range ops {
		if smp.failed {
			continue
		}
		spans := perOp[smp.id]
		for name := range units {
			v, ok := smp.layer[name]
			if !ok {
				v = spans[name]
			}
			values[name] = append(values[name], v)
		}
	}
	out := map[string]metric{}
	for name, unit := range units {
		out[name] = metric{median(values[name]), unit}
	}
	return out
}
