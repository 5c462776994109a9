// Package metrics implements the performance-monitoring substrate of the
// Popper toolchain (the role Nagios/CollectD/StatD play in the paper).
//
// Experiments register counters, gauges and samples in a Registry; sampled
// observations accumulate into time series. At the end of a run the
// registry exports a flat metrics table (one row per observation, with
// experiment context labels) that post-processing scripts and the Aver
// validator consume — "many of the graphs included in the article can
// come directly from running analysis scripts on top of this data".
package metrics

import (
	"fmt"
	"sort"
	"sync"

	"popper/internal/table"
)

// Labels attach experiment context (workload, machine, run id ...) to
// every observation recorded through a registry.
type Labels map[string]string

// clone copies the label set.
func (l Labels) clone() Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// merged returns l overlaid with extra.
func (l Labels) merged(extra Labels) Labels {
	out := l.clone()
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// Observation is one recorded metric sample.
type Observation struct {
	Name   string
	Value  float64
	Tick   int64 // logical timestamp (virtual ns in simulated substrates)
	Labels Labels
}

// Registry collects observations. It is safe for concurrent use:
// writers serialize on the lock, readers (Counter, Gauge, Len,
// Observations, Series, Table, ResultTable) share it.
type Registry struct {
	mu       sync.RWMutex
	base     Labels
	obs      []Observation
	counters map[string]float64
	gauges   map[string]float64
	clock    func() int64
}

// NewRegistry creates a registry with base labels applied to every
// observation. clock supplies logical timestamps; nil means a
// monotonically increasing sequence number.
func NewRegistry(base Labels, clock func() int64) *Registry {
	r := &Registry{
		base:     base.clone(),
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		clock:    clock,
	}
	if r.clock == nil {
		var seq int64
		r.clock = func() int64 { seq++; return seq }
	}
	return r
}

// WithLabels returns a view of the registry with extra labels merged into
// the base set. Observations still land in the parent registry.
func (r *Registry) WithLabels(extra Labels) *View {
	return &View{reg: r, labels: extra.clone()}
}

// record appends an observation under the lock.
func (r *Registry) record(name string, v float64, extra Labels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, Observation{
		Name:   name,
		Value:  v,
		Tick:   r.clock(),
		Labels: r.base.merged(extra),
	})
}

// Observe records a raw sample.
func (r *Registry) Observe(name string, v float64) { r.record(name, v, nil) }

// Add increments a named counter and records the new total.
func (r *Registry) Add(name string, delta float64) {
	r.mu.Lock()
	r.counters[name] += delta
	total := r.counters[name]
	r.obs = append(r.obs, Observation{
		Name: name, Value: total, Tick: r.clock(), Labels: r.base.clone(),
	})
	r.mu.Unlock()
}

// Counter returns the current value of a counter.
func (r *Registry) Counter(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name]
}

// Set updates a gauge and records the observation.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.obs = append(r.obs, Observation{
		Name: name, Value: v, Tick: r.clock(), Labels: r.base.clone(),
	})
	r.mu.Unlock()
}

// Gauge returns the current value of a gauge.
func (r *Registry) Gauge(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gauges[name]
}

// Len returns the number of recorded observations.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.obs)
}

// Observations returns a copy of all recorded observations.
func (r *Registry) Observations() []Observation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Observation(nil), r.obs...)
}

// Series returns the values of a named metric in record order, filtered
// by the given label constraints (nil matches everything).
func (r *Registry) Series(name string, match Labels) []float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []float64
	for _, o := range r.obs {
		if o.Name != name {
			continue
		}
		if !matches(o.Labels, match) {
			continue
		}
		out = append(out, o.Value)
	}
	return out
}

func matches(have, want Labels) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// labelKeys returns the union of label keys across observations, sorted.
func (r *Registry) labelKeys() []string {
	set := make(map[string]bool)
	for _, o := range r.obs {
		for k := range o.Labels {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Table exports all observations as a flat table with columns
// tick, metric, value plus one column per label key.
func (r *Registry) Table() *table.Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := r.labelKeys()
	cols := append([]string{"tick", "metric", "value"}, keys...)
	t := table.New(cols...)
	row := make([]table.Value, 0, len(cols))
	for _, o := range r.obs {
		row = append(row[:0],
			table.Number(float64(o.Tick)),
			table.String(o.Name),
			table.Number(o.Value),
		)
		for _, k := range keys {
			row = append(row, table.String(o.Labels[k]))
		}
		t.MustAppend(row...)
	}
	return t
}

// StreamInto appends the observations recorded since index `since`
// (a previous return value; 0 for all) to a windowed buffer as one
// batch, and returns the new high-water mark. The window's schema is
// fixed by its creator: columns named "tick", "metric" and "value" map
// to the observation fields, every other column reads the label of
// that name (missing labels become empty strings) — so label keys that
// first appear mid-stream never reshape the schema the way Table's
// union-of-keys columns would. No rows since the mark is a no-op (no
// empty batch is appended). This is the metrics half of streaming
// validation: a producer drains the registry into a Window batch by
// batch and hands each increment to the Aver stream evaluator.
func (r *Registry) StreamInto(w *table.Window, since int) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.obs)
	if since < 0 || since > n {
		return n, fmt.Errorf("metrics: stream mark %d out of range [0,%d]", since, n)
	}
	if since == n {
		return n, nil
	}
	cols := w.Table().Columns()
	batch := table.New(cols...)
	row := make([]table.Value, len(cols))
	for _, o := range r.obs[since:] {
		for i, c := range cols {
			switch c {
			case "tick":
				row[i] = table.Number(float64(o.Tick))
			case "metric":
				row[i] = table.String(o.Name)
			case "value":
				row[i] = table.Number(o.Value)
			default:
				row[i] = table.String(o.Labels[c])
			}
		}
		batch.MustAppend(row...)
	}
	if err := w.Append(batch); err != nil {
		return since, err
	}
	return n, nil
}

// ResultTable pivots observations into one row per (label-set) group with
// one column per metric name (last value wins within a group). This is the
// "results.csv" shape the Popper convention stores and Aver validates.
func (r *Registry) ResultTable() *table.Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := r.labelKeys()
	metricSet := make(map[string]bool)
	for _, o := range r.obs {
		metricSet[o.Name] = true
	}
	metricNames := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metricNames = append(metricNames, m)
	}
	sort.Strings(metricNames)

	type group struct {
		labels Labels
		vals   map[string]float64
	}
	// Group observations by their label tuple without building a
	// composite key string per observation: label values intern to dense
	// ids and group ids thread through a per-level (parent-group, id)
	// hash. Groups come out dense in first-seen order, so row order is
	// deterministic for a given observation sequence.
	intern := make(map[string]int32)
	internID := func(s string) int32 {
		id, ok := intern[s]
		if !ok {
			id = int32(len(intern))
			intern[s] = id
		}
		return id
	}
	type gkey struct {
		parent int32
		id     int32
	}
	seen := make([]map[gkey]int32, len(keys))
	for i := range seen {
		seen[i] = make(map[gkey]int32)
	}
	var groups []*group
	for _, o := range r.obs {
		g := int32(0)
		for ki, k := range keys {
			kk := gkey{parent: g, id: internID(o.Labels[k])}
			ng, ok := seen[ki][kk]
			if !ok {
				ng = int32(len(seen[ki]))
				seen[ki][kk] = ng
			}
			g = ng
		}
		if int(g) >= len(groups) {
			groups = append(groups, &group{labels: o.Labels, vals: make(map[string]float64)})
		}
		groups[g].vals[o.Name] = o.Value
	}

	cols := append(append([]string(nil), keys...), metricNames...)
	t := table.New(cols...)
	row := make([]table.Value, 0, len(cols))
	for _, g := range groups {
		row = row[:0]
		for _, k := range keys {
			row = append(row, table.String(g.labels[k]))
		}
		for _, m := range metricNames {
			if v, ok := g.vals[m]; ok {
				row = append(row, table.Number(v))
			} else {
				row = append(row, table.String(""))
			}
		}
		t.MustAppend(row...)
	}
	return t
}

// Reset drops all observations, counters and gauges.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.obs = nil
	r.counters = make(map[string]float64)
	r.gauges = make(map[string]float64)
	r.mu.Unlock()
}

// View is a labeled window onto a registry.
type View struct {
	reg    *Registry
	labels Labels
}

// Observe records a sample with the view's labels merged in.
func (v *View) Observe(name string, val float64) { v.reg.record(name, val, v.labels) }

// WithLabels stacks more labels on top of the view.
func (v *View) WithLabels(extra Labels) *View {
	return &View{reg: v.reg, labels: v.labels.merged(extra)}
}

// Summary describes the distribution of a metric series.
type Summary struct {
	Name               string
	Count              int
	Mean, Min, Max     float64
	Median, StdDev, CV float64
}

// Summarize computes distribution statistics for a named metric.
func (r *Registry) Summarize(name string, match Labels) Summary {
	xs := r.Series(name, match)
	s := Summary{Name: name, Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = table.Mean(xs)
	s.Median = table.Median(xs)
	s.StdDev = table.StdDev(xs)
	s.CV = table.CoeffVar(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.4g median=%.4g min=%.4g max=%.4g sd=%.4g cv=%.4g",
		s.Name, s.Count, s.Mean, s.Median, s.Min, s.Max, s.StdDev, s.CV)
}
