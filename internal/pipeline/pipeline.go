// Package pipeline implements the experiment execution engine of the
// Popper convention: the staged lifecycle behind every experiment's
// run.sh (setup → run → post-run → validate → teardown) plus the
// provenance journal — the "chronological record on how experiments
// evolve over time (the analogy of the lab notebook in experimental
// sciences)" from the paper's Figure 1.
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"

	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/table"
)

// Canonical stage names, executed in this order.
var StageOrder = []string{"setup", "run", "post-run", "validate", "teardown"}

// Context is passed to every stage.
//
// Concurrency contract for fan-out (parallel sweeps, stages that spawn
// workers): each concurrently running pipeline must own its own Context
// — Contexts are never shared across pipeline runs. Within one run,
// worker goroutines spawned by a stage may share the Context under
// these rules: Logf is safe to call concurrently (the log builder is
// mutex-guarded); Metrics is safe for concurrent use (the registry is
// internally locked); Params must be treated as read-only while workers
// run; Workspace reads/writes require external coordination — stages
// that fan out should have workers deposit results into caller-owned
// slots and let the stage goroutine write the Workspace. Stages must
// replace Workspace entries with fresh slices rather than mutating
// content in place (the stage cache diffs by reference snapshot).
type Context struct {
	// Params are the experiment parameters (vars.yml content).
	Params map[string]string
	// Workspace holds the experiment's files (sources, datasets,
	// results); stages read and write it.
	Workspace map[string][]byte
	// Metrics collects runtime measurements across stages.
	Metrics *metrics.Registry

	logMu sync.Mutex
	log   strings.Builder
}

// Logf appends to the execution log. Safe for concurrent use by worker
// goroutines a stage fans out.
func (c *Context) Logf(format string, args ...any) {
	c.logMu.Lock()
	fmt.Fprintf(&c.log, format+"\n", args...)
	c.logMu.Unlock()
}

// logString returns the accumulated log.
func (c *Context) logString() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.log.String()
}

// logLen returns the current log length (a replay watermark).
func (c *Context) logLen() int {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.log.Len()
}

// logSince returns the log text appended after the watermark.
func (c *Context) logSince(mark int) string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	s := c.log.String()
	if mark < 0 || mark > len(s) {
		return ""
	}
	return s[mark:]
}

// appendLog splices previously captured log text (a cached stage's
// output) into the log.
func (c *Context) appendLog(s string) {
	c.logMu.Lock()
	c.log.WriteString(s)
	c.logMu.Unlock()
}

// Param returns a parameter with a default.
func (c *Context) Param(key, def string) string {
	if v, ok := c.Params[key]; ok {
		return v
	}
	return def
}

// StageFunc is one stage implementation.
type StageFunc func(*Context) error

// Pipeline is a named experiment lifecycle.
type Pipeline struct {
	Name   string
	stages map[string]StageFunc

	// Cache, when set, replays cacheable stages whose key material is
	// unchanged instead of re-executing them (see Cache and CacheStage).
	Cache *Cache
	// CacheSalt is extra key material mixed into every stage key —
	// typically the execution environment (e.g. the simulation seed)
	// that influences stage behavior but lives outside Params.
	CacheSalt string
	// CacheFilter selects which workspace paths participate in stage
	// keys; nil admits every path. Callers use it to exclude generated
	// outputs so a re-run keyed on inputs still hits.
	CacheFilter func(path string) bool
	// CacheHost is the simulated host this pipeline executes on, used
	// by a federated Cache to account peer-to-peer entry transfers on
	// the right virtual clock. Meaningful only when the Cache has a
	// federation attached; negative disables federated accounting for
	// this pipeline.
	CacheHost int

	// Faults, when set, is consulted before every stage attempt at site
	// "pipeline/<scope>/<stage>" (see FaultScope). Injected errors fail
	// the attempt, latency faults are logged, and crashes are terminal
	// (never retried). Callers running under an injector must
	// mix its Fingerprint into CacheSalt so chaos runs never share
	// cache entries with clean runs.
	Faults *fault.Injector
	// FaultScope overrides the pipeline name in fault site names. Sweeps
	// scope it per configuration ("<experiment>/<idx>") so concurrent
	// configurations draw from independent, deterministic fault streams.
	FaultScope string

	retries   map[string]fault.Retry
	cacheIDs  map[string]string
	cacheDeps map[string][]string
}

// New creates an empty pipeline.
func New(name string) *Pipeline {
	return &Pipeline{
		Name:      name,
		stages:    make(map[string]StageFunc),
		retries:   make(map[string]fault.Retry),
		cacheIDs:  make(map[string]string),
		cacheDeps: make(map[string][]string),
	}
}

// RetryStage attaches a declarative retry policy to a registered stage:
// on a retryable failure (anything but an injected crash) the stage is
// re-executed up to policy.Max more times, the workspace restored to
// its pre-attempt state first, with a deterministic exponential backoff
// delay logged before each retry. Every attempt is visible in the
// Record journal (StageResult.Attempts).
func (p *Pipeline) RetryStage(name string, policy fault.Retry) error {
	if _, ok := p.stages[name]; !ok {
		return fmt.Errorf("pipeline: cannot set retry policy on unregistered stage %q", name)
	}
	if policy.Max < 0 {
		return fmt.Errorf("pipeline: stage %q retry max must be >= 0", name)
	}
	p.retries[name] = policy
	return nil
}

// CacheStage marks a registered stage as cacheable. id is the stage's
// code identity — bump it whenever the stage implementation changes, so
// stale outcomes are never replayed. params names the parameters the
// stage's behavior depends on: nil means "all parameters", an empty
// non-nil slice means "none". Stages never marked cacheable (such as
// validation stages that feed side channels) always execute.
func (p *Pipeline) CacheStage(name, id string, params []string) error {
	if _, ok := p.stages[name]; !ok {
		return fmt.Errorf("pipeline: cannot cache unregistered stage %q", name)
	}
	if id == "" {
		return fmt.Errorf("pipeline: stage %q needs a non-empty cache identity", name)
	}
	p.cacheIDs[name] = id
	if params == nil {
		p.cacheDeps[name] = nil
	} else {
		p.cacheDeps[name] = append(make([]string, 0, len(params)), params...)
	}
	return nil
}

// AddStage registers a stage implementation; the name must be one of
// StageOrder.
func (p *Pipeline) AddStage(name string, fn StageFunc) error {
	valid := false
	for _, s := range StageOrder {
		if s == name {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("pipeline: unknown stage %q (valid: %s)", name, strings.Join(StageOrder, ", "))
	}
	if fn == nil {
		return fmt.Errorf("pipeline: nil stage function for %q", name)
	}
	if _, dup := p.stages[name]; dup {
		return fmt.Errorf("pipeline: stage %q already defined", name)
	}
	p.stages[name] = fn
	return nil
}

// Stages lists the defined stages in execution order.
func (p *Pipeline) Stages() []string {
	var out []string
	for _, s := range StageOrder {
		if _, ok := p.stages[s]; ok {
			out = append(out, s)
		}
	}
	return out
}

// StageResult records one stage execution.
type StageResult struct {
	Stage string
	Err   error
	Ran   bool
	// Cached reports that the stage was replayed from the content-
	// addressed stage cache instead of executing.
	Cached bool
	// Attempts is how many times the stage executed (1 without a retry
	// policy; 0 for skipped or cached stages). Journaling the attempt
	// count is what keeps chaos replays auditable: a re-run that needed
	// a different number of attempts did not reproduce the schedule.
	Attempts int
}

// Record is the outcome of one pipeline execution.
type Record struct {
	Pipeline  string
	Iteration int
	Reason    string // why this iteration ran (param change, bug fix, ...)
	Params    map[string]string
	Stages    []StageResult
	Err       error
	Log       string
	// ResultHash fingerprints the workspace after execution, so the
	// journal can tell whether a re-execution reproduced prior outputs.
	ResultHash string
	// CacheHits counts the stages replayed from cache this execution —
	// the journal's record of what the re-run did not have to redo.
	CacheHits int
}

// Failed reports whether the execution failed.
func (r Record) Failed() bool { return r.Err != nil }

// Run executes the defined stages in order. If any stage fails, later
// stages are skipped — except teardown, which always runs when defined.
func (p *Pipeline) Run(ctx *Context) Record {
	if ctx.Params == nil {
		ctx.Params = map[string]string{}
	}
	if ctx.Workspace == nil {
		ctx.Workspace = map[string][]byte{}
	}
	if ctx.Metrics == nil {
		ctx.Metrics = metrics.NewRegistry(nil, nil)
	}
	rec := Record{Pipeline: p.Name, Params: copyParams(ctx.Params)}
	failed := false
	var keys stageKeys
	for _, name := range StageOrder {
		fn, ok := p.stages[name]
		if !ok {
			continue
		}
		if failed && name != "teardown" {
			rec.Stages = append(rec.Stages, StageResult{Stage: name, Ran: false})
			continue
		}
		id, cacheable := p.cacheIDs[name]
		if p.Cache != nil && cacheable && !failed {
			key := p.cacheKey(name, id, ctx, &keys)
			if ent, hit := p.Cache.lookup(key, p.CacheHost); hit {
				if p.replayMovesKeyPaths(ent) {
					keys.listed = false
				}
				ctx.Logf("--- stage %s (cached)", name)
				ctx.appendLog(p.Cache.replay(ent, ctx.Workspace))
				rec.Stages = append(rec.Stages, StageResult{Stage: name, Cached: true})
				rec.CacheHits++
				continue
			}
			before := snapshotRefs(ctx.Workspace)
			ctx.Logf("--- stage %s", name)
			mark := ctx.logLen()
			attempts, err := p.execStage(name, fn, ctx)
			keys.listed = false
			rec.Stages = append(rec.Stages, StageResult{Stage: name, Err: err, Ran: true, Attempts: attempts})
			if err != nil {
				ctx.Logf("stage %s failed: %v", name, err)
				rec.Err = fmt.Errorf("pipeline %s: stage %s: %w", p.Name, name, err)
				failed = true
				continue
			}
			delta := diffWorkspace(before, ctx.Workspace)
			delta.log = ctx.logSince(mark)
			p.Cache.store(key, delta, p.CacheHost)
			continue
		}
		ctx.Logf("--- stage %s", name)
		attempts, err := p.execStage(name, fn, ctx)
		keys.listed = false
		rec.Stages = append(rec.Stages, StageResult{Stage: name, Err: err, Ran: true, Attempts: attempts})
		if err != nil {
			ctx.Logf("stage %s failed: %v", name, err)
			if !failed {
				rec.Err = fmt.Errorf("pipeline %s: stage %s: %w", p.Name, name, err)
			}
			failed = true
		}
	}
	rec.Log = ctx.logString()
	rec.ResultHash = hashWorkspace(ctx.Workspace, keys.buf)
	return rec
}

// execStage runs one stage through its resilience envelope: fault
// injection and the retry policy. Returns the number of attempts
// executed and the final error. When no injector or policy is
// configured the stage runs exactly as it always has — one direct
// call, zero extra allocation.
func (p *Pipeline) execStage(name string, fn StageFunc, ctx *Context) (int, error) {
	policy, hasRetry := p.retries[name]
	if p.Faults == nil && !hasRetry {
		return 1, fn(ctx)
	}
	scope := p.FaultScope
	if scope == "" {
		scope = p.Name
	}
	site := "pipeline/" + scope + "/" + name
	// Retries re-run the stage from its pre-attempt workspace; snapshot
	// the map shallowly (stages replace entries rather than mutating
	// bytes, per the Context contract) so a half-written attempt never
	// leaks into the next one.
	var snap map[string][]byte
	if policy.Max > 0 {
		snap = make(map[string][]byte, len(ctx.Workspace))
		for k, v := range ctx.Workspace {
			snap[k] = v
		}
	}
	for attempt := 1; ; attempt++ {
		var err error
		if p.Faults != nil {
			if f := p.Faults.Check(site); f != nil {
				if f.Kind == fault.Latency {
					ctx.Logf("stage %s: injected %.3fs latency (%s#%d)", name, f.Delay, f.Site, f.Occurrence)
				} else {
					err = f
				}
			}
		}
		if err == nil {
			err = fn(ctx)
		}
		if err == nil {
			return attempt, nil
		}
		if fault.IsTerminal(err) || attempt > policy.Max {
			return attempt, err
		}
		delay := policy.Delay(p.Faults.Seed(), site, attempt)
		ctx.Logf("stage %s: attempt %d failed (%v); retrying in %.3fs", name, attempt, err, delay)
		if snap != nil {
			restoreWorkspace(ctx.Workspace, snap)
		}
	}
}

// restoreWorkspace resets ws to the snapshot: entries added since are
// dropped, changed or removed entries restored.
func restoreWorkspace(ws, snap map[string][]byte) {
	for k := range ws {
		if _, ok := snap[k]; !ok {
			delete(ws, k)
		}
	}
	for k, v := range snap {
		ws[k] = v
	}
}

func copyParams(p map[string]string) map[string]string {
	out := make(map[string]string, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// hashWorkspace fingerprints a workspace: every path and its content,
// NUL-terminated, in path order. buf is scratch space it may reuse.
func hashWorkspace(ws map[string][]byte, buf []byte) string {
	paths := make([]string, 0, len(ws))
	for p := range ws {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		buf = writeEntry(h, buf, p, ws[p])
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:8])
}

// writeEntry writes path, NUL, content, NUL to h, staging the path in
// buf so no write allocates; it returns buf for reuse.
func writeEntry(h hash.Hash, buf []byte, path string, content []byte) []byte {
	buf = append(append(buf[:0], path...), 0)
	h.Write(buf)
	h.Write(content)
	h.Write(buf[len(buf)-1:])
	return buf
}

// Journal is the lab notebook: the chronological record of executions.
type Journal struct {
	records []Record
}

// NewJournal creates an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Append records an execution with the reason it was run, assigning the
// iteration number.
func (j *Journal) Append(rec Record, reason string) Record {
	rec.Iteration = len(j.records) + 1
	rec.Reason = reason
	j.records = append(j.records, rec)
	return rec
}

// Records returns the history, oldest first.
func (j *Journal) Records() []Record { return append([]Record(nil), j.records...) }

// Len returns the number of journaled executions.
func (j *Journal) Len() int { return len(j.records) }

// Reproduced reports whether the two iterations produced identical
// workspaces (the notebook's "did the re-run match?" question).
func (j *Journal) Reproduced(iterA, iterB int) (bool, error) {
	a, err := j.record(iterA)
	if err != nil {
		return false, err
	}
	b, err := j.record(iterB)
	if err != nil {
		return false, err
	}
	return a.ResultHash == b.ResultHash, nil
}

func (j *Journal) record(iter int) (Record, error) {
	if iter < 1 || iter > len(j.records) {
		return Record{}, fmt.Errorf("pipeline: no journal iteration %d (have %d)", iter, len(j.records))
	}
	return j.records[iter-1], nil
}

// Table exports the journal for analysis: iteration, reason, status,
// result hash and one column per parameter seen.
func (j *Journal) Table() *table.Table {
	keySet := map[string]bool{}
	for _, r := range j.records {
		for k := range r.Params {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cols := append([]string{"iteration", "reason", "status", "result"}, keys...)
	t := table.New(cols...)
	for _, r := range j.records {
		status := "ok"
		if r.Failed() {
			status = "failed"
		}
		row := []table.Value{
			table.Number(float64(r.Iteration)),
			table.String(r.Reason),
			table.String(status),
			table.String(r.ResultHash),
		}
		for _, k := range keys {
			row = append(row, table.String(r.Params[k]))
		}
		t.MustAppend(row...)
	}
	return t
}

// Format renders the journal as the human-readable lab notebook.
func (j *Journal) Format() string {
	var sb strings.Builder
	for _, r := range j.records {
		status := "ok"
		if r.Failed() {
			status = "FAILED"
		}
		cached := ""
		if r.CacheHits > 0 {
			cached = fmt.Sprintf("  [%d cached]", r.CacheHits)
		}
		fmt.Fprintf(&sb, "#%-3d %-7s result=%s  %s%s\n", r.Iteration, status, r.ResultHash, r.Reason, cached)
	}
	return sb.String()
}
