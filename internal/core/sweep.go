package core

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/pipeline"
	"popper/internal/sched"
	"popper/internal/table"
	"popper/internal/yamlite"
)

// SweepDir is the directory under an experiment where per-configuration
// sweep outputs are stored (experiments/<name>/sweep/<idx>/...).
const SweepDir = "sweep"

// SweepFile is the optional per-experiment sweep axes declaration; when
// present, `popper run` expands it into a configuration matrix.
const SweepFile = "sweep.yml"

// SweepJournalFile is the sweep journal, relative to the experiment
// directory: one row per configuration with a known outcome. It is what
// makes an interrupted sweep resumable — `-resume` adopts recorded
// outcomes instead of re-running them (see docs/RESILIENCE.md).
const SweepJournalFile = SweepDir + "/journal.csv"

// FailuresFile is the quarantine report written next to results.csv:
// one row per terminally failed configuration.
const FailuresFile = "failures.csv"

// SweepOptions tunes a parameter sweep.
type SweepOptions struct {
	// Jobs is the worker-pool bound: how many configurations execute
	// concurrently. <= 0 means one worker per CPU; 1 is serial.
	Jobs int
	// Cache, when set, is shared by every configuration: stages whose
	// key material is unchanged replay instead of re-executing, both
	// across configurations (setup) and across repeated sweeps.
	Cache *pipeline.Cache
	// Faults is the deterministic chaos injector threaded through every
	// configuration's pipeline (sites "pipeline/<name>/<idx>/<stage>")
	// and consulted before each configuration attempt (sites
	// "sweep/<name>/config/<idx>"). Each configuration owns its sites,
	// so the failure schedule is identical at every Jobs level.
	Faults *fault.Injector
	// Retry is the per-configuration retry policy: a configuration that
	// fails retryably is re-run from a fresh workspace clone up to
	// Retry.Max more times; injected crashes are terminal. Backoff
	// delays are deterministic (ConfigRun.BackoffSeconds).
	Retry fault.Retry
	// Resume adopts outcomes recorded in the sweep journal instead of
	// re-running configurations that already completed — the recovery
	// path after an interrupted sweep. Entries whose parameters no
	// longer match the configuration matrix are re-run.
	Resume bool
	// Limit, when > 0, executes at most that many pending
	// configurations this invocation, leaving the rest unjournaled —
	// a deterministic model of a mid-sweep interruption (the sweep
	// stops cleanly after Limit configurations; a later Resume run
	// finishes the rest).
	Limit int
	// RecordMetrics, when set, is passed through to every
	// configuration's RunOptions: at the end of each configuration's run
	// it receives that run's metrics registry, which the shared Cache
	// has just recorded its cache_* gauges into, to publish the caller's
	// companion gauges (e.g. scrub_*) alongside.
	RecordMetrics func(*metrics.Registry)
	// Durable, when set, is called with the sweep journal (workspace
	// path + full content) after every configuration completes, so
	// progress reaches stable storage mid-sweep instead of only at the
	// final workspace sync. `popper run` wires this to the artifact
	// store's Put, which writes the journal as one put record that the
	// final sync folds into its commit: a crash between configurations
	// loses at most the in-flight ones. Calls are serialized; the first
	// error stops further calls and fails the sweep.
	Durable func(path string, data []byte) error
	// Hosts, when > 0, fans the sweep across that many simulated
	// cluster hosts through the cluster scheduler (locality-aware
	// placement, work stealing, speculative straggler re-execution —
	// see docs/SCHEDULING.md). The fleet is provisioned elastically via
	// orchestrate.Runner.ScaleGroup from HostProfile machines. The
	// virtual schedule shapes SweepResult.Sched only: results, journal
	// and failures stay byte-identical to a Hosts == 0 run.
	Hosts int
	// HostProfile names the cluster.MachineProfile the simulated fleet
	// is built from; empty means "cloudlab-c220g1".
	HostProfile string
	// Placement selects how configurations are assigned to hosts
	// (sched.PlaceRoundRobin or sched.PlaceLocality).
	Placement sched.PlacementPolicy
	// Locality gives configuration i a preferred host rank — typically
	// gassyfs SweepLocality output mapping each configuration's dataset
	// to the rank holding its blocks. Consulted by PlaceLocality; -1 or
	// missing entries mean "no hint".
	Locality []int
	// Stream turns on streaming validation inside every configuration:
	// executors checkpoint partial results and assertions are evaluated
	// incrementally as rows land (RunOptions.Stream).
	Stream bool
	// FailFast (with Stream) arms early cancellation: a configuration
	// whose assertions are proven unsatisfiable mid-run is stopped on
	// the spot, and the sweep stops dispatching the remaining pending
	// configurations. Cancelled and undispatched configurations are NOT
	// journaled — like Limit cut-offs they stay pending, so a later
	// -resume run (without fail-fast) finishes the sweep with results,
	// journal and failures byte-identical to a batch-mode sweep.
	FailFast bool
}

// ResumeError reports that -resume cannot trust the sweep journal: it
// is missing while per-configuration outputs exist, or it does not
// parse (torn by a crash, or damaged). The repair path is `popper fsck
// --repair`, which restores the journal from the artifact store's
// object cache — or quarantines it, after which a plain re-run
// regenerates every configuration.
type ResumeError struct {
	Experiment string
	Path       string
	Err        error
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("core: sweep %s: cannot resume: journal %s: %v; run `popper fsck --repair`, or re-run without -resume to regenerate everything",
		e.Experiment, e.Path, e.Err)
}

func (e *ResumeError) Unwrap() error { return e.Err }

// ConfigRun is the outcome of one sweep configuration. Errors are
// collected per configuration — a failing configuration never aborts
// the remaining ones.
type ConfigRun struct {
	Index     int
	Overrides map[string]string
	Result    RunResult
	Err       error
	// Attempts is how many times the configuration executed this
	// invocation (0 when the outcome was resumed or the configuration
	// was skipped).
	Attempts int
	// Quarantined marks a terminally failed configuration: its error
	// exhausted the retry policy (or was a crash), it is excluded from
	// the merged results, and it is recorded in failures.csv.
	Quarantined bool
	// Resumed marks an outcome adopted from a prior sweep's journal
	// without re-running the configuration.
	Resumed bool
	// Skipped marks a configuration this invocation never ran to a
	// recorded outcome: SweepOptions.Limit cut it off, a fail-fast stop
	// skipped its dispatch, or streaming validation cancelled it
	// mid-run (Cancelled below).
	Skipped bool
	// Cancelled marks a configuration stopped mid-run by streaming
	// fail-fast: an assertion group was proven unsatisfiable, execution
	// was abandoned, and no outcome was journaled — it stays pending
	// and -resume re-runs it to the authoritative batch verdict.
	Cancelled bool
	// BackoffSeconds is the total virtual backoff delay charged between
	// attempts.
	BackoffSeconds float64
}

// SweepResult is the outcome of RunSweep, in configuration (index)
// order regardless of completion order.
type SweepResult struct {
	Experiment string
	Runs       []ConfigRun
	// Results is the merged result table: every completed
	// configuration's rows, annotated with the swept parameter values.
	// Nil when no configuration produced results.
	Results *table.Table
	// Failures is the quarantine table mirrored to failures.csv; nil
	// when every configuration completed.
	Failures *table.Table
	// Sched is the cluster schedule report when the sweep ran with
	// SweepOptions.Hosts > 0 (nil otherwise): per-host placement and
	// steal counts, speculation outcomes, and the virtual makespan.
	Sched *sched.ClusterReport
}

// Passed reports whether every configuration ran (or was resumed) and
// validated; a quarantined or still-pending configuration fails the
// sweep.
func (s SweepResult) Passed() bool {
	for _, r := range s.Runs {
		if r.Skipped || r.Err != nil {
			return false
		}
		if !r.Resumed && !r.Result.Passed() {
			return false
		}
	}
	return len(s.Runs) > 0
}

// Failed lists the configurations that errored (the quarantine set).
func (s SweepResult) Failed() []ConfigRun {
	var out []ConfigRun
	for _, r := range s.Runs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Pending lists the configurations this invocation never ran (Limit
// interruptions); resume the sweep to finish them.
func (s SweepResult) Pending() []ConfigRun {
	var out []ConfigRun
	for _, r := range s.Runs {
		if r.Skipped {
			out = append(out, r)
		}
	}
	return out
}

// Err aggregates per-configuration failures into one error (nil when
// every configuration succeeded) — collect-and-report, not fail-fast.
func (s SweepResult) Err() error {
	failed := s.Failed()
	if len(failed) == 0 {
		return nil
	}
	lines := make([]string, 0, len(failed))
	for _, r := range failed {
		attempts := ""
		if r.Attempts > 1 {
			attempts = fmt.Sprintf(" after %d attempts", r.Attempts)
		}
		lines = append(lines, fmt.Sprintf("config %d (%s)%s: %v", r.Index, FormatOverrides(r.Overrides), attempts, r.Err))
	}
	return fmt.Errorf("core: sweep %s: %d/%d configurations failed:\n  %s",
		s.Experiment, len(failed), len(s.Runs), strings.Join(lines, "\n  "))
}

// FormatOverrides renders a configuration's overrides deterministically
// (sorted key=value pairs).
func FormatOverrides(overrides map[string]string) string {
	if len(overrides) == 0 {
		return "defaults"
	}
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + overrides[k]
	}
	return strings.Join(parts, " ")
}

// sweepJournalEntry is one parsed journal row.
type sweepJournalEntry struct {
	params   string
	status   string // "ok" or "failed"
	attempts int
	detail   string // result hash (ok) or error text (failed)
}

// parseSweepJournal decodes the journal CSV into per-index entries.
func parseSweepJournal(raw []byte) (map[int]sweepJournalEntry, error) {
	t, err := table.ParseCSV(string(raw))
	if err != nil {
		return nil, fmt.Errorf("sweep journal: %w", err)
	}
	for _, col := range journalColumns {
		if !t.HasColumn(col) {
			return nil, fmt.Errorf("sweep journal: missing column %q", col)
		}
	}
	out := make(map[int]sweepJournalEntry, t.Len())
	for r := 0; r < t.Len(); r++ {
		idx, err := strconv.Atoi(t.MustCell(r, "config").Text())
		if err != nil {
			return nil, fmt.Errorf("sweep journal row %d: bad config index: %w", r, err)
		}
		attempts, err := strconv.Atoi(t.MustCell(r, "attempts").Text())
		if err != nil {
			return nil, fmt.Errorf("sweep journal row %d: bad attempts: %w", r, err)
		}
		out[idx] = sweepJournalEntry{
			params:   t.MustCell(r, "params").Text(),
			status:   t.MustCell(r, "status").Text(),
			attempts: attempts,
			detail:   t.MustCell(r, "detail").Text(),
		}
	}
	return out, nil
}

// journalDetail flattens an outcome detail to a single CSV-stable line.
func journalDetail(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "\r", ""), "\n", " \\ ")
}

// journalRow is one configuration's journal record, owned by the
// worker that produced it.
type journalRow struct {
	index    int
	params   string
	status   string
	attempts int
	detail   string
}

// journalColumns is the sweep journal's header.
var journalColumns = []string{"config", "params", "status", "attempts", "detail"}

// journalHeader is the journal's rendered header line.
var journalHeader = csvLine(journalColumns...)

// render renders the row as one journal line, formatted exactly as
// the table the final sync writes renders it.
func (r journalRow) render() []byte {
	return csvLine(table.Number(float64(r.index)).Text(), r.params, r.status,
		table.Number(float64(r.attempts)).Text(), r.detail)
}

// csvLine renders one CSV record, newline included.
func csvLine(fields ...string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write(fields)
	w.Flush()
	return b.Bytes()
}

// durableJournal serializes incremental journal writes: each completed
// configuration hands the Durable sink the full journal so far, in
// index order and byte-identical to the final one. Rows stay sorted,
// each rendered to its line once, so a write costs one copy of the
// lines. The first sink error stops further writes and fails the sweep.
type durableJournal struct {
	path  string
	write func(path string, data []byte) error
	mu    sync.Mutex
	lines []journalLine // sorted by index
	size  int           // bytes across lines
	werr  error
}

// journalLine is one row's rendered journal line.
type journalLine struct {
	index int
	text  []byte
}

// add files a row at its index position without writing; callers hold
// mu or are the only user of d.
func (d *durableJournal) add(row journalRow) {
	if d.write == nil {
		return
	}
	line := row.render()
	i := sort.Search(len(d.lines), func(i int) bool { return d.lines[i].index >= row.index })
	d.lines = slices.Insert(d.lines, i, journalLine{index: row.index, text: line})
	d.size += len(line)
}

func (d *durableJournal) record(row journalRow) {
	if d.write == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.werr != nil {
		return
	}
	d.add(row)
	data := make([]byte, 0, len(journalHeader)+d.size)
	data = append(data, journalHeader...)
	for _, l := range d.lines {
		data = append(data, l.text...)
	}
	d.werr = d.write(d.path, data)
}

func (d *durableJournal) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.werr
}

// hasSweepOutputs reports whether any per-configuration sweep output
// exists for the experiment (journal aside) — evidence that a sweep ran
// here before.
func (p *Project) hasSweepOutputs(name string) bool {
	prefix := expPath(name, SweepDir) + "/"
	journal := expPath(name, SweepJournalFile)
	for path := range p.Files {
		if strings.HasPrefix(path, prefix) && path != journal {
			return true
		}
	}
	return false
}

// sweepConfigPath is a path under one configuration's sweep output
// directory.
func sweepConfigPath(name string, idx int, rest string) string {
	return expPath(name, fmt.Sprintf("%s/%03d/%s", SweepDir, idx, rest))
}

// RunSweep executes one experiment once per configuration, fanning the
// configurations out over a bounded worker pool. Each configuration
// runs against its own clone of the workspace, so configurations never
// race on files; outputs are merged back deterministically (index
// order) under experiments/<name>/sweep/<idx>/, and a combined result
// table — every configuration's rows annotated with its overrides —
// lands at experiments/<name>/results.csv.
//
// The sweep degrades gracefully under faults: a configuration that
// fails retryably is re-run per SweepOptions.Retry from a fresh clone;
// a configuration that fails terminally is quarantined — excluded from
// the merged results and recorded, with its attempt count and error, in
// experiments/<name>/failures.csv. Every completed configuration is
// journaled (see SweepJournalFile), and a sweep re-run with Resume set
// adopts journaled outcomes instead of re-running them, so an
// interrupted sweep finishes exactly where an uninterrupted one would
// have: results.csv, failures.csv and the journal come out
// byte-identical at any Jobs level.
//
// Per-configuration failures are collected in the returned SweepResult
// (see SweepResult.Err); the error return is reserved for sweep-level
// problems such as an unknown experiment or a corrupt journal.
func (p *Project) RunSweep(name string, env *Env, configs []map[string]string, opts SweepOptions) (SweepResult, error) {
	pr, err := p.prepare(name, env, true)
	if err != nil {
		return SweepResult{}, err
	}
	if len(configs) == 0 {
		configs = []map[string]string{nil}
	}
	sr := SweepResult{Experiment: name, Runs: make([]ConfigRun, len(configs))}
	clones := make([]map[string][]byte, len(configs))

	// Resume: adopt completed outcomes from the sweep journal. A journal
	// -resume cannot trust is a typed error pointing at fsck, not a
	// silent full re-run — silently discarding recorded outcomes would
	// hide the damage.
	prior := map[int]sweepJournalEntry{}
	if opts.Resume {
		journalPath := expPath(name, SweepJournalFile)
		if raw, ok := p.Files[journalPath]; ok {
			var err error
			prior, err = parseSweepJournal(raw)
			if err != nil {
				return SweepResult{}, &ResumeError{Experiment: name, Path: journalPath, Err: err}
			}
		} else if p.hasSweepOutputs(name) {
			return SweepResult{}, &ResumeError{Experiment: name, Path: journalPath,
				Err: errors.New("journal missing but per-configuration outputs exist")}
		}
	}
	var todo []int
	for i := range configs {
		run := &sr.Runs[i]
		run.Index, run.Overrides = i, configs[i]
		if ent, ok := prior[i]; ok && ent.params == FormatOverrides(configs[i]) {
			switch ent.status {
			case "ok":
				// Only adopt a success whose per-config outputs are
				// still present — the merge below re-reads them.
				if _, have := p.Files[sweepConfigPath(name, i, "results.csv")]; have {
					run.Resumed = true
					continue
				}
			case "failed":
				run.Resumed, run.Quarantined = true, true
				run.Err = fmt.Errorf("%s", ent.detail)
				continue
			}
		}
		todo = append(todo, i)
	}
	if opts.Limit > 0 && len(todo) > opts.Limit {
		for _, i := range todo[opts.Limit:] {
			sr.Runs[i].Skipped = true
		}
		todo = todo[:opts.Limit]
	}

	// Incremental durability: every completed configuration's outcome
	// reaches stable storage immediately, not just at the final sync.
	// The row set is guarded by its own mutex — workers only ever write
	// their own ConfigRun, so the journal builder must not read those.
	durable := &durableJournal{path: expPath(name, SweepJournalFile), write: opts.Durable}
	for i := range configs {
		run := &sr.Runs[i]
		if !run.Resumed {
			continue
		}
		ent := prior[i]
		durable.add(journalRow{
			index: i, params: FormatOverrides(run.Overrides),
			status: ent.status, attempts: ent.attempts, detail: ent.detail,
		})
	}

	// runConfig executes configuration todo[k]. host is the simulated
	// host the cluster schedule placed it on (-1 on the flat path or for
	// a lost task): a federated cache charges peer transfers to that
	// host's clock. The host never influences artifacts — only virtual
	// accounting — so the flat and cluster paths stay byte-identical.
	runConfig := func(k, host int) error {
		i := todo[k]
		run := &sr.Runs[i]
		site := fmt.Sprintf("sweep/%s/config/%03d", name, i)
		for attempt := 1; ; attempt++ {
			run.Attempts = attempt
			var err error
			// Configuration-level faults model a whole config's host or
			// process failing before the pipeline even starts.
			if opts.Faults != nil {
				if f := opts.Faults.Check(site); f != nil && f.Kind != fault.Latency {
					err = f
				}
			}
			if err == nil {
				// Every attempt starts from a fresh clone of the sweep's
				// base: a failed attempt can never leak partial state into
				// the retry.
				files := cloneFiles(pr.base)
				clones[i] = files
				proj := &Project{Files: files}
				run.Result, err = proj.runPrepared(pr, RunOptions{
					Cache:         opts.Cache,
					CacheHost:     host,
					Overrides:     configs[i],
					Faults:        opts.Faults,
					FaultScope:    fmt.Sprintf("%s/%03d", name, i),
					Stream:        opts.Stream,
					FailFast:      opts.FailFast,
					RecordMetrics: opts.RecordMetrics,
				})
			}
			run.Err = err
			if errors.Is(err, ErrValidationCancelled) {
				// Streaming fail-fast abandoned the configuration mid-run.
				// Nothing is journaled: like a Limit cut-off it stays
				// pending, which keeps the journal a record of
				// authoritative batch verdicts only — a -resume run
				// re-executes it in full and lands the same journal and
				// quarantine rows a batch-mode sweep would have.
				run.Skipped, run.Cancelled, run.Err = true, true, nil
				return err // non-nil: tells a fail-fast pool to stop dispatching
			}
			if err == nil {
				durable.record(journalRow{
					index: i, params: FormatOverrides(run.Overrides),
					status: "ok", attempts: attempt, detail: run.Result.Record.ResultHash,
				})
				return nil
			}
			if fault.IsTerminal(err) || attempt > opts.Retry.Max {
				run.Quarantined = true
				durable.record(journalRow{
					index: i, params: FormatOverrides(run.Overrides),
					status: "failed", attempts: attempt, detail: journalDetail(err.Error()),
				})
				return err
			}
			run.BackoffSeconds += opts.Retry.Delay(opts.Faults.Seed(), site, attempt)
		}
	}
	if opts.Hosts > 0 {
		// Cluster path: the scheduler decides placement, steals and
		// speculation in virtual time, then executes runConfig exactly
		// once per configuration in its dispatch order — same worker
		// pool underneath, so artifacts match the flat path byte for
		// byte; only sr.Sched differs.
		rep, err := runSweepCluster(pr.env, opts, todo, runConfig)
		if err != nil {
			return sr, fmt.Errorf("core: sweep %s: %w", name, err)
		}
		sr.Sched = rep
	} else {
		sched.NewPool(opts.Jobs).EachOpts(len(todo), func(k int) error { return runConfig(k, -1) },
			sched.Options{FailFast: opts.FailFast})
	}
	// Any scheduled configuration that never attempted execution — the
	// cluster schedule lost it, or a fail-fast stop skipped its dispatch
	// — stays pending, exactly like a Limit cut-off.
	for _, i := range todo {
		if sr.Runs[i].Attempts == 0 {
			sr.Runs[i].Skipped = true
		}
	}
	if err := durable.err(); err != nil {
		return sr, fmt.Errorf("core: sweep %s: durable journal: %w", name, err)
	}

	// Deterministic merge: index order, regardless of completion order.
	prefix := ExperimentDir + "/" + name + "/"
	var merged *table.Table
	for i := range configs {
		run := &sr.Runs[i]
		if run.Skipped || run.Err != nil {
			continue
		}
		var raw []byte
		if run.Resumed {
			// Adopted outcome: the per-config outputs already live in
			// the workspace from the journaled run.
			raw = p.Files[sweepConfigPath(name, i, "results.csv")]
		} else {
			for path, content := range clones[i] {
				if !strings.HasPrefix(path, prefix) {
					continue
				}
				rest := strings.TrimPrefix(path, prefix)
				if strings.HasPrefix(rest, SweepDir+"/") {
					continue
				}
				if orig, ok := p.Files[path]; ok && bytes.Equal(orig, content) {
					continue
				}
				p.Files[sweepConfigPath(name, i, rest)] = content
			}
			var ok bool
			raw, ok = clones[i][expPath(name, "results.csv")]
			if !ok {
				continue
			}
		}
		// The validate stage already parsed these bytes: merge its table.
		t := run.Result.validated.table
		if t == nil || !bytes.Equal(run.Result.validated.raw, raw) {
			var err error
			if t, err = table.ParseCSV(string(raw)); err != nil {
				run.Err = fmt.Errorf("core: sweep config %d results.csv: %w", i, err)
				run.Quarantined = true
				continue
			}
		}
		var mergeErr error
		merged, mergeErr = appendConfigRows(merged, t, configs[i])
		if mergeErr != nil {
			run.Err = fmt.Errorf("core: sweep config %d: %w", i, mergeErr)
			run.Quarantined = true
		}
	}
	sr.Results = merged
	if merged != nil {
		p.Files[expPath(name, "results.csv")] = []byte(merged.CSV())
	}

	// Quarantine report: one row per terminally failed configuration.
	failures := table.New("config", "params", "attempts", "error")
	journal := table.New(journalColumns...)
	for i := range configs {
		run := &sr.Runs[i]
		if run.Skipped {
			continue
		}
		params := FormatOverrides(run.Overrides)
		status, attempts, detail := "ok", run.Attempts, ""
		if run.Resumed {
			// Carry the journaled record forward verbatim so a resumed
			// sweep journals byte-identically to an uninterrupted one.
			ent := prior[i]
			attempts, detail = ent.attempts, ent.detail
		} else if run.Err != nil {
			detail = journalDetail(run.Err.Error())
		} else {
			detail = run.Result.Record.ResultHash
		}
		if run.Err != nil {
			status = "failed"
			failures.MustAppend(
				table.Number(float64(i)), table.String(params),
				table.Number(float64(attempts)), table.String(detail))
		}
		journal.MustAppend(
			table.Number(float64(i)), table.String(params), table.String(status),
			table.Number(float64(attempts)), table.String(detail))
	}
	if failures.Len() > 0 {
		sr.Failures = failures
		p.Files[expPath(name, FailuresFile)] = []byte(failures.CSV())
	} else {
		delete(p.Files, expPath(name, FailuresFile))
	}
	if journal.Len() > 0 {
		p.Files[expPath(name, SweepJournalFile)] = []byte(journal.CSV())
	}
	return sr, nil
}

// appendConfigRows folds one configuration's result rows into the
// merged sweep table, annotating them with the swept parameter values
// (override keys become columns unless the results already carry them).
func appendConfigRows(merged, t *table.Table, overrides map[string]string) (*table.Table, error) {
	var extra []string
	for k := range overrides {
		if !t.HasColumn(k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if merged == nil {
		merged = table.New(append(append([]string(nil), t.Columns()...), extra...)...)
	}
	fill := make(map[string]table.Value, len(overrides))
	for k, v := range overrides {
		fill[k] = table.String(v)
	}
	return merged, merged.AppendFrom(t, fill)
}

// cloneFiles shallow-copies a workspace: paths are copied, content
// slices are shared. Stages replace entries rather than mutating bytes
// in place (the pipeline.Context contract), so clones are safe to run
// concurrently.
func cloneFiles(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for k, v := range files {
		out[k] = v
	}
	return out
}

// sweepCloneFiles clones the workspace for one configuration run,
// excluding artifacts a previous sweep invocation generated (per-config
// outputs, journal, merged results, quarantine report). A resumed
// sweep's configurations therefore see exactly the workspace an
// uninterrupted run's configurations saw — which is what makes resumed
// results (and their workspace hashes) byte-identical.
func sweepCloneFiles(files map[string][]byte, name string) map[string][]byte {
	sweepPrefix := expPath(name, SweepDir) + "/"
	skip := map[string]bool{
		expPath(name, "results.csv"): true,
		expPath(name, FailuresFile):  true,
	}
	out := make(map[string][]byte, len(files))
	for k, v := range files {
		if skip[k] || strings.HasPrefix(k, sweepPrefix) {
			continue
		}
		out[k] = v
	}
	return out
}

// ParseSweep decodes a sweep.yml document — a mapping from parameter
// name to the list of values to sweep (scalars mean a single value) —
// into the cross-product configuration matrix, in deterministic order.
func ParseSweep(src string) ([]map[string]string, error) {
	doc, err := yamlite.DecodeMap(src)
	if err != nil {
		return nil, fmt.Errorf("core: sweep.yml: %w", err)
	}
	if len(doc) == 0 {
		return nil, fmt.Errorf("core: sweep.yml declares no axes")
	}
	axes := make(map[string][]string, len(doc))
	for key, val := range doc {
		switch v := val.(type) {
		case []any:
			if len(v) == 0 {
				return nil, fmt.Errorf("core: sweep.yml axis %q has no values", key)
			}
			values := make([]string, len(v))
			for i, e := range v {
				values[i] = scalarText(e)
			}
			axes[key] = values
		default:
			axes[key] = []string{scalarText(val)}
		}
	}
	return sched.MatrixFromMap(axes), nil
}
