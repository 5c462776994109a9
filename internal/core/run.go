package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"popper/internal/aver"
	"popper/internal/dataset"
	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/orchestrate"
	"popper/internal/pipeline"
	"popper/internal/table"
)

// Env is the execution environment experiments run against: the
// simulation seed and the (optional) dataset store experiments resolve
// their data references from.
type Env struct {
	Seed  int64
	Store *dataset.Store
}

// ExecState is what an experiment's executable binding sees.
type ExecState struct {
	Ctx     *pipeline.Context
	Env     *Env
	Project *Project
	Name    string // experiment name
	// Results must be set by the executor; the post-run stage writes it
	// to results.csv.
	Results *table.Table
	// FigureASCII/FigureSVG, when set, are written to figure.txt /
	// figure.svg by the post-run stage.
	FigureASCII string
	FigureSVG   string

	// Streaming validation (RunOptions.Stream): the run stage attaches an
	// incremental Aver evaluator before invoking the executor, and the
	// executor reports progress through Checkpoint.
	stream    *aver.StreamEvaluator
	failFast  bool
	cancelled *aver.StreamViolation
}

// ErrValidationCancelled marks a run cancelled mid-flight because
// streaming validation proved an assertion unsatisfiable (fail-fast).
var ErrValidationCancelled = errors.New("core: run cancelled by streaming validation")

// Checkpoint lets an executor hand its partial Results to the streaming
// validator mid-run. Without streaming it is a no-op. New rows are
// evaluated incrementally in O(delta); if fail-fast is armed and an
// assertion group can no longer be satisfied, Checkpoint returns an
// error wrapping ErrValidationCancelled and the executor should stop
// and propagate it. Executors call it at natural batch boundaries
// (after appending each configuration's rows); calling with Results
// unset is harmless.
func (x *ExecState) Checkpoint() error {
	if x.stream == nil || x.Results == nil {
		return nil
	}
	if err := x.stream.Observe(x.Results); err != nil {
		// A recheck divergence means the incremental engine disagrees
		// with the batch evaluator — fail loudly, never silently.
		return err
	}
	if v := x.stream.Unsatisfiable(); v != nil && x.failFast {
		x.cancelled = v
		return fmt.Errorf("%w after %d rows: %v", ErrValidationCancelled, v.Row, v.Err())
	}
	return nil
}

// Executor is the executable binding of a template.
type Executor func(*ExecState) error

// Param returns an experiment parameter with a default.
func (x *ExecState) Param(key, def string) string { return x.Ctx.Param(key, def) }

// IntParam parses an integer parameter.
func (x *ExecState) IntParam(key string, def int) (int, error) {
	s := x.Param(key, "")
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("core: parameter %s=%q is not an integer", key, s)
	}
	return v, nil
}

// FloatParam parses a float parameter.
func (x *ExecState) FloatParam(key string, def float64) (float64, error) {
	s := x.Param(key, "")
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("core: parameter %s=%q is not a number", key, s)
	}
	return v, nil
}

// IntsParam parses a comma-separated integer list parameter.
func (x *ExecState) IntsParam(key string, def []int) ([]int, error) {
	s := x.Param(key, "")
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("core: parameter %s has non-integer element %q", key, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return def, nil
	}
	return out, nil
}

// StringsParam parses a comma-separated string list parameter.
func (x *ExecState) StringsParam(key string, def []string) []string {
	s := x.Param(key, "")
	if s == "" {
		return def
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// Seed combines the environment seed with the experiment's seed param.
func (x *ExecState) Seed() int64 {
	s, err := x.IntParam("seed", 1)
	if err != nil {
		s = 1
	}
	return x.Env.Seed*1000003 + int64(s)
}

// RunResult is the outcome of RunExperiment.
type RunResult struct {
	Record     pipeline.Record
	Validation []aver.Result
	// Cancelled is set when streaming validation cancelled the run
	// mid-flight (fail-fast): the violation that doomed it.
	Cancelled *aver.StreamViolation

	// validated is the results.csv the validate stage parsed, so a
	// sweep's merge need not parse the same bytes again.
	validated validatedResults
}

// validatedResults is a results.csv and the table parsed from it.
type validatedResults struct {
	raw   []byte
	table *table.Table
}

// Passed reports whether the pipeline and all validations succeeded.
func (r RunResult) Passed() bool {
	return !r.Record.Failed() && aver.AllPassed(r.Validation)
}

// RunOptions tunes one experiment execution.
type RunOptions struct {
	// Cache, when set, replays unchanged setup/run stages from the
	// content-addressed stage cache instead of re-executing them. The
	// cache key covers the experiment's input files, its parameters and
	// the environment seed; it assumes the dataset store contents are
	// stable for the cache's lifetime.
	Cache *pipeline.Cache
	// Jobs bounds intra-run concurrency (chunked Aver validation);
	// values <= 1 keep validation strictly serial.
	Jobs int
	// CacheHost is the simulated host this run executes on; a federated
	// Cache accounts peer-to-peer entry transfers on its virtual clock.
	// Negative disables federated accounting (the flat, un-clustered
	// path). Ignored when Cache is nil or has no federation attached.
	CacheHost int
	// Overrides are parameter overrides applied on top of vars.yml —
	// one sweep configuration.
	Overrides map[string]string
	// Faults is the deterministic chaos injector stage execution
	// consults (sites "pipeline/<scope>/<stage>"); nil disables
	// injection. Its fingerprint is mixed into the stage-cache salt so
	// chaos runs never share cache entries with clean runs.
	Faults *fault.Injector
	// FaultScope names this run in fault sites; empty means the
	// experiment name. Sweeps scope it per configuration
	// ("<experiment>/<idx>") so concurrent configurations draw from
	// independent, deterministic fault streams.
	FaultScope string
	// Retry is the per-stage retry policy applied to every defined
	// stage except teardown (Max 0 disables retrying).
	Retry fault.Retry
	// StageDeadline bounds each stage's virtual elapsed seconds (0 =
	// unbounded). Only injected latency moves the virtual clock, so
	// deadlines are deterministic functions of the fault schedule.
	StageDeadline float64
	// Stream evaluates validations.aver incrementally while the
	// experiment runs: executors that Checkpoint their partial results
	// get each appended batch checked in O(delta). The final batch
	// validation still runs unchanged — streaming only adds early
	// visibility, never replaces the authoritative verdict.
	Stream bool
	// FailFast (with Stream) cancels the run as soon as an assertion
	// group is proven unsatisfiable: the run stage fails with
	// ErrValidationCancelled instead of burning the remaining budget.
	FailFast bool
	// RecordMetrics, when set, is called once the run ends with the
	// run's metrics registry, into which the Cache (when set) has just
	// recorded its cache_* gauges — `popper run -scrub-interval` wires
	// the scrubber's scrub_* counters here, so one registry holds both
	// families. Without it no gauge is recorded.
	RecordMetrics func(*metrics.Registry)
}

// RunExperiment executes one experiment end to end through the staged
// pipeline: setup (orchestration check + dataset installation), run (the
// template's executable binding, which writes results.csv and figures),
// post-run (results integrity), validate (Aver over results.csv).
func (p *Project) RunExperiment(name string, env *Env) (RunResult, error) {
	return p.RunExperimentOpts(name, env, RunOptions{})
}

// RunExperimentOpts is RunExperiment with explicit options (stage
// caching, validation concurrency, parameter overrides).
func (p *Project) RunExperimentOpts(name string, env *Env, opts RunOptions) (RunResult, error) {
	pr, err := p.prepare(name, env, false)
	if err != nil {
		return RunResult{}, err
	}
	return p.runPrepared(pr, opts)
}

// prepared is what every run of one experiment in one invocation
// shares, resolved once by prepare: RunExperimentOpts prepares for its
// one run, RunSweep once for all of its configurations. That is sound
// because the project's files do not change while a sweep's pool runs.
type prepared struct {
	name string
	env  *Env
	tmpl *Template
	// params is vars.yml, flattened; each run copies it before applying
	// its overrides.
	params map[string]string
	// checks is validations.aver as parsed here; nil without the file.
	checks *checks
	// base is the workspace every sweep configuration attempt clones
	// (sweepCloneFiles of the project); nil outside a sweep.
	base map[string][]byte
}

// checks is a validations.aver source with its parse: the assertions,
// or the parse error.
type checks struct {
	src     string
	asserts []*aver.Assertion
	err     error
}

// prepare resolves an experiment's template, vars.yml and
// validations.aver once, and with sweep set the base clone of the
// workspace the sweep's configurations run against.
func (p *Project) prepare(name string, env *Env, sweep bool) (*prepared, error) {
	if env == nil {
		env = &Env{Seed: 1}
	}
	params, err := p.Params(name)
	if err != nil {
		return nil, err
	}
	tmpl, err := templateOfParams(name, params)
	if err != nil {
		return nil, err
	}
	pr := &prepared{name: name, env: env, tmpl: tmpl, params: params}
	if raw, ok := p.ExperimentFile(name, "validations.aver"); ok {
		asserts, err := aver.ParseFile(string(raw))
		pr.checks = &checks{src: string(raw), asserts: asserts, err: err}
	}
	if sweep {
		pr.base = sweepCloneFiles(p.Files, name)
	}
	return pr, nil
}

// assertions returns the parsed form of raw, a validations.aver as a
// run reads it: the prepared parse while raw is the prepared source, a
// fresh one when a stage rewrote the file.
func (pr *prepared) assertions(raw []byte) ([]*aver.Assertion, error) {
	if c := pr.checks; c != nil && string(raw) == c.src {
		return c.asserts, c.err
	}
	return aver.ParseFile(string(raw))
}

// runPrepared executes one run of a prepared experiment, with p's
// files as its workspace: setup (orchestration check + dataset
// installation), run (the template's executable binding, which writes
// results.csv and figures), post-run (results integrity), validate
// (Aver over results.csv).
func (p *Project) runPrepared(pr *prepared, opts RunOptions) (RunResult, error) {
	name, env, tmpl := pr.name, pr.env, pr.tmpl
	params := make(map[string]string, len(pr.params)+len(opts.Overrides))
	for k, v := range pr.params {
		params[k] = v
	}
	for k, v := range opts.Overrides {
		params[k] = v
	}
	ctx := &pipeline.Context{
		Params:    params,
		Workspace: p.Files,
		Metrics:   metrics.NewRegistry(metrics.Labels{"experiment": name}, nil),
	}
	state := &ExecState{Ctx: ctx, Env: env, Project: p, Name: name}
	var validation []aver.Result
	var validated validatedResults

	pl := pipeline.New(name)
	if opts.Cache != nil {
		pl.Cache = opts.Cache
		pl.CacheSalt = fmt.Sprintf("env-seed=%d", env.Seed)
		pl.CacheFilter = experimentInputFilter(name)
		pl.CacheHost = opts.CacheHost
	}
	pl.AddStage("setup", func(c *pipeline.Context) error {
		// Orchestration integrity: the playbook must parse and lint
		// against a minimal inventory (syntax tier of CI).
		if raw, ok := p.ExperimentFile(name, "setup.yml"); ok {
			pb, err := orchestrate.ParsePlaybook(string(raw))
			if err != nil {
				return err
			}
			inv := orchestrate.NewInventory()
			if err := inv.Add(orchestrate.NewHost("localhost", nil)); err != nil {
				return err
			}
			if err := orchestrate.NewRunner(inv).Check(pb); err != nil {
				return err
			}
			c.Logf("setup.yml: %d plays ok", len(pb.Plays))
		}
		// Dataset references: resolve and install from the store.
		refs, err := p.DatasetRefs(name)
		if err != nil {
			return err
		}
		if len(refs) > 0 && env.Store == nil {
			return fmt.Errorf("core: experiment %s references datasets but no store is configured", name)
		}
		for _, ref := range refs {
			mgr := dataset.NewManager(env.Store)
			ws := map[string][]byte{}
			pinned, err := mgr.Install(ref, ws)
			if err != nil {
				return err
			}
			for rel, content := range ws {
				p.Files[expPath(name, rel)] = content
			}
			if err := mgr.Verify(ref.Name, workspaceView(p, name)); err != nil {
				return err
			}
			c.Logf("installed dataset %s", pinned)
		}
		return nil
	})
	pl.AddStage("run", func(c *pipeline.Context) error {
		// Fresh stream per attempt: a retried run stage re-executes the
		// executor from scratch, so incremental state must restart too.
		state.stream, state.cancelled, state.failFast = nil, nil, opts.FailFast
		if opts.Stream {
			if raw, ok := p.ExperimentFile(name, "validations.aver"); ok {
				if asserts, err := pr.assertions(raw); err == nil {
					state.stream = aver.NewEvaluator().StreamAssertions(asserts, aver.StreamOptions{})
				}
				// A parse error is not reported here: the validate stage
				// fails with the identical message whether or not the run
				// streamed, keeping verdicts independent of -stream.
			}
		}
		if err := tmpl.run(state); err != nil {
			return err
		}
		// Final observation of any tail rows the executor appended after
		// its last checkpoint — observe only, never cancel: the work is
		// already done, so the batch validate stage owns the verdict.
		if state.stream != nil && state.Results != nil {
			if err := state.stream.Observe(state.Results); err != nil {
				return err
			}
			c.Logf("streamed validation: %d rows, %d incremental assertions, %d rechecks",
				state.stream.Rows(), state.stream.Incremental(), state.stream.Rechecks())
		}
		// Everything downstream (post-run, validate, cached replay)
		// reads from the workspace, so the run stage is the single
		// writer of the experiment's outputs.
		if state.Results == nil || state.Results.Len() == 0 {
			return fmt.Errorf("core: experiment %s produced no results", name)
		}
		c.Workspace[expPath(name, "results.csv")] = []byte(state.Results.CSV())
		if state.FigureASCII != "" {
			c.Workspace[expPath(name, "figure.txt")] = []byte(state.FigureASCII)
		}
		if state.FigureSVG != "" {
			c.Workspace[expPath(name, "figure.svg")] = []byte(state.FigureSVG)
		}
		return nil
	})
	pl.AddStage("post-run", func(c *pipeline.Context) error {
		raw, ok := c.Workspace[expPath(name, "results.csv")]
		if !ok {
			return fmt.Errorf("core: experiment %s produced no results", name)
		}
		results, err := table.ParseCSV(string(raw))
		if err != nil {
			return fmt.Errorf("core: experiment %s results.csv: %w", name, err)
		}
		c.Logf("results: %d rows", results.Len())
		return nil
	})
	pl.AddStage("validate", func(c *pipeline.Context) error {
		raw, ok := p.ExperimentFile(name, "validations.aver")
		if !ok {
			c.Logf("no validations.aver; skipping result validation")
			return nil
		}
		resRaw, ok := c.Workspace[expPath(name, "results.csv")]
		if !ok {
			return fmt.Errorf("core: experiment %s has no results to validate", name)
		}
		resultsTable, err := table.ParseCSV(string(resRaw))
		if err != nil {
			return err
		}
		validated = validatedResults{raw: resRaw, table: resultsTable}
		asserts, err := pr.assertions(raw)
		if err != nil {
			return err
		}
		ev := aver.NewEvaluator()
		ev.Jobs = opts.Jobs
		results, err := ev.CheckAssertions(asserts, resultsTable)
		if err != nil {
			return err
		}
		validation = results
		c.Logf("%s", aver.FormatResults(results))
		if !aver.AllPassed(results) {
			return fmt.Errorf("core: experiment %s failed result validation:\n%s",
				name, aver.FormatResults(results))
		}
		return nil
	})
	// The expensive stages are cacheable; validation always re-checks
	// (it feeds the RunResult.Validation side channel and embodies the
	// paper's "assertions are re-checked on every change").
	pl.CacheStage("setup", "core/setup@v1", []string{"seed"})
	pl.CacheStage("run", "core/run/"+tmpl.Name+"@v1", nil)
	pl.CacheStage("post-run", "core/post-run@v1", nil)

	// Resilience envelope: chaos injection, per-stage retry and
	// deadlines. Teardown is exempt from retrying — it must run exactly
	// once whatever happened before it.
	if opts.Faults != nil {
		pl.Faults = opts.Faults
		pl.FaultScope = opts.FaultScope
		pl.CacheSalt += "|faults=" + opts.Faults.Fingerprint()
	}
	for _, st := range pl.Stages() {
		if st == "teardown" {
			continue
		}
		if opts.Retry.Max > 0 {
			pl.RetryStage(st, opts.Retry)
		}
		if opts.StageDeadline > 0 {
			pl.StageDeadline(st, opts.StageDeadline)
		}
	}

	rec := pl.Run(ctx)
	// The registry's one reader is the RecordMetrics hook, so the cache
	// records its gauges only for it.
	if opts.RecordMetrics != nil {
		if opts.Cache != nil {
			opts.Cache.Record(ctx.Metrics)
		}
		opts.RecordMetrics(ctx.Metrics)
	}
	return RunResult{Record: rec, Validation: validation, Cancelled: state.cancelled, validated: validated}, rec.Err
}

// experimentInputFilter admits the experiment's input files — its
// convention artifacts and datasets — while excluding generated outputs
// (results.csv, figures, per-config sweep directories) and every other
// experiment's files, so a re-run keyed on unchanged inputs replays
// from cache even after outputs landed in the workspace.
func experimentInputFilter(name string) func(string) bool {
	prefix := ExperimentDir + "/" + name + "/"
	return func(path string) bool {
		if !strings.HasPrefix(path, prefix) {
			return false
		}
		switch rest := strings.TrimPrefix(path, prefix); {
		case rest == "results.csv" || rest == "figure.txt" || rest == "figure.svg":
			return false
		case strings.HasPrefix(rest, SweepDir+"/"):
			return false
		}
		return true
	}
}

// workspaceView exposes one experiment's files with experiment-relative
// paths (for dataset verification).
func workspaceView(p *Project, name string) map[string][]byte {
	prefix := ExperimentDir + "/" + name + "/"
	out := make(map[string][]byte)
	for path, content := range p.Files {
		if strings.HasPrefix(path, prefix) {
			out[strings.TrimPrefix(path, prefix)] = content
		}
	}
	return out
}
