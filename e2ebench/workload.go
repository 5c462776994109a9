package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"popper/internal/core"
	"popper/internal/pipeline"
	"popper/internal/repl"
	"popper/internal/scrub"
)

// workload is one set of inputs the benchmark drives through the
// `popper run` call sequence. README.md says why each was chosen.
type workload struct {
	name     string
	template string // core template the experiment is added from
	exp      string // experiment name
	configs  int    // sweep configurations, one per seed-axis value
	axes     string // fixed sweep.yml axes besides seed
	replicas int    // 1 = plain store; N > 1 = `-replicas N`
	// runSeeds is how many distinct `-seed` values ops cycle through.
	runSeeds int
	// fresh makes every op the first run in a newly created repository;
	// otherwise ops re-run one repository the populating runs prepared.
	fresh bool
	// scrub follows every run with one detect-only scrub pass.
	scrub bool
}

var workloads = []*workload{
	{name: "cold-sweep", template: "cloverleaf", exp: "clover", configs: 32,
		axes: "iterations: 200\nproblem_size: 24\n", replicas: 1, runSeeds: 1, fresh: true},
	{name: "warm-rerun", template: "cloverleaf", exp: "clover", configs: 32,
		axes: "iterations: 200\nproblem_size: 24\n", replicas: 1, runSeeds: 1},
	{name: "replicated-scrub", template: "torpor", exp: "tp", configs: 8,
		replicas: 3, runSeeds: 2, scrub: true},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// prefix names the module the store calls go to.
func (w *workload) prefix() string {
	if w.replicas > 1 {
		return "repl"
	}
	return "store"
}

// outputs are the bytes an op's result is checked against.
type outputs struct{ results, journal []byte }

// state is a workload after set-up: its generated inputs, the
// reference outputs per run seed, and (unless fresh) the repository
// every op re-runs.
type state struct {
	w         *workload
	sweepYAML []byte
	runSeeds  []int64
	repo      *repository // last op's repository when fresh
	ref       map[int64]outputs
	n         int // ops run so far, warm-up included
}

// setup generates the workload's inputs from seed, builds its
// repository, makes the populating runs that record the reference
// outputs, and runs one untimed warm-up op.
func setup(w *workload, seed int64) (*state, error) {
	rng := rand.New(rand.NewSource(seed))
	vals := rng.Perm(1_000_000)
	var axis []string
	for _, v := range vals[:w.configs] {
		axis = append(axis, fmt.Sprint(v+1))
	}
	s := &state{w: w, ref: map[int64]outputs{},
		sweepYAML: []byte("seed: [" + strings.Join(axis, ", ") + "]\n" + w.axes)}
	for _, v := range vals[w.configs : w.configs+w.runSeeds] {
		s.runSeeds = append(s.runSeeds, int64(v+1))
	}
	if !w.fresh {
		r, err := createRepository(w.replicas, w.template, w.exp, s.sweepYAML, s.runSeeds[0])
		if err != nil {
			return nil, fmt.Errorf("create repository: %w", err)
		}
		s.repo = r
		for _, rs := range s.runSeeds {
			res, err := runSequence(w, r, rs, nil)
			if err == nil {
				err = s.record(rs, res)
			}
			if err != nil {
				return nil, fmt.Errorf("populating run (seed %d): %w", rs, err)
			}
		}
	}
	if _, err := s.op(nil); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return s, nil
}

// record reads a populating run's outputs back from the repository and
// keeps them as the reference for its run seed.
func (s *state) record(runSeed int64, res runResult) error {
	if !res.sweep.Passed() {
		return errors.New("sweep did not pass")
	}
	out, err := s.readOutputs()
	if err != nil {
		return err
	}
	s.ref[runSeed] = out
	return nil
}

func (s *state) readOutputs() (outputs, error) {
	dir := core.ExperimentDir + "/" + s.w.exp + "/"
	results, err := s.repo.fss[0].ReadFile(dir + "results.csv")
	if err != nil {
		return outputs{}, err
	}
	journal, err := s.repo.fss[0].ReadFile(dir + core.SweepJournalFile)
	if err != nil {
		return outputs{}, err
	}
	return outputs{results: results, journal: journal}, nil
}

// sample is one op's measurement. A run keeps one per op, so it holds
// only what the metrics need: retained per-op garbage would grow the
// heap the ops themselves run against.
type sample struct {
	id        int  // op id, as the tracer numbers spans
	traced    bool // spans were recorded
	failed    bool // the op failed a check and is left out of timings
	wall, cpu time.Duration
	io        ioCounts // summed over replicas
	input     int      // index of the run seed the op used
	// layer holds the per-layer counts of a traced op (nil otherwise).
	layer map[string]float64
}

// op runs the next op: on a fresh workload in a newly created
// repository (untimed), then the timed run sequence, then the checks,
// whose first failure it returns. rec may be nil during set-up.
func (s *state) op(rec *recorder) (sample, error) {
	input := s.n % len(s.runSeeds)
	runSeed := s.runSeeds[input]
	s.n++
	smp := sample{input: input, failed: true}
	if s.w.fresh {
		r, err := createRepository(s.w.replicas, s.w.template, s.w.exp, s.sweepYAML, runSeed)
		if err != nil {
			return smp, fmt.Errorf("create repository: %w", err)
		}
		s.repo = r
	}
	if rec == nil {
		rec = newRecorder(newTracer(), s.repo)
	}
	rec.reset(s.repo)
	// Collect the previous op's garbage so each op starts from the same
	// heap state.
	runtime.GC()
	io0, cpu0, t0 := s.repo.snapshot(), cpuTime(), time.Now()
	res, err := runSequence(s.w, s.repo, runSeed, rec)
	smp.wall, smp.cpu = time.Since(t0), cpuTime()-cpu0
	smp.io = s.repo.snapshot().sub(io0)
	if err == nil {
		if _, have := s.ref[runSeed]; !have && s.w.fresh {
			err = s.record(runSeed, res)
		}
	}
	if err == nil {
		err = s.check(runSeed, res)
	}
	smp.failed = err != nil
	if rec.tr.on.Load() {
		smp.layer = layerCounts(s.w, res, rec, smp.io)
	}
	return smp, err
}

// check applies the per-op output checks.
func (s *state) check(runSeed int64, res runResult) error {
	if !res.sweep.Passed() {
		return errors.New("sweep did not pass")
	}
	got, err := s.readOutputs()
	if err != nil {
		return err
	}
	want := s.ref[runSeed]
	if !bytes.Equal(got.results, want.results) {
		return errors.New("results.csv differs from the reference")
	}
	if !bytes.Equal(got.journal, want.journal) {
		return errors.New("sweep journal differs from the reference")
	}
	if res.group != nil {
		h0, err := res.group.Store(0).TreeHash()
		if err != nil {
			return err
		}
		for id := 1; id < res.group.Size(); id++ {
			h, err := res.group.Store(id).TreeHash()
			if err != nil {
				return err
			}
			if h != h0 {
				return fmt.Errorf("replica %d tree differs from replica 0", id)
			}
		}
	}
	if res.scrub != nil && !res.scrub.Clean() {
		return fmt.Errorf("scrub found %d finding(s)", len(res.scrub.Findings))
	}
	return nil
}

// runResult is what one run sequence returns for checks and counts.
type runResult struct {
	sweep      core.SweepResult
	cache      *pipeline.Cache
	warm       int // entries restored from the sidecar
	savedBytes int // sidecar bytes saved
	group      *repl.Group
	scrub      *scrub.Report
}

// runSequence replays `popper [-replicas N] -seed S run <exp>` through
// the public packages in the CLI's order (cmd/popper: withProject plus
// the run command's sweep branch), then one detect-only `popper scrub`
// pass when the workload asks for it. Every call is a span when rec
// traces.
func runSequence(w *workload, r *repository, runSeed int64, rec *recorder) (runResult, error) {
	if rec == nil {
		rec = newRecorder(newTracer(), r)
	}
	var res runResult
	pre := w.prefix()

	t := rec.begin(pre+".open", -1)
	st, g, err := r.open(runSeed)
	rec.end(t)
	if err != nil {
		return res, err
	}
	res.group = g

	t = rec.begin(pre+".load", -1)
	files, err := st.Load()
	rec.end(t)
	if err != nil {
		return res, err
	}

	t = rec.begin("core.load", -1)
	p, err := core.Load(files)
	rec.end(t)
	if err != nil {
		return res, err
	}

	t = rec.begin(pre+".cache_state", -1)
	cacheState := st.LoadCacheState()
	rec.end(t)

	t = rec.begin("pipeline.restore", -1)
	cache := pipeline.NewCacheOpts(pipeline.CacheOptions{State: cacheState})
	rec.end(t)
	res.cache, res.warm = cache, cache.WarmEntries()

	// The hooks run on sweep workers, as children of the RunSweep span.
	sweepSpan := -1
	t = rec.begin("cas.set_fallback", -1)
	cache.Tier().SetFallback(func(hash [32]byte) ([]byte, bool) {
		c := rec.begin("cas.fallback", sweepSpan)
		defer rec.end(c)
		return st.Object(hash)
	})
	rec.end(t)

	raw, ok := p.ExperimentFile(w.exp, core.SweepFile)
	if !ok {
		return res, fmt.Errorf("experiment %s has no %s", w.exp, core.SweepFile)
	}
	t = rec.begin("core.parse_sweep", -1)
	configs, err := core.ParseSweep(string(raw))
	rec.end(t)
	if err != nil {
		return res, err
	}

	t = rec.begin("core.run_sweep", -1)
	sweepSpan = t.span
	res.sweep, err = p.RunSweep(w.exp, &core.Env{Seed: runSeed}, configs, core.SweepOptions{
		Jobs:  0,
		Cache: cache,
		Durable: func(path string, data []byte) error {
			c := rec.begin(pre+".put", sweepSpan)
			defer rec.end(c)
			return st.Put(path, data)
		},
	})
	rec.end(t)
	if err != nil {
		return res, err
	}

	t = rec.begin("pipeline.save", -1)
	saved := cache.SaveState()
	rec.end(t)
	res.savedBytes = len(saved)

	t = rec.begin(pre+".cache_state", -1)
	err = st.SaveCacheState(saved)
	rec.end(t)
	if err != nil {
		return res, fmt.Errorf("save cache state: %w", err)
	}

	t = rec.begin(pre+".sync", -1)
	_, err = st.Sync(p.Files)
	rec.end(t)
	if err != nil {
		return res, err
	}

	if w.scrub {
		t = rec.begin("scrub.pass", -1)
		res.scrub, err = scrub.New(nil, scrub.Options{Group: g}).Scrub()
		rec.end(t)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// recorder times the driver's calls as spans (when its tracer is on)
// and always counts each call name's invocations and I/O for the op.
type recorder struct {
	tr *tracer
	r  *repository

	mu    sync.Mutex
	calls map[string]callStats
}

type callStats struct {
	n  int64
	io ioCounts
}

// token is an open call.
type token struct {
	name string
	span int
	io0  ioCounts
}

func newRecorder(tr *tracer, r *repository) *recorder {
	return &recorder{tr: tr, r: r, calls: map[string]callStats{}}
}

// reset starts a new op over repository r.
func (rc *recorder) reset(r *repository) {
	rc.mu.Lock()
	rc.r, rc.calls = r, map[string]callStats{}
	rc.mu.Unlock()
}

// begin opens a call under parent (-1 for a call the driver makes
// directly; those run one at a time).
func (rc *recorder) begin(name string, parent int) token {
	return token{name: name, span: rc.tr.begin(name, parent, parent < 0), io0: rc.r.snapshot()}
}

func (rc *recorder) end(t token) {
	rc.tr.end(t.span)
	d := rc.r.snapshot().sub(t.io0)
	rc.mu.Lock()
	cs := rc.calls[t.name]
	cs.n++
	cs.io = cs.io.add(d)
	rc.calls[t.name] = cs
	rc.mu.Unlock()
}

// layerCounts gives the op's per-layer counts: work done per layer,
// read from the sweep result, the cache, the scrub report and the I/O
// of each call.
func layerCounts(w *workload, res runResult, rc *recorder, opIO ioCounts) map[string]float64 {
	m := map[string]float64{}
	for _, run := range res.sweep.Runs {
		m["sched.attempts"] += float64(run.Attempts)
		m["aver.assertions"] += float64(len(run.Result.Validation))
		for _, st := range run.Result.Record.Stages {
			if st.Ran {
				m["core.stages_executed"]++
			}
			if st.Cached {
				m["core.stages_replayed"]++
			}
		}
	}
	if res.sweep.Results != nil {
		m["aver.rows"] = float64(res.sweep.Results.Len())
	}
	if res.cache != nil {
		cs := res.cache.Stats()
		if lookups := cs.Hits + cs.Misses; lookups > 0 {
			m["pipeline.cache.hit_ratio"] = float64(cs.Hits) / float64(lookups)
		}
		m["pipeline.cache.kb_added"] = float64(cs.BytesAdded) / 1024
		m["pipeline.cache.kb_deduped"] = float64(cs.BytesDeduped) / 1024
	}
	m["pipeline.restore.entries"] = float64(res.warm)
	m["pipeline.save.kb"] = float64(res.savedBytes) / 1024
	if res.scrub != nil {
		m["scrub.entries"] = float64(res.scrub.Scanned)
		m["scrub.kb_verified"] = float64(res.scrub.Bytes) / 1024
		m["scrub.findings"] = float64(len(res.scrub.Findings))
	}

	rc.mu.Lock()
	defer rc.mu.Unlock()
	m["cas.fallback.calls"] = float64(rc.calls["cas.fallback"].n)
	if w.replicas > 1 {
		m["repl.commits"] = float64(opIO.Commits)
		m["repl.kb_written"] = float64(opIO.WriteBytes) / 1024
		m["repl.fsyncs"] = float64(opIO.AllFsyncs())
		return m
	}
	load, put, sync := rc.calls["store.load"], rc.calls["store.put"], rc.calls["store.sync"]
	m["store.load.kb_read"] = float64(load.io.ReadBytes) / 1024
	m["store.put.calls"] = float64(put.n)
	m["store.put.kb_written"] = float64(put.io.WriteBytes) / 1024
	m["store.put.fsyncs"] = float64(put.io.AllFsyncs())
	m["store.sync.files_written"] = float64(sync.io.Writes)
	m["store.sync.kb_written"] = float64(sync.io.WriteBytes) / 1024
	m["store.sync.fsyncs"] = float64(sync.io.AllFsyncs())
	m["store.commits"] = float64(opIO.Commits)
	return m
}
