// Command popper is the Popper-CLI from the paper: it bootstraps and
// manages repositories that follow the Popper convention.
//
//	popper init                      initialize a Popper repository here
//	popper experiment list           list curated experiment templates
//	popper add <template> <name>     add a template as experiments/<name>
//	popper paper list|add <t>        manuscript templates
//	popper check                     audit Popper compliance
//	popper lint                      parse every experiment's setup.yml
//	popper run <name> [-seed N]      execute an experiment end to end
//	                                 (-jobs N parallelizes; sweep.yml
//	                                 expands into a configuration matrix;
//	                                 -no-cache disables stage caching;
//	                                 -faults faults.yml injects a seeded
//	                                 chaos schedule; -max-retries N
//	                                 retries failing configurations;
//	                                 -resume finishes an interrupted
//	                                 sweep from its journal; -hosts N
//	                                 fans the sweep across N simulated
//	                                 cluster hosts, placed round robin
//	                                 with work stealing;
//	                                 -replicas N replicates the artifact
//	                                 store across N simulated nodes with
//	                                 quorum commits and epoch failover;
//	                                 -scrub-interval D runs detect-only
//	                                 scrub passes every D concurrent
//	                                 with the sweep, plus a final full
//	                                 pass that fails the run on silent
//	                                 corruption)
//	popper ci                        replay the repo's CI script locally
//	popper machines                  list simulated machine profiles
//	popper report                    render report.html from the repo
//	popper build-paper               render paper/paper.tex
//	popper fsck [--repair]           verify every tracked file, object
//	                                 and extent against the manifest,
//	                                 and that the object pool backs
//	                                 every committed content
//	                                 (every replica, plus agreement on
//	                                 committed state, on a replicated
//	                                 repository); --repair applies a
//	                                 plan whose every action names its
//	                                 byte source — replica quorum,
//	                                 object pool, intact workspace copy
//	                                 — and quarantines only what no
//	                                 source proves
//	popper scrub [--repair]          the same command as fsck
//
// Every command reads and writes the repository through the
// crash-consistent artifact store (internal/store): workspace changes
// land via atomic durable writes under a two-phase manifest commit, so
// a crash mid-command never tears the repository — `popper fsck
// --repair` plus `popper -resume run` recovers it exactly.
//
// The CLI operates on the current directory (override with -C <dir>).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"popper/internal/ci"
	"popper/internal/cluster"
	"popper/internal/core"
	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/orchestrate"
	"popper/internal/pipeline"
	"popper/internal/repl"
	"popper/internal/scrub"
	"popper/internal/store"
)

// repo is the store surface the CLI drives: the plain crash-consistent
// artifact store, or — with -replicas N — the quorum-replicated group,
// which replicates every manifest commit across N simulated nodes
// before acknowledging it. Both speak the same protocol, so every
// command works unchanged against either.
type repo interface {
	Load() (map[string][]byte, error)
	Sync(files map[string][]byte) (store.SyncStats, error)
	Put(path string, data []byte) error
	LoadCacheState() []byte
	SaveCacheState(data []byte) error
	SetFaults(inj *fault.Injector)
	Object(hash [sha256.Size]byte) ([]byte, bool)
}

// detectReplicas counts the replica trees a previous -replicas run
// provisioned under dir/.popper-replicas, so later invocations (and
// fsck) keep operating on the whole group without re-passing the flag.
func detectReplicas(dir string) int {
	ents, err := os.ReadDir(filepath.Join(dir, ".popper-replicas"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "r") {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return n + 1 // replica 0 lives in dir itself
}

// openRepo opens the repository: replicated when -replicas N (or a
// provisioned .popper-replicas tree) says so, plain otherwise.
func openRepo(dir string, replicas int, seed int64) (repo, error) {
	if replicas == 0 {
		replicas = detectReplicas(dir)
	}
	if replicas <= 1 {
		return store.Open(dir), nil
	}
	g, err := repl.OpenDir(dir, repl.Options{Replicas: replicas, Seed: seed})
	if err != nil {
		return nil, err
	}
	fmt.Printf("-- replicated store: %d replicas, primary r%d, epoch %d\n",
		g.Size(), g.Primary(), g.Epoch())
	return g, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popper:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popper", flag.ContinueOnError)
	dir := fs.String("C", ".", "repository directory")
	seed := fs.Int64("seed", 1, "simulation seed for `popper run`")
	jobs := fs.Int("jobs", 0, "worker pool size for `popper run` (0 = one per CPU, 1 = serial)")
	noCache := fs.Bool("no-cache", false, "disable content-addressed stage caching in `popper run`")
	faultsFile := fs.String("faults", "", "faults.yml chaos schedule for `popper run` (path relative to the repository)")
	maxRetries := fs.Int("max-retries", 0, "retry failing sweep configurations up to N times in `popper run`")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from its journal in `popper run`")
	hosts := fs.Int("hosts", 0, "fan a sweep across N simulated cluster hosts in `popper run` (0 = flat worker pool)")
	stream := fs.Bool("stream", false, "stream validations incrementally while experiments run in `popper run`")
	failFast := fs.Bool("fail-fast", false, "with -stream: cancel configurations whose assertions become unsatisfiable and stop dispatching the rest")
	scrubEvery := fs.Duration("scrub-interval", 0, "run detect-only integrity scrub passes every interval during `popper run`, plus a final full pass (0 = off)")
	replicas := fs.Int("replicas", 0, "replicate the artifact store across N simulated nodes with quorum commits (0 = auto-detect a provisioned group, 1 = plain store)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: popper [-C dir] [-seed n] [-jobs n] [-hosts n] [-replicas n] [-no-cache] [-faults f] [-max-retries n] [-resume] [-stream] [-fail-fast] [-scrub-interval d] <command> [args]")
		fmt.Fprintln(os.Stderr, "commands: init, experiment list, add, paper, check, lint, run, ci, machines, report, build-paper, fsck, scrub")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("no command")
	}
	switch rest[0] {
	case "init":
		return cmdInit(*dir)
	case "experiment":
		if len(rest) == 2 && rest[1] == "list" {
			fmt.Print(core.FormatTemplateList())
			return nil
		}
		return fmt.Errorf("usage: popper experiment list")
	case "paper":
		switch {
		case len(rest) == 2 && rest[1] == "list":
			fmt.Print(core.FormatPaperTemplateList())
			return nil
		case len(rest) == 3 && rest[1] == "add":
			return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
				if err := p.AddPaper(rest[2]); err != nil {
					return err
				}
				fmt.Printf("-- added paper template %q under paper/\n", rest[2])
				return nil
			})
		}
		return fmt.Errorf("usage: popper paper list | popper paper add <template>")
	case "add":
		if len(rest) != 3 {
			return fmt.Errorf("usage: popper add <template> <name>")
		}
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			if err := p.AddExperiment(rest[1], rest[2]); err != nil {
				return err
			}
			fmt.Printf("-- added experiment %q from template %q\n", rest[2], rest[1])
			return nil
		})
	case "check":
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			rep := p.Check()
			fmt.Print(rep.String())
			if !rep.Compliant() {
				return fmt.Errorf("repository is not Popper-compliant")
			}
			return nil
		})
	case "lint":
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			for _, name := range p.Experiments() {
				raw, ok := p.ExperimentFile(name, "setup.yml")
				if !ok {
					continue
				}
				if _, err := orchestrate.ParsePlaybook(string(raw)); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Printf("%s: setup.yml ok\n", name)
			}
			return nil
		})
	case "run":
		if len(rest) != 2 {
			return fmt.Errorf("usage: popper run <experiment>")
		}
		return withProject(*dir, *replicas, *seed, func(p *core.Project, st repo) error {
			name := rest[1]
			env := &core.Env{Seed: *seed}
			// -scrub-interval: a background scrubber shares the run. Its
			// detect-only passes interleave with sweep commits (the store
			// lock keeps each pass consistent), its counters land in the
			// run's metrics registry next to the cache_* gauges, and a
			// final full pass after the run fails it on silent corruption.
			var recordMetrics func(*metrics.Registry)
			var finishScrub func() error
			if *scrubEvery > 0 {
				sc := newScrubber(st, false)
				recordMetrics = sc.Record
				finishScrub = backgroundScrub(sc, *scrubEvery)
			}
			runBody := func() error {
				var cache *pipeline.Cache
				if !*noCache {
					// Warm-start from the sidecar the previous invocation saved
					// (absent or damaged state just means a cold cache), and
					// save the updated index back on the way out so the next
					// process starts warm too. Best-effort: a failed save (for
					// example a chaos run that crashed the disk) costs only a
					// cold start next time.
					cache = pipeline.NewCacheOpts(pipeline.CacheOptions{State: st.LoadCacheState()})
					if n := cache.WarmEntries(); n > 0 {
						fmt.Printf("-- stage cache warmed: %d entries from %s\n", n, store.CacheStatePath)
					}
					// The repository's own object pool backs the in-memory tier:
					// a miss on content the manifest proves (loose
					// .popper/objects or packed extents) is admitted from there
					// instead of recomputed.
					cache.Tier().SetFallback(st.Object)
					defer func() { _ = st.SaveCacheState(cache.SaveState()) }()
				}
				// A -faults schedule makes the run a chaos run: the seeded
				// injector drives deterministic failures through every layer.
				var injector *fault.Injector
				retry := fault.Retry{Max: *maxRetries, Backoff: 0.5, Jitter: 0.25}
				if *faultsFile != "" {
					raw, ok := p.Files[*faultsFile]
					if !ok {
						return fmt.Errorf("faults file %q not found in repository", *faultsFile)
					}
					spec, err := fault.ParseSpec(string(raw))
					if err != nil {
						return err
					}
					injector = spec.Injector()
					// Disk sites ("disk/<op>/<path>") share the same schedule:
					// crash-disk rules kill the command at an exact write,
					// rename or fsync boundary.
					st.SetFaults(injector)
					fmt.Printf("-- chaos run: %d fault rules, seed %d (fingerprint %s)\n",
						len(spec.Rules), spec.Seed, injector.Fingerprint())
				}
				// A sweep.yml next to vars.yml expands the run into a
				// configuration matrix driven by the worker pool.
				if raw, ok := p.ExperimentFile(name, core.SweepFile); ok {
					configs, err := core.ParseSweep(string(raw))
					if err != nil {
						return err
					}
					sr, err := p.RunSweep(name, env, configs, core.SweepOptions{
						Jobs: *jobs, Cache: cache,
						Faults: injector, Retry: retry, Resume: *resume,
						Hosts: *hosts,
						// -fail-fast implies -stream: cancellation needs the
						// incremental evaluator watching each run.
						Stream: *stream || *failFast, FailFast: *failFast,
						RecordMetrics: recordMetrics,
						// Journal durability: every completed configuration's
						// outcome reaches the artifact store immediately as a put
						// record, which the final workspace sync folds into its
						// commit, so a crash mid-sweep is resumable from the last
						// config.
						Durable: st.Put,
					})
					if err != nil {
						return err
					}
					if sr.Sched != nil {
						fmt.Printf("-- cluster schedule: %s\n", sr.Sched)
					}
					for _, run := range sr.Runs {
						status := "passed"
						switch {
						case run.Cancelled:
							status = "CANCELLED by streaming validation after " +
								fmt.Sprintf("%d rows", run.Result.Cancelled.Row) +
								" (pending; re-run with -resume for the full verdict)"
						case run.Skipped:
							status = "pending (re-run with -resume)"
						case run.Err != nil:
							status = "QUARANTINED: " + run.Err.Error()
						case run.Resumed:
							status = "passed (resumed from journal)"
						case run.Attempts > 1:
							status = fmt.Sprintf("passed after %d attempts", run.Attempts)
						}
						fmt.Printf("-- config %03d (%s): %s\n", run.Index, core.FormatOverrides(run.Overrides), status)
					}
					if cache != nil {
						cs := cache.Stats()
						fmt.Printf("-- stage cache: %d hits, %d misses, %s stored, %s deduped\n",
							cs.Hits, cs.Misses, humanBytes(cs.BytesAdded), humanBytes(cs.BytesDeduped))
						if cache.Federated() {
							fmt.Printf("-- federated tier: %d local peer hits, %d remote fetches (%s, %.3f vsec)\n",
								cs.LocalPeerHits, cs.RemoteFetches, humanBytes(cs.RemoteBytes), cs.FetchSeconds)
						}
						if ts := cache.Tier().Stats(); ts.FallbackHits > 0 {
							fmt.Printf("-- object tier: %d cache misses restored from repository objects\n", ts.FallbackHits)
						}
					}
					if err := sr.Err(); err != nil {
						fmt.Printf("-- quarantined configurations recorded in experiments/%s/%s\n", name, core.FailuresFile)
						return err
					}
					fmt.Printf("-- sweep %q passed: %d configurations (merged results in experiments/%s/results.csv)\n",
						name, len(sr.Runs), name)
					return nil
				}
				res, err := p.RunExperimentOpts(name, env, core.RunOptions{
					Cache: cache, Jobs: *jobs,
					Faults: injector, Retry: retry,
					Stream: *stream || *failFast, FailFast: *failFast,
					RecordMetrics: recordMetrics,
				})
				fmt.Print(res.Record.Log)
				if res.Cancelled != nil {
					fmt.Printf("-- run cancelled by streaming validation after %d rows: %s\n",
						res.Cancelled.Row, res.Cancelled.Detail)
				}
				if err != nil {
					return err
				}
				fmt.Printf("-- experiment %q passed (results in experiments/%s/results.csv)\n", name, name)
				return nil
			}
			rerr := runBody()
			if finishScrub != nil {
				if serr := finishScrub(); serr != nil {
					if rerr != nil {
						return fmt.Errorf("%v (additionally: %v)", rerr, serr)
					}
					return serr
				}
			}
			return rerr
		})
	case "ci":
		// run the repository's CI script locally, exactly as the service
		// would on a commit
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			var cfgSrc []byte
			for _, name := range []string{".popper-ci.yml", core.CIFile} {
				if content, ok := p.Files[name]; ok {
					cfgSrc = content
					break
				}
			}
			if cfgSrc == nil {
				return fmt.Errorf("no CI configuration (%s)", core.CIFile)
			}
			cfg, err := ci.ParseConfig(string(cfgSrc))
			if err != nil {
				return err
			}
			runner := core.CIRunner(&core.Env{Seed: *seed})
			matrix := cfg.Matrix
			if len(matrix) == 0 {
				matrix = []string{""}
			}
			for _, envSpec := range matrix {
				envMap := map[string]string{}
				for _, kv := range strings.Fields(envSpec) {
					if k, v, ok := strings.Cut(kv, "="); ok {
						envMap[k] = v
					}
				}
				for _, cmd := range cfg.Script {
					fmt.Printf("$ %s\n", cmd)
					out, err := runner(cmd, envMap, p.Files)
					if out != "" {
						fmt.Print(out)
						if !strings.HasSuffix(out, "\n") {
							fmt.Println()
						}
					}
					if err != nil {
						return fmt.Errorf("CI step %q failed: %w", cmd, err)
					}
				}
			}
			fmt.Println("-- CI script passed")
			return nil
		})
	case "machines":
		// the platforms vars.yml's `machine:` may name
		fmt.Println("-- available machine profiles --------")
		for _, name := range cluster.ProfileNames() {
			p, err := cluster.Profile(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-18s %d cores @ %.1f GHz, %d GiB RAM, %.0f GbE, jitter %.0f%%\n",
				name, p.Cores, p.ClockHz/1e9, p.RAMBytes>>30, p.NICBWBps*8/1e9, p.JitterSigma*100)
		}
		return nil
	case "report":
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			html, err := p.Report()
			if err != nil {
				return err
			}
			p.Files["report.html"] = []byte(html)
			fmt.Println("-- report written to report.html")
			return nil
		})
	case "build-paper":
		return withProject(*dir, *replicas, *seed, func(p *core.Project, _ repo) error {
			if err := p.BuildPaper(); err != nil {
				return err
			}
			fmt.Println("-- paper built: paper/paper.pdf")
			return nil
		})
	case "fsck", "scrub":
		repair := false
		for _, arg := range rest[1:] {
			switch arg {
			case "--repair", "-repair":
				repair = true
			default:
				return fmt.Errorf("usage: popper %s [--repair]", rest[0])
			}
		}
		return cmdFsck(*dir, repair, *replicas, *seed)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

func cmdInit(dir string) error {
	st := store.Open(dir)
	files, err := st.Load()
	if err != nil {
		return err
	}
	if core.Initialized(files) {
		return fmt.Errorf("%s is already a Popper repository", dir)
	}
	p := core.Init()
	// Keep whatever already lives in the directory: the first manifest
	// generation should describe the whole tracked tree.
	for path, content := range files {
		if _, ok := p.Files[path]; !ok {
			p.Files[path] = content
		}
	}
	if _, err := st.Sync(p.Files); err != nil {
		return err
	}
	fmt.Println("-- Initialized Popper repo")
	return nil
}

// cmdFsck verifies the repository — every replica of a replicated one,
// plus replica agreement — and prints the report; `popper scrub` is the
// same command. With --repair it applies the repair plan and proves
// convergence with a second verify. Quarantine is a completed repair;
// a replica that would not heal is not.
func cmdFsck(dir string, repair bool, replicas int, seed int64) error {
	if _, err := os.Stat(filepath.Join(dir, ".popper", "manifest")); err != nil {
		if _, cerr := os.Stat(filepath.Join(dir, core.ConfigFile)); cerr != nil {
			return fmt.Errorf("%s is not a Popper repository (no %s and no artifact manifest)", dir, core.ConfigFile)
		}
	}
	st, err := openRepo(dir, replicas, seed)
	if err != nil {
		return err
	}
	rep, err := newScrubber(st, repair).Scrub()
	if err != nil {
		return fmt.Errorf("%w (re-run `popper fsck --repair` once the store is reachable)", err)
	}
	fmt.Print(rep.Format())
	if !repair {
		if !rep.Clean() {
			return fmt.Errorf("repository needs repair (re-run with --repair)")
		}
		return nil
	}
	if n := rep.Count(store.Failed); n > 0 {
		return fmt.Errorf("%d finding(s) could not be healed; re-run with --repair once the group is reachable", n)
	}
	if !rep.Clean() {
		fmt.Println("-- repaired: a second verify of the tree is clean")
	}
	return nil
}

// newScrubber builds a scrubber over whichever store surface the CLI
// opened: the plain store, or the replicated group — which scrubs every
// replica and unlocks the quorum repair rung.
func newScrubber(st repo, repair bool) *scrub.Scrubber {
	if g, ok := st.(*repl.Group); ok {
		return scrub.New(nil, scrub.Options{Repair: repair, Group: g})
	}
	return scrub.New(st.(*store.Store), scrub.Options{Repair: repair})
}

// backgroundScrub starts detect-only scrub passes on a wall-clock
// cadence and returns the finisher: it joins the background loop, runs
// one final full pass, prints the report line, and fails on silent
// corruption.
func backgroundScrub(sc *scrub.Scrubber, every time.Duration) func() error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Mid-run passes are advisory; the final pass below is the
				// authoritative verdict.
				_, _ = sc.Scrub()
			}
		}
	}()
	return func() error {
		close(stop)
		<-done
		rep, err := sc.Scrub()
		if err != nil {
			return fmt.Errorf("final scrub pass: %w", err)
		}
		t := sc.Totals()
		fmt.Printf("-- scrub: %d pass(es), %d entries verified (%s), %d finding(s), %d healed, %d unrepairable\n",
			t.Passes, t.Scanned, humanBytes(t.Bytes), t.Findings, t.Healed, t.Unrepairable)
		// A lagging replica is anti-entropy's to catch up, not damage.
		for _, f := range rep.Findings {
			if f.State != store.StateLagging {
				fmt.Print(rep.Format())
				return fmt.Errorf("scrub detected silent corruption (heal with `popper fsck --repair`)")
			}
		}
		return nil
	}
}

// withProject loads the workspace through the artifact store, applies
// fn, and syncs changes back crash-consistently: atomic durable writes
// under a two-phase manifest commit, with stale files pruned by the
// manifest diff. In replicated mode the sync is a quorum commit — it
// only acknowledges once a majority of replicas hold the new
// generation.
func withProject(dir string, replicas int, seed int64, fn func(*core.Project, repo) error) error {
	st, err := openRepo(dir, replicas, seed)
	if err != nil {
		return err
	}
	files, err := st.Load()
	if err != nil {
		return err
	}
	p, err := core.Load(files)
	if err != nil {
		return err
	}
	ferr := fn(p, st)
	if _, serr := st.Sync(p.Files); serr != nil {
		if ferr != nil {
			return fmt.Errorf("%v (additionally, the workspace sync failed: %v)", ferr, serr)
		}
		return serr
	}
	return ferr
}

// humanBytes renders a byte count for the report line.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// mustLoadDir reads a directory tree into a flat path map (skipping
// dot-directories like .git). The store's Load is the production path;
// this survives as the reference loader the tests cross-check.
func mustLoadDir(dir string) map[string][]byte {
	files := map[string][]byte{}
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil || rel == "." {
			return nil
		}
		base := filepath.Base(rel)
		if info.IsDir() {
			if strings.HasPrefix(base, ".") && base != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(base, ".") && base != core.ConfigFile && base != core.CIFile &&
			base != ".popper-ci.yml" && base != ".gitkeep" {
			return nil
		}
		content, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		files[filepath.ToSlash(rel)] = content
		return nil
	})
	return files
}
