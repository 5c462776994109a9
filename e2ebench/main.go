// Command e2ebench is the repository's end-to-end benchmark: it drives
// the `popper run` call sequence of cmd/popper through the public
// packages, on memory-backed repositories, and prints every metric as
// one JSON line.
//
//	e2ebench --workload cold-sweep|warm-rerun|replicated-scrub \
//	         --seed N --seconds S --trace 0|1
//
// --trace 0 times ops with tracing off and reports the end-to-end
// metrics; --trace 1 runs half the time untraced and half traced and
// reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-sweep, warm-rerun or replicated-scrub")
	seed := fs.Int64("seed", 1, "workload seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to time ops, after set-up")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep, err := measure(w, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if rep.spans != nil {
		if path, err := writeSpans(rep.spans, w.name, *seed); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
		} else {
			fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(rep.spans.spans), path)
		}
	}
	for _, line := range rep.context {
		fmt.Fprintln(stdout, "# "+line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 25

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result  result
	context []string
	spans   *tracer // nil unless traced
}

// measure sets the workload up setupReps times, then runs ops in a
// closed loop, one in flight, for budget. Traced, it alternates pairs
// of untraced and traced ops, so both kinds see the same machine state
// and every run seed of a workload.
func measure(w *workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	steal := startSteal()
	var setups []float64
	var s *state
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, as in a fresh process,
		// rather than on top of the previous set-up's garbage.
		runtime.GC()
		t0 := time.Now()
		st, err := setup(w, seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s = st
	}
	tr := newTracer()
	all, failed, firstErr := runOps(s, tr, budget, traced)
	var plain, tracedOps []sample
	for _, smp := range all {
		if smp.traced {
			tracedOps = append(tracedOps, smp)
		} else {
			plain = append(plain, smp)
		}
	}

	rep := &report{result: result{Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}}
	serr := stationary(all)
	rep.result.Correct = failed == 0 && serr == nil

	walls := opValues(plain, func(s sample) float64 { return ms(s.wall) })
	// The tail is context, not a metric: on ops of 10-20 ms it follows
	// the host's CPU steal bursts more than the program, and between runs
	// of the same code on a shared 2-vCPU VM it spread by more than a
	// quarter of its median. README.md gives the figures.
	tailV, tailPct, _ := tail(walls)
	if traced {
		tracedWalls := opValues(tracedOps, func(s sample) float64 { return ms(s.wall) })
		for name, v := range layerMetrics(tr, tracedOps) {
			rep.result.Metrics[name] = v
		}
		rep.result.Metrics["trace.overhead_ms"] = metric{median(tracedWalls) - median(walls), "ms"}
		rep.spans = tr
	} else {
		amp, err := s.repo.spaceAmp()
		if err != nil {
			return nil, err
		}
		m := rep.result.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["op_p50_ms"] = metric{median(walls), "ms"}
		m["op_cpu_ms"] = metric{median(opValues(plain, func(s sample) float64 { return ms(s.cpu) })), "ms"}
		m["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
		m["space_amp"] = metric{amp, "ratio"}
		m["write_kb_per_op"] = metric{median(opValues(plain, func(s sample) float64 {
			return float64(s.io.WriteBytes) / 1024
		})), "KiB"}
		m["fsyncs_per_op"] = metric{median(opValues(plain, func(s sample) float64 {
			return float64(s.io.AllFsyncs())
		})), "count"}
	}

	rep.context = append(rep.context,
		fmt.Sprintf("context: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s steal=%.4f fs=memory",
			w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal.share()),
		fmt.Sprintf("ops: untraced=%d traced=%d failed=%d; p50 over %d ops; tail %.3f ms at p%.1f (%d ops beyond); setup_s median of %d",
			len(plain), len(tracedOps), rep.result.Failed, len(walls), tailV, tailPct, tailBeyond, setupReps))
	if firstErr != nil {
		rep.context = append(rep.context, "first failed op: "+firstErr.Error())
	}
	if serr != nil {
		rep.context = append(rep.context, "stationarity: "+serr.Error())
	}
	return rep, nil
}

// runOps runs ops until budget has passed and enough untraced ops for
// a tail percentile have completed, and returns them with the number
// that failed their checks and the first failure. With traced set, ops
// 2-3 of every four record spans.
func runOps(s *state, tr *tracer, budget time.Duration, traced bool) (ops []sample, failed int, firstErr error) {
	rec := newRecorder(tr, s.repo)
	deadline := time.Now().Add(budget)
	untraced := 0
	for op := 0; untraced <= tailBeyond || time.Now().Before(deadline); op++ {
		on := traced && op%4 >= 2
		tr.setOp(op, on)
		smp, err := s.op(rec)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		smp.id, smp.traced = op, on
		if !on {
			untraced++
		}
		ops = append(ops, smp)
	}
	return ops, failed, firstErr
}

// stationary compares the first op with the last op that ran the same
// input: per-op work that grows over a run makes its median
// meaningless. Files written, fsyncs and commits must match exactly,
// bytes written within 1%.
func stationary(ops []sample) error {
	if len(ops) == 0 {
		return errors.New("no ops ran")
	}
	first := ops[0]
	for i := len(ops) - 1; i > 0; i-- {
		last := ops[i]
		if last.input != first.input {
			continue
		}
		a, b := first.io, last.io
		switch {
		case a.Writes != b.Writes:
			return fmt.Errorf("files written moved from %d (first op) to %d (op %d)", a.Writes, b.Writes, i)
		case a.AllFsyncs() != b.AllFsyncs():
			return fmt.Errorf("fsyncs moved from %d (first op) to %d (op %d)", a.AllFsyncs(), b.AllFsyncs(), i)
		case a.Commits != b.Commits:
			return fmt.Errorf("commits moved from %d (first op) to %d (op %d)", a.Commits, b.Commits, i)
		case math.Abs(float64(b.WriteBytes-a.WriteBytes)) > 0.01*float64(a.WriteBytes):
			return fmt.Errorf("bytes written moved from %d (first op) to %d (op %d)", a.WriteBytes, b.WriteBytes, i)
		}
		return nil
	}
	return nil
}

// opValues maps the ops that passed their checks.
func opValues(ops []sample, f func(sample) float64) []float64 {
	var out []float64
	for _, s := range ops {
		if !s.failed {
			out = append(out, f(s))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeSpans writes the traced run's spans as CSV next to the
// benchmark's binary.
func writeSpans(tr *tracer, workload string, seed int64) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(filepath.Dir(exe), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeCSV(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
