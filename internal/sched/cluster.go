// Cluster-wide sweep scheduling: round-robin placement, per-host
// deques with work stealing, and speculative re-execution of stragglers,
// scaled to thousands of simulated hosts.
//
// The design splits the problem the way the rest of the toolchain splits
// simulation from execution: all scheduling decisions — which host runs
// which configuration, who steals from whom, which in-flight task gets a
// speculative copy, which copy wins — are made by a single-threaded
// discrete-event loop over the hosts' virtual clocks. The loop is a pure
// function of (options, fleet, fault schedule): it never reads wall
// time, goroutine interleaving or worker counts, so the schedule it
// produces is deterministic by construction — the same trick
// internal/fault plays with counter-mode hashing, applied to a whole
// scheduler. The real task functions then execute on the ordinary
// bounded worker pool in the loop's dispatch order, each task exactly
// once, depositing results into index-owned slots. Journals therefore
// come out byte-identical to a serial run: parallelism, steals and
// speculation reshape virtual time and the fleet report, never the
// artifacts.
//
// Speculative re-execution is race-clean and idempotent for the same
// reason: copies race only in virtual time, first (virtual) completion
// wins deterministically, and the configuration's side effects are
// applied exactly once no matter how many copies the schedule launched —
// equivalent to racing two copies of an idempotent task and keeping the
// winner, without paying twice. See docs/SCHEDULING.md.

package sched

import (
	"errors"
	"fmt"

	"popper/internal/cluster"
	"popper/internal/fault"
)

// HostSpec describes one simulated host of the scheduling fleet.
type HostSpec struct {
	// Name identifies the host in reports and fault sites
	// ("sched/host/<name>").
	Name string
	// Profile supplies the network parameters re-placement cost orders
	// and steal round trips are computed from. Required.
	Profile *cluster.MachineProfile
	// Node, when set, is the host's cluster node: its logical clock is
	// advanced to each completion the host wins, so cluster.MaxClock
	// over the fleet reports the sweep's virtual makespan.
	Node *cluster.Node
}

// ClusterOptions configure a cluster scheduler.
type ClusterOptions struct {
	// Hosts is the simulated fleet; at least one host is required.
	Hosts []HostSpec
	// Seed drives the deterministic victim-selection coin (and nothing
	// else — placement and speculation are seed-free).
	Seed int64
	// NoSteal disables work stealing; drained hosts idle instead.
	NoSteal bool
	// NoSpeculate disables speculative straggler re-execution.
	NoSpeculate bool
	// Faults is consulted once per copy start at site
	// "sched/host/<name>": latency faults slow the copy by Delay
	// (stragglers), errors fail the attempt (the task is re-placed by
	// cost order), crashes kill the host (its queue is redistributed).
	// The loop is single-threaded, so per-site occurrence counters are
	// deterministic. Nil disables injection.
	Faults *fault.Injector
	// Jobs bounds the real worker pool that executes task functions
	// (<= 0 means one per CPU). Purely a wall-clock knob: the virtual
	// schedule and every artifact are identical at any value.
	Jobs int
	// FailFast stops the real-execution pool from dispatching further
	// task functions after the first one returns a non-nil error;
	// undispatched tasks get ErrSkipped slots. The virtual schedule is
	// unaffected — only real execution is cut short, so which tasks
	// were skipped depends on the dispatch order (see Options.FailFast).
	FailFast bool
}

// HostReport is one host's slice of the fleet report.
type HostReport struct {
	Name string
	// Placed is how many tasks initial placement queued here.
	Placed int
	// Executed counts tasks whose winning copy ran here.
	Executed int
	// StolenTasks counts tasks this host acquired by stealing; Steals
	// counts the steal operations that acquired them.
	StolenTasks, Steals int
	// Speculated counts speculative copies launched here.
	Speculated int
	// Busy is the host's virtual seconds spent running copies.
	Busy float64
	// Failed marks a host killed by an injected crash.
	Failed bool
}

// ClusterReport summarizes one scheduled run.
type ClusterReport struct {
	Hosts []HostReport
	// Tasks is the number of tasks that completed (virtually).
	Tasks int
	// Steals, Speculations and SpeculationWins count steal operations,
	// speculative copies launched, and tasks whose speculative copy beat
	// the original.
	Steals, Speculations, SpeculationWins int
	// Replaced counts task attempts that failed with an injected host
	// error and were re-placed elsewhere.
	Replaced int
	// Lost counts tasks abandoned because every host died or the attempt
	// cap ran out; their error slots hold ErrSkipped unless a copy had
	// already been dispatched.
	Lost int
	// Makespan is the virtual time the last task completed at.
	Makespan float64
	// Winner[i] is the host index whose copy of task i won, -1 if lost.
	Winner []int
}

// ConfigsPerSec is the virtual sweep throughput — the scaling curve
// BenchmarkSweepScaling pins.
func (r *ClusterReport) ConfigsPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Tasks) / r.Makespan
}

// String renders the one-line recap `popper run -hosts` prints.
func (r *ClusterReport) String() string {
	return fmt.Sprintf("%d hosts: %d configs in %.3f virtual s (%.1f configs/s), %d steals, %d speculative copies (%d won)",
		len(r.Hosts), r.Tasks, r.Makespan, r.ConfigsPerSec(), r.Steals, r.Speculations, r.SpeculationWins)
}

// ClusterScheduler drives one sweep across a simulated fleet. Create
// with NewClusterScheduler; one scheduler is good for one Run.
type ClusterScheduler struct {
	opts ClusterOptions
}

// NewClusterScheduler validates the options and builds a scheduler.
func NewClusterScheduler(opts ClusterOptions) (*ClusterScheduler, error) {
	if len(opts.Hosts) == 0 {
		return nil, fmt.Errorf("sched: cluster scheduler needs at least one host")
	}
	for i, h := range opts.Hosts {
		if h.Profile == nil {
			return nil, fmt.Errorf("sched: host %d (%q) has no machine profile", i, h.Name)
		}
		if h.Name == "" {
			return nil, fmt.Errorf("sched: host %d has no name", i)
		}
	}
	return &ClusterScheduler{opts: opts}, nil
}

const (
	// taskSeconds is every copy's virtual duration before injected
	// latency.
	taskSeconds = 1.0
	// speculationFactor is the straggler threshold: a running copy whose
	// virtual duration exceeds speculationFactor × the mean
	// completed-copy duration is a speculation candidate.
	speculationFactor = 2
	// maxTaskAttempts bounds how many times one task is re-placed after
	// injected host errors before it is abandoned as lost — the
	// backstop against a fleet-wide prob-1 error rule livelocking the
	// loop.
	maxTaskAttempts = 8
)

// Task lifecycle states.
const (
	taskQueued  uint8 = iota // waiting in some host's deque
	taskRunning              // at least one copy in flight
	taskDone                 // a copy completed (winner recorded)
	taskLost                 // abandoned: no alive host / attempt cap
)

// schedHost is one host's mutable scheduling state. All fields are
// owned by the event loop — no locks, by design.
type schedHost struct {
	spec   HostSpec
	site   string // fault site, "sched/host/<name>", built once at init
	dq     deque
	clock  float64 // virtual now (== busyUntil while running)
	alive  bool
	parked bool

	cur          int     // running task, -1 when idle
	curStart     float64 // when the running copy started
	busyUntil    float64 // when the running copy completes
	curFailed    bool    // the running copy drew an injected error
	curSpec      bool    // the running copy is speculative
	curCandidate bool    // the running copy qualifies for speculation

	ver        uint32 // bumped to invalidate a pending completion event
	stealTries int    // counter feeding the seeded victim coin
	order      []int  // memoized cost order from this rank

	placed, executed, stolenTasks, steals, speculated int
	busy                                              float64
}

type taskState struct {
	state      uint8
	copies     uint8
	attempts   uint8
	dispatched bool
	winner     int32
	runnerA    int32 // primary copy's host
	runnerB    int32 // speculative copy's host (-1 when none)
	finish     float64
}

// completion event: host's running copy finishes at t. ver guards
// against cancelled copies (speculation losers).
type schedEvent struct {
	t    float64
	host int32
	ver  uint32
}

type eventHeap []schedEvent

func (h *eventHeap) push(e schedEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() schedEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(old[l], old[small]) {
			small = l
		}
		if r < n && eventLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// eventLess orders events by (time, host index) — the deterministic
// tie-break that makes simultaneous completions replay identically.
func eventLess(a, b schedEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.host < b.host
}

// clusterRun is the event loop's working state.
type clusterRun struct {
	opts       ClusterOptions
	hosts      []*schedHost
	tasks      []taskState
	events     eventHeap
	dispatch   []int // real-execution order (each task at most once)
	queued     int   // tasks sitting in deques, fleet-wide
	alive      int   // hosts still alive
	candidates int   // running copies eligible for speculation
	parked     int   // idle hosts waiting for work

	sumDur float64 // completed copy durations (the straggler baseline)
	nDur   int

	report ClusterReport
}

// Run schedules n tasks across the fleet and executes fn for each task
// the schedule dispatched (every task, absent injected host crashes that
// kill the whole fleet). fn may be nil for simulation-only runs — the
// benchmarks measure the scheduler itself that way. The returned error
// slice has one slot per task, in index order: fn's result, or
// ErrSkipped for tasks the schedule never dispatched.
func (s *ClusterScheduler) Run(n int, fn func(i int) error) ([]error, *ClusterReport) {
	if fn == nil {
		return s.RunHosted(n, nil)
	}
	return s.RunHosted(n, func(i, _ int) error { return fn(i) })
}

// RunHosted is Run with host attribution: fn additionally receives the
// index of the host whose copy of the task won the virtual schedule
// (-1 for a task the schedule dispatched but later lost to a fleet
// crash). Task functions that account per-host state — the federated
// cache charges transfers to the winning host's clock — use this; the
// host index must not influence fn's artifacts, only its accounting,
// or the byte-identical-to-serial guarantee is forfeit.
func (s *ClusterScheduler) RunHosted(n int, fn func(i, host int) error) ([]error, *ClusterReport) {
	errs := make([]error, n)
	r := &clusterRun{
		opts:  s.opts,
		hosts: make([]*schedHost, len(s.opts.Hosts)),
		tasks: make([]taskState, n),
		alive: len(s.opts.Hosts),
	}
	for i := range r.tasks {
		r.tasks[i].winner, r.tasks[i].runnerA, r.tasks[i].runnerB = -1, -1, -1
	}
	for i, spec := range s.opts.Hosts {
		r.hosts[i] = &schedHost{spec: spec, site: "sched/host/" + spec.Name, cur: -1, alive: true}
	}
	r.dispatch = make([]int, 0, n)
	r.report.Hosts = make([]HostReport, len(r.hosts))
	r.report.Winner = make([]int, n)
	for i := range r.report.Winner {
		r.report.Winner[i] = -1
	}

	if n > 0 {
		place(n, r.hosts)
		r.queued = n
		for i := range r.hosts {
			r.acquire(i, 0)
		}
		for len(r.events) > 0 {
			ev := r.events.pop()
			h := r.hosts[ev.host]
			if ev.ver != h.ver {
				continue // cancelled copy (speculation loser)
			}
			r.complete(int(ev.host), ev.t)
			// Completions can mint speculation candidates (the baseline
			// mean moves) and re-placements can repopulate queues; give
			// parked hosts a chance to pick the new work up.
			if r.parked > 0 && (r.candidates > 0 || r.queued > 0) {
				for i, sh := range r.hosts {
					if sh.parked && sh.alive {
						r.acquire(i, ev.t)
					}
				}
			}
		}
	}

	// Anything still queued or running has no host left to finish it.
	for i := range r.tasks {
		if st := r.tasks[i].state; st != taskDone {
			r.tasks[i].state = taskLost
			r.report.Lost++
			if !r.tasks[i].dispatched {
				errs[i] = ErrSkipped
			}
		}
	}
	for i, sh := range r.hosts {
		r.report.Hosts[i] = HostReport{
			Name: sh.spec.Name, Placed: sh.placed, Executed: sh.executed,
			StolenTasks: sh.stolenTasks, Steals: sh.steals,
			Speculated: sh.speculated, Busy: sh.busy, Failed: !sh.alive,
		}
	}

	// Real execution: the loop's dispatch order, each task exactly once,
	// on the ordinary bounded pool. Slot i of errs is owned by task i,
	// so workers deposit results without synchronization — and because
	// fn(i) is independent of which host virtually ran it, the artifacts
	// are byte-identical to a serial sweep.
	if fn != nil && len(r.dispatch) > 0 {
		slots := NewPool(s.opts.Jobs).EachOpts(len(r.dispatch), func(k int) error {
			i := r.dispatch[k]
			errs[i] = fn(i, r.report.Winner[i])
			return errs[i]
		}, Options{FailFast: s.opts.FailFast})
		// A fail-fast stop leaves dispatch slots unexecuted: surface
		// them as ErrSkipped in task-index space too.
		for k, e := range slots {
			if errors.Is(e, ErrSkipped) {
				errs[r.dispatch[k]] = ErrSkipped
			}
		}
	}
	rep := r.report
	return errs, &rep
}

// acquire gives idle host h work at virtual time t: pop its own deque,
// else steal, else speculate, else park.
func (r *clusterRun) acquire(h int, t float64) {
	sh := r.hosts[h]
	if !sh.alive || sh.cur >= 0 {
		return
	}
	if t > sh.clock {
		sh.clock = t
	}
	sh.parked = false
	for {
		task, ok := sh.dq.pop()
		if !ok && !r.opts.NoSteal {
			if victim := r.pickVictim(h); victim >= 0 {
				vh := r.hosts[victim]
				// A steal is one control round trip between the thief
				// and the victim — cheap, but not free.
				sh.clock += 2 * (sh.spec.Profile.NICLatS + vh.spec.Profile.NICLatS)
				moved := vh.dq.stealInto(&sh.dq)
				sh.steals++
				sh.stolenTasks += moved
				r.report.Steals++
				task, ok = sh.dq.pop()
			}
		}
		if ok {
			r.queued--
			if r.start(h, task, false) {
				return
			}
			if !sh.alive {
				return // the start drew a crash; host is gone
			}
			continue // attempt cap abandoned the task; take the next one
		}
		if !r.opts.NoSpeculate {
			if task := r.pickStraggler(h, sh.clock); task >= 0 {
				r.start(h, task, true)
				return
			}
		}
		sh.parked = true
		r.parked++
		return
	}
}

// pickVictim returns the alive host with the longest queue (nil when
// every queue is empty). Ties are broken by the seeded counter-mode
// coin — deterministic in (seed, thief, attempt number), exactly like
// a fault-injection decision, so victim selection replays identically
// while still spreading contending thieves across tied victims.
func (r *clusterRun) pickVictim(h int) int {
	sh := r.hosts[h]
	attempt := sh.stealTries
	sh.stealTries++
	longest, ties := 0, 0
	for i, other := range r.hosts {
		if i == h || !other.alive {
			continue
		}
		switch l := other.dq.len(); {
		case l == 0:
		case l > longest:
			longest, ties = l, 1
		case l == longest:
			ties++
		}
	}
	if longest == 0 {
		return -1
	}
	pick := 0
	if ties > 1 {
		pick = int(fault.Hash01(r.opts.Seed, sh.spec.Name, attempt) * float64(ties))
		if pick >= ties {
			pick = ties - 1
		}
	}
	for i, other := range r.hosts {
		if i == h || !other.alive || other.dq.len() != longest {
			continue
		}
		if pick == 0 {
			return i
		}
		pick--
	}
	return -1
}

// pickStraggler finds the in-flight straggler whose copy host h should
// duplicate: a single-copy task flagged as a speculation candidate at
// start, whose expected completion h would beat. Among several, the
// latest finisher (ties: lowest host index) — the one hurting the
// makespan most.
func (r *clusterRun) pickStraggler(h int, t float64) int {
	if r.candidates == 0 {
		return -1
	}
	best, bestFinish := -1, 0.0
	for _, other := range r.hosts {
		if other.cur < 0 || !other.curCandidate || r.tasks[other.cur].copies != 1 {
			continue
		}
		if t+taskSeconds >= other.busyUntil {
			continue // h would not beat the original copy
		}
		if best < 0 || other.busyUntil > bestFinish {
			best, bestFinish = other.cur, other.busyUntil
		}
	}
	return best
}

// start launches a copy of task on host h at the host's current clock.
// Returns true when the copy is in flight; false when the host crashed
// or the task was abandoned at its attempt cap.
func (r *clusterRun) start(h, task int, speculative bool) bool {
	sh := r.hosts[h]
	ts := &r.tasks[task]
	if !speculative {
		if int(ts.attempts) >= maxTaskAttempts {
			ts.state = taskLost
			return false
		}
		ts.attempts++
	}
	dur := taskSeconds
	failed := false
	if r.opts.Faults != nil {
		if f := r.opts.Faults.Check(sh.site); f != nil {
			switch f.Kind {
			case fault.Latency:
				dur += f.Delay
			case fault.Crash, fault.DiskCrash: // terminal: the host dies
				r.killHost(h, task, sh.clock)
				return false
			default: // error/partition: this attempt fails, host survives
				failed = true
			}
		}
	}
	if !ts.dispatched && !failed {
		ts.dispatched = true
		r.dispatch = append(r.dispatch, task)
	}
	ts.state = taskRunning
	ts.copies++
	if speculative {
		ts.runnerB = int32(h)
		sh.speculated++
		r.report.Speculations++
	} else {
		ts.runnerA = int32(h)
	}
	sh.cur, sh.curStart, sh.curFailed, sh.curSpec = task, sh.clock, failed, speculative
	sh.busyUntil = sh.clock + dur
	// Straggler flag, judged against the fleet's completed-copy mean at
	// launch time: a copy expected to run far past typical durations is
	// what idle hosts look for. Deterministic — the mean only moves at
	// completions, which the loop orders totally.
	sh.curCandidate = false
	if !r.opts.NoSpeculate && !speculative && r.nDur > 0 &&
		dur > speculationFactor*(r.sumDur/float64(r.nDur)) {
		sh.curCandidate = true
		r.candidates++
	}
	r.events.push(schedEvent{t: sh.busyUntil, host: int32(h), ver: sh.ver})
	return true
}

// complete processes host h's running copy finishing at time t.
func (r *clusterRun) complete(h int, t float64) {
	sh := r.hosts[h]
	task := sh.cur
	ts := &r.tasks[task]
	dur := t - sh.curStart
	sh.busy += dur
	sh.clock = t
	sh.cur = -1
	if sh.curCandidate {
		r.candidates--
		sh.curCandidate = false
	}
	r.sumDur += dur
	r.nDur++
	ts.copies--
	wasSpec := sh.curSpec
	if wasSpec {
		ts.runnerB = -1
	} else {
		ts.runnerA = -1
	}

	switch {
	case sh.curFailed:
		// The attempt failed with an injected host error. If a second
		// copy is still running, it carries the task; otherwise re-place
		// the task by cost order from the failing host.
		r.report.Replaced++
		if ts.copies == 0 && ts.state == taskRunning {
			r.requeue(task, h, t)
		}
	case ts.state == taskRunning:
		// First completion wins.
		ts.state = taskDone
		ts.winner = int32(h)
		ts.finish = t
		sh.executed++
		r.report.Tasks++
		r.report.Winner[task] = h
		if t > r.report.Makespan {
			r.report.Makespan = t
		}
		if wasSpec {
			r.report.SpeculationWins++
		}
		if sh.spec.Node != nil {
			sh.spec.Node.AdvanceTo(t)
		}
		// Cancel the losing copy: its host frees immediately.
		if ts.copies > 0 {
			loser := ts.runnerA
			if loser < 0 {
				loser = ts.runnerB
			}
			if loser >= 0 {
				r.cancel(int(loser), t)
				ts.copies = 0
				ts.runnerA, ts.runnerB = -1, -1
			}
		}
	}
	r.acquire(h, t)
}

// cancel aborts host h's running copy at time t (its task was won by
// another copy) and frees the host.
func (r *clusterRun) cancel(h int, t float64) {
	sh := r.hosts[h]
	if sh.cur < 0 {
		return
	}
	sh.ver++ // invalidate the pending completion event
	sh.busy += t - sh.curStart
	if sh.curCandidate {
		r.candidates--
		sh.curCandidate = false
	}
	sh.cur = -1
	sh.clock = t
	r.acquire(h, t)
}

// requeue re-places a task after a failed attempt on host `from`: the
// next alive host in `from`'s deterministic cost order takes it (the
// failing host itself is the fallback of last resort).
func (r *clusterRun) requeue(task, from int, t float64) {
	sh := r.hosts[from]
	if sh.order == nil {
		sh.order = costOrder(r.opts.Hosts, from)
	}
	target := -1
	for _, cand := range sh.order[1:] {
		if r.hosts[cand].alive {
			target = cand
			break
		}
	}
	if target < 0 {
		if !sh.alive {
			r.tasks[task].state = taskLost
			return
		}
		target = from
	}
	r.tasks[task].state = taskQueued
	r.hosts[target].dq.push(task)
	r.queued++
	if r.hosts[target].parked {
		r.parked--
		r.hosts[target].parked = false
		r.acquire(target, t)
	}
}

// killHost processes an injected crash on host h at time t while it was
// about to run `task`: the host dies, and its queued work — plus the
// triggering task — is redistributed across the surviving fleet by the
// host's cost order.
func (r *clusterRun) killHost(h, task int, t float64) {
	sh := r.hosts[h]
	sh.alive = false
	sh.ver++
	r.alive--
	if sh.parked {
		sh.parked = false
		r.parked--
	}
	if sh.order == nil {
		sh.order = costOrder(r.opts.Hosts, h)
	}
	var survivors []int
	for _, cand := range sh.order[1:] {
		if r.hosts[cand].alive {
			survivors = append(survivors, cand)
		}
	}
	orphans := make([]int, 0, sh.dq.len()+1)
	orphans = append(orphans, task)
	for {
		q, ok := sh.dq.pop()
		if !ok {
			break
		}
		r.queued--
		orphans = append(orphans, q)
	}
	if len(survivors) == 0 {
		for _, o := range orphans {
			r.tasks[o].state = taskLost
		}
		return
	}
	for k, o := range orphans {
		target := survivors[k%len(survivors)]
		r.tasks[o].state = taskQueued
		r.hosts[target].dq.push(o)
		r.queued++
	}
	for _, target := range survivors {
		if r.hosts[target].parked {
			r.parked--
			r.hosts[target].parked = false
			r.acquire(target, t)
		}
	}
}
