package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"popper/internal/cluster"
	"popper/internal/fault"
)

// testFleet builds a uniform fleet of n hosts on the default profile.
func testFleet(t testing.TB, n int) []HostSpec {
	t.Helper()
	p, err := cluster.Profile("cloudlab-c220g1")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]HostSpec, n)
	for i := range specs {
		specs[i] = HostSpec{Name: hostName(i), Profile: p}
	}
	return specs
}

func hostName(i int) string {
	return fmt.Sprintf("h%04d", i)
}

func TestDequePushPopFIFO(t *testing.T) {
	var d deque
	for i := 0; i < 100; i++ {
		d.push(i)
	}
	for i := 0; i < 100; i++ {
		got, ok := d.pop()
		if !ok || got != i {
			t.Fatalf("pop %d = %d, %v; want FIFO order", i, got, ok)
		}
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque must report empty")
	}
}

func TestDequeStealTakesBackHalf(t *testing.T) {
	var victim, thief deque
	for i := 0; i < 10; i++ {
		victim.push(i)
	}
	if moved := victim.stealInto(&thief); moved != 5 {
		t.Fatalf("stole %d tasks, want 5", moved)
	}
	// The victim keeps its imminent work (front), the thief gets the
	// back half in preserved order.
	for i := 0; i < 5; i++ {
		if got, _ := victim.pop(); got != i {
			t.Fatalf("victim pop = %d, want %d", got, i)
		}
	}
	for i := 5; i < 10; i++ {
		if got, _ := thief.pop(); got != i {
			t.Fatalf("thief pop = %d, want %d", got, i)
		}
	}
	var empty deque
	if moved := empty.stealInto(&thief); moved != 0 {
		t.Fatalf("steal from empty deque moved %d", moved)
	}
}

func TestDequeStealOddSizeRoundsUp(t *testing.T) {
	var victim, thief deque
	victim.push(1)
	if moved := victim.stealInto(&thief); moved != 1 {
		t.Fatalf("stealing a 1-task queue moved %d, want 1", moved)
	}
	if victim.len() != 0 || thief.len() != 1 {
		t.Fatalf("after steal: victim %d thief %d", victim.len(), thief.len())
	}
}

func TestClusterSchedulerValidation(t *testing.T) {
	if _, err := NewClusterScheduler(ClusterOptions{}); err == nil {
		t.Fatal("empty fleet must be rejected")
	}
	if _, err := NewClusterScheduler(ClusterOptions{Hosts: []HostSpec{{Name: "h"}}}); err == nil {
		t.Fatal("host without profile must be rejected")
	}
	if _, err := NewClusterScheduler(ClusterOptions{
		Hosts: []HostSpec{{Profile: &cluster.MachineProfile{}}}}); err == nil {
		t.Fatal("host without name must be rejected")
	}
}

func TestClusterSchedulerRunsEveryTaskOnce(t *testing.T) {
	const n, hosts = 333, 16
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, hosts), Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	var calls [n]atomic.Int32
	errs, rep := cs.Run(n, func(i int) error {
		calls[i].Add(1)
		return nil
	})
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", i, got)
		}
		if errs[i] != nil {
			t.Fatalf("task %d: %v", i, errs[i])
		}
		if rep.Winner[i] < 0 || rep.Winner[i] >= hosts {
			t.Fatalf("task %d has no winning host: %d", i, rep.Winner[i])
		}
	}
	if rep.Tasks != n || rep.Lost != 0 {
		t.Fatalf("report: %d tasks, %d lost; want %d, 0", rep.Tasks, rep.Lost, n)
	}
	var executed, placed int
	for i, h := range rep.Hosts {
		executed += h.Executed
		placed += h.Placed
		// Round robin: the first n%hosts hosts take one task more.
		want := n / hosts
		if i < n%hosts {
			want++
		}
		if h.Placed != want {
			t.Fatalf("host %d placed %d tasks, want %d", i, h.Placed, want)
		}
	}
	if executed != n || placed != n {
		t.Fatalf("executed %d placed %d, want %d each", executed, placed, n)
	}
	// Uniform tasks on a uniform fleet: round-robin placement keeps
	// every host busy, so the makespan is the ideal n/hosts (with a
	// possible remainder task).
	if rep.Makespan > float64(n/hosts+1)+0.01 {
		t.Fatalf("makespan %.3f, want about %d", rep.Makespan, n/hosts+1)
	}
	if got := rep.ConfigsPerSec(); got <= 0 {
		t.Fatalf("ConfigsPerSec = %v", got)
	}
	if s := rep.String(); !strings.Contains(s, "configs") {
		t.Fatalf("report string %q", s)
	}
}

func TestClusterSchedulerFnErrorsSurface(t *testing.T) {
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, 4), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	errs, rep := cs.Run(10, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(errs[3], boom) {
		t.Fatalf("errs[3] = %v", errs[3])
	}
	// A real failure is the caller's business; the virtual schedule
	// still completes every configuration.
	if rep.Tasks != 10 {
		t.Fatalf("virtual tasks = %d, want 10", rep.Tasks)
	}
}

func TestCostOrderStartsAtSelf(t *testing.T) {
	specs := testFleet(t, 6)
	for from := 0; from < 6; from++ {
		order := costOrder(specs, from)
		if order[0] != from {
			t.Fatalf("costOrder(%d)[0] = %d; loopback must be cheapest", from, order[0])
		}
		seen := make(map[int]bool)
		for _, r := range order {
			seen[r] = true
		}
		if len(seen) != 6 {
			t.Fatalf("costOrder(%d) = %v, not a permutation", from, order)
		}
	}
}

func TestWorkStealingDrainsImbalance(t *testing.T) {
	const hosts, n = 8, 64
	// Host 0 runs every task 10× slow (stragglerRules), so its
	// round-robin share backs up; stealing must spread that backlog so
	// the makespan stays near the healthy n/hosts.
	cs, err := NewClusterScheduler(ClusterOptions{
		Hosts: testFleet(t, hosts), Faults: fault.NewInjector(42, stragglerRules()),
		NoSpeculate: true, Jobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rep := cs.Run(n, nil)
	if rep.Tasks != n {
		t.Fatalf("tasks = %d, want %d", rep.Tasks, n)
	}
	if rep.Steals == 0 {
		t.Fatal("an 8-host fleet with a backlog on straggler host 0 must steal")
	}
	// Ideal is n/hosts = 8s; allow generous slack for steal ramp-up.
	if rep.Makespan > float64(n)/float64(hosts)*2 {
		t.Fatalf("makespan %.2f, want near %.2f (stealing must rebalance)",
			rep.Makespan, float64(n)/float64(hosts))
	}
	var stolen int
	for _, h := range rep.Hosts {
		stolen += h.StolenTasks
	}
	if stolen == 0 {
		t.Fatal("per-host stolen-task counters must record the rebalance")
	}
}

func TestNoStealLeavesImbalance(t *testing.T) {
	const hosts, n = 8, 64
	cs, err := NewClusterScheduler(ClusterOptions{
		Hosts: testFleet(t, hosts), Faults: fault.NewInjector(42, stragglerRules()),
		NoSteal: true, NoSpeculate: true, Jobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rep := cs.Run(n, nil)
	if rep.Steals != 0 {
		t.Fatalf("NoSteal run recorded %d steals", rep.Steals)
	}
	// Without stealing, straggler host 0 runs its whole round-robin
	// share at 10 s a task.
	if want := float64(n/hosts) * 10; rep.Makespan < want-0.01 {
		t.Fatalf("makespan %.2f; without stealing host 0 must run its %d tasks serially (%.0f s)", rep.Makespan, n/hosts, want)
	}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	const hosts, n = 4, 16
	spec := func(noSpec bool) *ClusterReport {
		inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
			// The second task host 3 starts runs 50 virtual seconds
			// long — a straggler an idle peer should duplicate.
			{Site: "sched/host/" + hostName(3), Kind: fault.Latency, Delay: 50, After: 1, Times: 1},
		})
		cs, err := NewClusterScheduler(ClusterOptions{
			Hosts: testFleet(t, hosts), Faults: inj,
			NoSpeculate: noSpec, Jobs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rep := cs.Run(n, nil)
		if rep.Tasks != n {
			t.Fatalf("tasks = %d, want %d", rep.Tasks, n)
		}
		return rep
	}
	slow := spec(true)
	fast := spec(false)
	if slow.Makespan < 50 {
		t.Fatalf("no-speculation makespan %.2f, want >= 50 (the straggler)", slow.Makespan)
	}
	if fast.Speculations == 0 || fast.SpeculationWins == 0 {
		t.Fatalf("speculation run: %d copies, %d wins; want > 0", fast.Speculations, fast.SpeculationWins)
	}
	if fast.Makespan >= slow.Makespan/2 {
		t.Fatalf("speculation makespan %.2f vs %.2f; the duplicate copy must beat the straggler",
			fast.Makespan, slow.Makespan)
	}
}

func TestSpeculationExecutesTaskOnce(t *testing.T) {
	const hosts, n = 4, 16
	inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
		{Site: "sched/host/" + hostName(3), Kind: fault.Latency, Delay: 50, After: 1, Times: 1},
	})
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, hosts), Faults: inj, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var calls [n]atomic.Int32
	errs, rep := cs.Run(n, func(i int) error {
		calls[i].Add(1)
		return nil
	})
	if rep.Speculations == 0 {
		t.Fatal("the straggler must draw a speculative copy")
	}
	// Idempotence: two virtual copies, one real execution.
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times; speculation must not re-execute work", i, got)
		}
		if errs[i] != nil {
			t.Fatalf("task %d: %v", i, errs[i])
		}
	}
}

func TestInjectedErrorReplacesTask(t *testing.T) {
	const hosts, n = 4, 12
	inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
		{Site: "sched/host/" + hostName(1), Kind: fault.Error, Times: 1, Msg: "flaky host"},
	})
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, hosts), Faults: inj, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	errs, rep := cs.Run(n, nil)
	if rep.Replaced != 1 {
		t.Fatalf("replaced = %d, want 1", rep.Replaced)
	}
	if rep.Tasks != n || rep.Lost != 0 {
		t.Fatalf("tasks %d lost %d; a flaky attempt must not lose the configuration", rep.Tasks, rep.Lost)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("task %d: %v", i, e)
		}
	}
}

func TestCrashRedistributesQueue(t *testing.T) {
	const hosts, n = 4, 40
	inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
		{Site: "sched/host/" + hostName(2), Kind: fault.Crash, Msg: "host died"},
	})
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, hosts), Faults: inj, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	errs, rep := cs.Run(n, nil)
	if !rep.Hosts[2].Failed {
		t.Fatal("crashed host must be reported failed")
	}
	if rep.Hosts[2].Executed != 0 {
		t.Fatalf("crashed host executed %d tasks", rep.Hosts[2].Executed)
	}
	if rep.Tasks != n || rep.Lost != 0 {
		t.Fatalf("tasks %d lost %d; survivors must absorb the dead host's queue", rep.Tasks, rep.Lost)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("task %d: %v", i, e)
		}
	}
}

func TestWholeFleetCrashLosesRemainingTasks(t *testing.T) {
	inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
		{Site: "sched/host/*", Kind: fault.Crash, Msg: "rack power loss"},
	})
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: testFleet(t, 2), Faults: inj, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	errs, rep := cs.Run(10, nil)
	if rep.Lost != 10 || rep.Tasks != 0 {
		t.Fatalf("lost %d done %d; the whole fleet died before running anything", rep.Lost, rep.Tasks)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrSkipped) {
			t.Fatalf("task %d = %v, want ErrSkipped (never dispatched)", i, e)
		}
		if rep.Winner[i] != -1 {
			t.Fatalf("task %d has winner %d, want -1", i, rep.Winner[i])
		}
	}
}

func TestAttemptCapStopsErrorLivelock(t *testing.T) {
	// A prob-1 error rule across the whole fleet would re-place every
	// task forever; the attempt cap must abandon them instead.
	inj := fault.NewInjector(chaosSeedEnv(t), []fault.Rule{
		{Site: "sched/host/*", Kind: fault.Error, Prob: 1, Msg: "fleet-wide flake"},
	})
	cs, err := NewClusterScheduler(ClusterOptions{
		Hosts: testFleet(t, 3), Faults: inj, Jobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs, rep := cs.Run(6, nil)
	if rep.Tasks != 0 || rep.Lost != 6 {
		t.Fatalf("tasks %d lost %d; every configuration must be abandoned at the cap", rep.Tasks, rep.Lost)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrSkipped) {
			t.Fatalf("task %d = %v, want ErrSkipped", i, e)
		}
	}
}

func TestNodeClockAdvancesWithSchedule(t *testing.T) {
	clus := cluster.New(1)
	nodes, err := clus.Provision("cloudlab-c220g1", 4)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]HostSpec, len(nodes))
	for i, n := range nodes {
		specs[i] = HostSpec{Name: n.ID(), Profile: n.Profile(), Node: n}
	}
	cs, err := NewClusterScheduler(ClusterOptions{Hosts: specs, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, rep := cs.Run(16, nil)
	var maxClock float64
	for _, n := range nodes {
		if n.Now() > maxClock {
			maxClock = n.Now()
		}
	}
	if maxClock != rep.Makespan {
		t.Fatalf("max node clock %.3f != makespan %.3f; the schedule must drive logical time", maxClock, rep.Makespan)
	}
}
