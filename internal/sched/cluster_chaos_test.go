package sched

import (
	"os"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"popper/internal/fault"
)

// chaosSeedEnv returns the fault seed for the scheduler chaos suite.
// `make chaos` sweeps it via CHAOS_SEED; plain `go test` stays pinned.
func chaosSeedEnv(t testing.TB) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 42
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer", raw)
	}
	return seed
}

// chaosClusterRules is the scheduler chaos schedule: a straggler, a
// flaky host and a crash, all in one sweep.
func chaosClusterRules() []fault.Rule {
	return []fault.Rule{
		{Site: "sched/host/" + hostName(3), Kind: fault.Latency, Delay: 30, After: 1, Times: 1},
		{Site: "sched/host/" + hostName(5), Kind: fault.Error, Times: 2, Msg: "flaky"},
		{Site: "sched/host/" + hostName(7), Kind: fault.Crash, After: 2, Msg: "died mid-sweep"},
	}
}

func runChaosCluster(t testing.TB, hosts, n, jobs int) *ClusterReport {
	t.Helper()
	cs, err := NewClusterScheduler(ClusterOptions{
		Hosts:  testFleet(t, hosts),
		Seed:   chaosSeedEnv(t),
		Faults: fault.NewInjector(chaosSeedEnv(t), chaosClusterRules()),
		Jobs:   jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	errs, rep := cs.Run(n, func(i int) error {
		calls.Add(1)
		return nil
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("task %d: %v", i, e)
		}
	}
	if int(calls.Load()) != n {
		t.Fatalf("fn ran %d times, want %d (exactly once per task)", calls.Load(), n)
	}
	return rep
}

// TestChaosClusterScheduleDeterministic is the scheduling determinism
// contract: with stealing, speculation, a straggler, a flaky host and
// a crash all active, the virtual schedule — placement, steal counts,
// speculation outcomes, winners, makespan — is a pure function of
// (seed, fleet, rules). Worker count shapes only wall-clock execution,
// so reports are identical at every Jobs level, run after run, under
// -race.
func TestChaosClusterScheduleDeterministic(t *testing.T) {
	const hosts, n = 12, 96
	base := runChaosCluster(t, hosts, n, 1)
	if base.Tasks != n {
		t.Fatalf("tasks = %d, want %d (survivors absorb the chaos)", base.Tasks, n)
	}
	if base.Steals == 0 {
		t.Fatal("the crash + straggler schedule must trigger stealing")
	}
	if !base.Hosts[7].Failed {
		t.Fatal("host 7 must crash under the chaos schedule")
	}
	if base.Replaced == 0 {
		t.Fatal("the flaky host must force re-placements")
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		for round := 0; round < 2; round++ {
			got := runChaosCluster(t, hosts, n, jobs)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("schedule diverged at jobs=%d round=%d:\n got %+v\nwant %+v", jobs, round, got, base)
			}
		}
	}
}

// TestChaosVictimSelectionSeeded pins the other half of the determinism
// trick: victim selection among tied queues is a seeded counter-mode
// coin, so two runs with the same seed agree steal for steal, while a
// different seed is free to pick different victims without changing
// what completes.
func TestChaosVictimSelectionSeeded(t *testing.T) {
	run := func(seed int64) *ClusterReport {
		// Hosts 0 and 1 are equal stragglers, so their round-robin
		// shares back up into two equal piles and thieves always face a
		// tie.
		rules := append(stragglerRules(), fault.Rule{Site: "sched/host/" + hostName(1), Kind: fault.Latency, Delay: 9, Prob: 1})
		cs, err := NewClusterScheduler(ClusterOptions{
			Hosts: testFleet(t, 8), Faults: fault.NewInjector(42, rules),
			Seed: seed, NoSpeculate: true, Jobs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rep := cs.Run(64, nil)
		return rep
	}
	a1, a2 := run(1), run(1)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed must reproduce the same steal schedule:\n%+v\n%+v", a1, a2)
	}
	b := run(99)
	if b.Tasks != a1.Tasks {
		t.Fatalf("seed changes completions: %d vs %d", b.Tasks, a1.Tasks)
	}
}

// TestStealHotPathAllocationBounds pins the steal hot path's allocation
// profile: popping queued work and probing an empty victim must not
// allocate — a drained 1024-host fleet probes constantly, and garbage
// there would dominate the event loop.
func TestStealHotPathAllocationBounds(t *testing.T) {
	var victim, thief deque
	for i := 0; i < 1024; i++ {
		victim.push(i)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := victim.pop(); !ok {
			// Refill outside the measured path is impossible here; the
			// 1024-deep queue outlasts 200 runs.
			t.Fatal("victim drained mid-measurement")
		}
	}); avg != 0 {
		t.Fatalf("pop allocates %.1f times per run, want 0", avg)
	}
	var empty deque
	if avg := testing.AllocsPerRun(200, func() {
		if moved := empty.stealInto(&thief); moved != 0 {
			t.Fatal("steal from empty deque moved tasks")
		}
	}); avg != 0 {
		t.Fatalf("empty-deque steal allocates %.1f times per run, want 0", avg)
	}
	// A steal whose thief ring already has capacity moves tasks without
	// allocating either — the grow is the only allocation site.
	thief.grow(1024)
	if avg := testing.AllocsPerRun(100, func() {
		victim.stealInto(&thief)
		for {
			if _, ok := thief.pop(); !ok {
				break
			}
		}
	}); avg != 0 {
		t.Fatalf("warm steal allocates %.1f times per run, want 0", avg)
	}
}
