package core

import (
	"fmt"
	"testing"

	"popper/internal/fault"
	"popper/internal/sched"
)

// clusterChaosSpec layers scheduler-level chaos on top of the golden
// pipeline chaos: a straggler host, a flaky host and a mid-sweep crash
// in the simulated fleet (hosts are named sweep-<k> by the elastic
// provisioner), alongside the usual stage faults. The scheduler reacts
// — steals, re-places, redistributes — entirely in virtual time, so
// every artifact must still come out byte-identical to the flat serial
// sweep.
const clusterChaosSpec = chaosSpec + `
  - site: sched/host/sweep-1
    kind: latency
    delay: 25
    after: 1
    times: 1
  - site: sched/host/sweep-2
    kind: error
    times: 1
    msg: flaky sweep host
  - site: sched/host/sweep-3
    kind: crash
    after: 1
    msg: sweep host died
`

func clusterChaosInjector(t *testing.T) *fault.Injector {
	t.Helper()
	spec, err := fault.ParseSpec(clusterChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = chaosSeed(t)
	return spec.Injector()
}

// TestChaosClusterSweepByteIdenticalToSerial is the cluster half of the
// resilience contract: a sweep fanned across a simulated fleet — with
// work stealing, speculation, a straggler, a flaky host and a host
// crash all active — produces byte-identical results.csv, failures.csv
// and journal to the flat serial sweep, at every hosts × jobs level,
// under -race.
func TestChaosClusterSweepByteIdenticalToSerial(t *testing.T) {
	retry := fault.Retry{Max: 3, Backoff: 0.25, Jitter: 0.5}
	pSerial, srSerial := runChaosSweep(t, 1, SweepOptions{
		Retry: retry, Faults: clusterChaosInjector(t),
	})
	want := chaosFiles(t, pSerial)
	if srSerial.Sched != nil {
		t.Fatal("flat sweep must not produce a cluster schedule report")
	}

	for _, hosts := range []int{4, 16} {
		for _, jobs := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("hosts=%d/jobs=%d", hosts, jobs), func(t *testing.T) {
				p, sr := runChaosSweep(t, jobs, SweepOptions{
					Retry: retry, Faults: clusterChaosInjector(t),
					Hosts: hosts,
				})
				if sr.Sched == nil {
					t.Fatal("cluster sweep must report its schedule")
				}
				if got, want := len(sr.Sched.Hosts), hosts; got != want {
					t.Fatalf("fleet size %d, want %d", got, want)
				}
				if sr.Sched.Tasks == 0 {
					t.Fatal("schedule completed no configurations")
				}
				got := chaosFiles(t, p)
				for _, rel := range chaosArtifacts {
					if got[rel] != want[rel] {
						t.Errorf("%s diverged from serial run:\n--- cluster (hosts=%d jobs=%d)\n%s\n--- serial\n%s",
							rel, hosts, jobs, got[rel], want[rel])
					}
				}
				// The schedule's outcome bookkeeping must agree with the
				// sweep's: same quarantine set, same pass/fail.
				if gotF, wantF := len(sr.Failed()), len(srSerial.Failed()); gotF != wantF {
					t.Errorf("quarantined %d configs, serial quarantined %d", gotF, wantF)
				}
			})
		}
	}
}

// TestChaosClusterScheduleDeterministicInCore re-runs the same cluster
// sweep twice and demands identical schedule reports — placement,
// steals, speculation and makespan included — so the virtual schedule
// is as reproducible as the artifacts.
func TestChaosClusterScheduleDeterministicInCore(t *testing.T) {
	retry := fault.Retry{Max: 3, Backoff: 0.25, Jitter: 0.5}
	run := func(jobs int) *sched.ClusterReport {
		_, sr := runChaosSweep(t, jobs, SweepOptions{
			Retry: retry, Faults: clusterChaosInjector(t), Hosts: 8,
		})
		if sr.Sched == nil {
			t.Fatal("no schedule report")
		}
		return sr.Sched
	}
	a, b, c := run(1), run(4), run(8)
	if as, bs, cs := a.String(), b.String(), c.String(); as != bs || bs != cs {
		t.Fatalf("schedule diverged across jobs levels:\n1: %s\n4: %s\n8: %s", as, bs, cs)
	}
	if a.Makespan != b.Makespan || a.Steals != b.Steals || a.Speculations != b.Speculations {
		t.Fatalf("virtual schedule must not depend on worker count: %+v vs %+v", a, b)
	}
}
