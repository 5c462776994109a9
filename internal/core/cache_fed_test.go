package core

import (
	"testing"

	"popper/internal/fault"
	"popper/internal/pipeline"
)

// fedCacheConfigs is the small sweep matrix the federation tests share.
func fedCacheConfigs() []map[string]string {
	return []map[string]string{{"iterations": "2"}, {"iterations": "3"}}
}

// runFedSweep runs the canonical sweep across a 4-host simulated fleet
// with the given shared cache (federated over gasnet by RunSweep).
func runFedSweep(t *testing.T, cache *pipeline.Cache, opts SweepOptions) (*Project, SweepResult) {
	t.Helper()
	p := sweepProject(t)
	opts.Jobs = 1
	opts.Hosts = 4
	opts.Cache = cache
	sr, err := p.RunSweep("sweep", &Env{Seed: 2}, fedCacheConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, sr
}

// TestSweepFaultSaltIsolatesFederatedCache pins the cache-universe
// contract for chaos runs: an attached fault injector mixes its
// Fingerprint into the stage-cache salt, so a faulted sweep must never
// replay entries a clean sweep published into the federated tier (and
// vice versa), even though parameters, workspace and environment seed
// are identical.
func TestSweepFaultSaltIsolatesFederatedCache(t *testing.T) {
	cache := pipeline.NewCache()

	if _, sr := runFedSweep(t, cache, SweepOptions{}); !sr.Passed() {
		t.Fatalf("populating sweep failed: %v", sr.Err())
	}
	_, warm := runFedSweep(t, cache, SweepOptions{})
	if !warm.Passed() {
		t.Fatalf("warm sweep failed: %v", warm.Err())
	}
	for _, r := range warm.Runs {
		if r.Result.Record.CacheHits != 3 {
			t.Fatalf("config %d replayed %d stages from the tier, want 3", r.Index, r.Result.Record.CacheHits)
		}
	}
	st := cache.Stats()
	if st.LocalPeerHits+st.RemoteFetches == 0 {
		t.Fatal("warm federated sweep never consulted the peer index")
	}

	// The spec's only fault sits on a site no stage matches, so the run
	// is behaviorally identical to the clean ones — only the salt
	// differs. Every stage must still miss.
	spec, err := fault.ParseSpec("seed: 9\nfaults:\n  - site: pipeline/ghost/*\n    kind: latency\n    delay: 1\n")
	if err != nil {
		t.Fatal(err)
	}
	_, salted := runFedSweep(t, cache, SweepOptions{Faults: spec.Injector()})
	if !salted.Passed() {
		t.Fatalf("fault-salted sweep failed: %v", salted.Err())
	}
	// The salted sweep must look exactly like a cold one: config 0 all
	// misses, config 1 sharing only the setup entry config 0 just
	// stored inside the salted universe. A warm pattern (3 hits) would
	// mean entries leaked across the fault-salt boundary.
	if h0, h1 := salted.Runs[0].Result.Record.CacheHits, salted.Runs[1].Result.Record.CacheHits; h0 != 0 || h1 > 1 {
		t.Fatalf("fault-salted sweep shared the federated tier across the salt boundary (hits %d/%d, want 0/<=1)", h0, h1)
	}
}

// TestResumeSweepHitsFederatedCache drives the interruption path: a
// sweep cut off by Limit, then finished with -resume semantics, serves
// every re-executed configuration from the federated tier (populated by
// an earlier tenant's full sweep) without a single recompute, and its
// artifacts match an uninterrupted uncached run byte-for-byte.
func TestResumeSweepHitsFederatedCache(t *testing.T) {
	ref := sweepProject(t)
	srRef, err := ref.RunSweep("sweep", &Env{Seed: 2}, fedCacheConfigs(), SweepOptions{Jobs: 1})
	if err != nil || !srRef.Passed() {
		t.Fatalf("reference sweep: %v / %v", err, srRef.Err())
	}

	cache := pipeline.NewCache()
	if _, sr := runFedSweep(t, cache, SweepOptions{}); !sr.Passed() {
		t.Fatalf("tenant-1 sweep failed: %v", sr.Err())
	}

	// Tenant 2 is interrupted after one configuration...
	p2, srA := runFedSweep(t, cache, SweepOptions{Limit: 1})
	if srA.Passed() {
		t.Fatal("limited sweep must report itself incomplete")
	}

	// ...and resumed. The journaled configuration is adopted; the
	// pending one replays entirely from the tier.
	before := cache.Stats()
	srB, err := p2.RunSweep("sweep", &Env{Seed: 2}, fedCacheConfigs(), SweepOptions{
		Jobs: 1, Hosts: 4, Cache: cache, Resume: true,
	})
	if err != nil || !srB.Passed() {
		t.Fatalf("resumed sweep: %v / %v", err, srB.Err())
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("resumed sweep recomputed stages (%d new misses)", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("resumed sweep never hit the federated tier")
	}
	resumed, replayed := 0, 0
	for _, r := range srB.Runs {
		if r.Resumed {
			resumed++
			continue
		}
		replayed++
		if r.Result.Record.CacheHits != 3 {
			t.Fatalf("resumed config %d hit %d stages, want full replay (3)", r.Index, r.Result.Record.CacheHits)
		}
	}
	if resumed != 1 || replayed != 1 {
		t.Fatalf("resumed=%d replayed=%d, want 1/1", resumed, replayed)
	}

	// Interruption + resume + federated replay leaves the workspace
	// indistinguishable from the plain run.
	for _, rel := range []string{"results.csv", SweepJournalFile} {
		if got, want := string(p2.Files[expPath("sweep", rel)]), string(ref.Files[expPath("sweep", rel)]); got != want {
			t.Errorf("%s diverged from the uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", rel, got, want)
		}
	}
}

// TestClusterFederatedSweepByteIdenticalToSerial is the acceptance pin
// for the whole tier: a sweep fanned across 16 simulated hosts, sharing
// a federated cache, produces results, failures and journal
// byte-identical to the flat serial uncached run — twice, so the second
// round replays its stages from the cache under a fresh fleet's
// federation.
func TestClusterFederatedSweepByteIdenticalToSerial(t *testing.T) {
	configs := chaosConfigs()
	pRef := sweepProject(t)
	srRef, err := pRef.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{Jobs: 1})
	if err != nil || !srRef.Passed() {
		t.Fatalf("serial reference sweep: %v / %v", err, srRef.Err())
	}
	want := chaosFiles(t, pRef)

	cache := pipeline.NewCache()
	for round := 1; round <= 2; round++ {
		p := sweepProject(t)
		sr, err := p.RunSweep("sweep", &Env{Seed: 5}, configs, SweepOptions{
			Jobs: 4, Hosts: 16, Cache: cache,
		})
		if err != nil || !sr.Passed() {
			t.Fatalf("round %d cluster sweep: %v / %v", round, err, sr.Err())
		}
		if sr.Sched == nil || len(sr.Sched.Hosts) != 16 {
			t.Fatalf("round %d: expected a 16-host schedule report", round)
		}
		got := chaosFiles(t, p)
		for _, rel := range chaosArtifacts {
			if got[rel] != want[rel] {
				t.Errorf("round %d: %s diverged from serial uncached run:\n--- cluster\n%s\n--- serial\n%s",
					round, rel, got[rel], want[rel])
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("the second round never replayed from the cache: %+v", st)
	}
}
