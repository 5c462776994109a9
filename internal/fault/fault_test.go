package fault

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
)

// chaosSeed returns the seed the chaos suites run under; `make chaos`
// sets CHAOS_SEED to sweep a fixed matrix.
func chaosSeed(t testing.TB) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 42
}

func TestMatchSite(t *testing.T) {
	cases := []struct {
		pattern, site string
		want          bool
	}{
		{"pipeline/sweep/001/run", "pipeline/sweep/001/run", true},
		{"pipeline/*/run", "pipeline/sweep/001/run", true},
		{"pipeline/*", "pipeline/sweep/001/run", true},
		{"*", "anything/at/all", true},
		{"gasnet/getv/r*", "gasnet/getv/r7", true},
		{"gasnet/getv/r*", "gasnet/putv/r7", false},
		{"pipeline/*/setup", "pipeline/sweep/001/run", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := matchSite(c.pattern, c.site); got != c.want {
			t.Errorf("matchSite(%q, %q) = %v, want %v", c.pattern, c.site, got, c.want)
		}
	}
}

func TestInjectorOccurrenceWindow(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "stage/*", Kind: Error, After: 1, Times: 2}})
	var fired []int
	for occ := 0; occ < 6; occ++ {
		if f := inj.Check("stage/a"); f != nil {
			fired = append(fired, occ)
			if f.Occurrence != occ {
				t.Fatalf("occurrence = %d, want %d", f.Occurrence, occ)
			}
		}
	}
	// After=1 skips occurrence 0; Times=2 caps the injections.
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
	// The cap is per site: a different site gets its own budget.
	if f := inj.Check("stage/b"); f != nil {
		t.Fatal("occurrence 0 of stage/b must be skipped by After=1")
	}
	if f := inj.Check("stage/b"); f == nil {
		t.Fatal("occurrence 1 of stage/b must fire despite stage/a exhausting its own cap")
	}
}

func TestInjectorDeterministicAcrossInterleavings(t *testing.T) {
	seed := chaosSeed(t)
	rules := []Rule{{Site: "cfg/*", Kind: Error, Prob: 0.4}}
	schedule := func(siteOrder []string) map[string][]bool {
		inj := NewInjector(seed, rules)
		out := map[string][]bool{}
		for _, s := range siteOrder {
			out[s] = append(out[s], inj.Check(s) != nil)
		}
		return out
	}
	// Interleaved vs grouped arrival must produce the same per-site
	// decision streams: decisions depend only on (site, occurrence).
	interleaved := schedule([]string{"cfg/0", "cfg/1", "cfg/0", "cfg/1", "cfg/0", "cfg/1"})
	grouped := schedule([]string{"cfg/0", "cfg/0", "cfg/0", "cfg/1", "cfg/1", "cfg/1"})
	for site, want := range grouped {
		got := interleaved[site]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("site %s: interleaved %v != grouped %v", site, got, want)
		}
	}
	// And a probabilistic rule with this seed must actually vary by
	// occurrence (sanity that the coin is wired up).
	inj := NewInjector(seed, rules)
	fired := 0
	for i := 0; i < 200; i++ {
		if inj.Check("cfg/0") != nil {
			fired++
		}
	}
	if fired == 0 || fired == 200 {
		t.Fatalf("prob 0.4 fired %d/200 — coin not wired", fired)
	}
}

func TestInjectorConcurrentSites(t *testing.T) {
	inj := NewInjector(7, []Rule{{Site: "*", Kind: Error, Prob: 0.5, Times: 3}})
	var wg sync.WaitGroup
	results := make([][]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := fmt.Sprintf("worker/%d", g)
			for i := 0; i < 50; i++ {
				results[g] = append(results[g], inj.Check(site) != nil)
			}
		}(g)
	}
	wg.Wait()
	// Replaying serially yields identical per-site streams.
	replay := NewInjector(7, []Rule{{Site: "*", Kind: Error, Prob: 0.5, Times: 3}})
	for g := 0; g < 8; g++ {
		site := fmt.Sprintf("worker/%d", g)
		for i := 0; i < 50; i++ {
			want := replay.Check(site) != nil
			if results[g][i] != want {
				t.Fatalf("site %s occurrence %d diverged under concurrency", site, i)
			}
		}
	}
}

func TestFaultErrorAndKinds(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "net/*", Kind: Partition, Msg: "link down"}})
	f := inj.Check("net/r0")
	if f == nil {
		t.Fatal("partition must fire")
	}
	wrapped := fmt.Errorf("gasnet: getv: %w", f)
	if !IsPartition(wrapped) {
		t.Fatal("IsPartition must unwrap")
	}
	if IsCrash(wrapped) {
		t.Fatal("partition is not a crash")
	}
	if !f.Retryable() {
		t.Fatal("partitions are retryable")
	}
	crash := &Fault{Kind: Crash, Site: "x", Msg: "boom"}
	if crash.Retryable() || !IsCrash(fmt.Errorf("outer: %w", crash)) {
		t.Fatal("crash must be terminal and unwrappable")
	}
	if _, ok := As(errors.New("plain")); ok {
		t.Fatal("plain errors are not faults")
	}
	for _, f := range []*Fault{f, crash} {
		if f.Error() == "" {
			t.Fatal("faults must render diagnosably")
		}
	}
}

func TestParseSpec(t *testing.T) {
	src := `
seed: 99
faults:
  - site: pipeline/*/run
    kind: error
    prob: 0.5
    times: 2
    msg: flaky stage
  - site: gasnet/getv/*
    kind: partition
    after: 1
  - site: pipeline/*/setup
    kind: latency
    delay: 0.25
`
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 99 || len(spec.Rules) != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Rules[0].Kind != Error || spec.Rules[0].Prob != 0.5 || spec.Rules[0].Times != 2 {
		t.Fatalf("rule 0 = %+v", spec.Rules[0])
	}
	if spec.Rules[1].Kind != Partition || spec.Rules[1].After != 1 {
		t.Fatalf("rule 1 = %+v", spec.Rules[1])
	}
	if spec.Rules[2].Kind != Latency || spec.Rules[2].Delay != 0.25 {
		t.Fatalf("rule 2 = %+v", spec.Rules[2])
	}
	// Two injectors from one spec replay identical schedules.
	a, b := spec.Injector(), spec.Injector()
	for i := 0; i < 20; i++ {
		site := fmt.Sprintf("pipeline/exp/%d/run", i%3)
		fa, fb := a.Check(site), b.Check(site)
		if (fa == nil) != (fb == nil) {
			t.Fatalf("schedule diverged at %s#%d", site, i)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints of identical specs must match")
	}
	other := NewInjector(100, spec.Rules)
	if other.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds must fingerprint differently")
	}

	for _, bad := range []string{
		"",                                       // no faults
		"faults:\n  - kind: error\n",             // no site
		"faults:\n  - site: a\n    kind: warp\n", // unknown kind
		"faults:\n  - site: a\n    kind: latency\n",                 // latency without delay
		"faults:\n  - site: a\n    kind: latency\n    delay: nan\n", // NaN is no positive delay
		"faults:\n  - site: a\n    kind: latency\n    delay: inf\n", // a delay must be finite
		"faults:\n  - site: a\n    kind: error\n    delay: -inf\n",  // whatever the kind
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestRetryDelay(t *testing.T) {
	r := Retry{Max: 3, Backoff: 1, Jitter: 0.5}
	d1 := r.Delay(42, "stage/run", 1)
	d2 := r.Delay(42, "stage/run", 2)
	if d1 <= 0 || d2 <= 0 {
		t.Fatal("delays must be positive")
	}
	if d2 < d1 {
		t.Fatalf("backoff must grow: %g then %g", d1, d2)
	}
	if d1 < 0.5 || d1 > 1.5 || d2 < 1 || d2 > 3 {
		t.Fatalf("jitter out of bounds: %g, %g", d1, d2)
	}
	if r.Delay(42, "stage/run", 1) != d1 {
		t.Fatal("delays must be deterministic")
	}
	if r.Delay(43, "stage/run", 1) == d1 {
		t.Fatal("delays must depend on the seed")
	}
	if (Retry{Max: 2}).Delay(1, "k", 1) != 0 {
		t.Fatal("zero backoff means no delay")
	}
	if (Retry{Max: 2, Backoff: 1}).Delay(1, "k", 1) != 1 {
		t.Fatal("no jitter means the exact base delay")
	}
}

func TestCheckNoAllocWhenNil(t *testing.T) {
	// The guard callers use: `if inj != nil { ... }`. With a nil
	// injector the hot path must not allocate at all; this pins the
	// contract the per-task allocation-bounds tests in sched/gasnet
	// build on.
	var inj *Injector
	allocs := testing.AllocsPerRun(100, func() {
		if inj != nil {
			inj.Check("hot/path")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-injector guard allocates %.1f/op, want 0", allocs)
	}
}

func TestDiskCrashKind(t *testing.T) {
	k, err := ParseKind("crash-disk")
	if err != nil || k != DiskCrash {
		t.Fatalf("ParseKind(crash-disk) = %v, %v", k, err)
	}
	if DiskCrash.String() != "crash-disk" {
		t.Fatalf("DiskCrash.String() = %q", DiskCrash.String())
	}
	f := &Fault{Kind: DiskCrash, Site: "disk/write/x", Msg: "power loss"}
	if f.Retryable() {
		t.Fatal("disk crashes must not be retryable")
	}
	if !IsDiskCrash(f) || IsDiskCrash(errors.New("other")) {
		t.Fatal("IsDiskCrash misclassifies")
	}
	if !IsTerminal(f) || !IsTerminal(&Fault{Kind: Crash}) || IsTerminal(&Fault{Kind: Error}) {
		t.Fatal("IsTerminal misclassifies")
	}
	wrapped := fmt.Errorf("sync: %w", f)
	if !IsDiskCrash(wrapped) || !IsTerminal(wrapped) {
		t.Fatal("IsDiskCrash/IsTerminal must unwrap")
	}
}

func TestGlobalRuleWindow(t *testing.T) {
	// After=3 with Global counts matching occurrences across all sites:
	// the 4th disk operation overall faults, regardless of which path it
	// touches.
	inj := NewInjector(chaosSeed(t), []Rule{{Site: "disk/*", Kind: DiskCrash, After: 3, Times: 1, Global: true}})
	sites := []string{"disk/write/a", "disk/fsync/a", "disk/write/b", "disk/rename/b", "disk/write/c"}
	var fired []int
	for i, s := range sites {
		if f := inj.Check(s); f != nil {
			fired = append(fired, i)
			if f.Site != "disk/rename/b" || f.Occurrence != 3 {
				t.Fatalf("fault = %+v, want site disk/rename/b occurrence 3", f)
			}
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired at %v, want [3]", fired)
	}
	if got := inj.Occurrences("disk/*"); got != len(sites) {
		t.Fatalf("Occurrences(disk/*) = %d, want %d", got, len(sites))
	}
	if got := inj.Occurrences("disk/write/*"); got != 3 {
		t.Fatalf("Occurrences(disk/write/*) = %d, want 3", got)
	}
	// Reset clears the global stream too.
	inj.Reset()
	if f := inj.Check("disk/write/a"); f != nil {
		t.Fatalf("post-reset occurrence 0 must not fault, got %v", f)
	}
	if got := inj.Occurrences("disk/*"); got != 1 {
		t.Fatalf("post-reset Occurrences = %d, want 1", got)
	}
}

func TestParseSpecGlobalAndDiskCrash(t *testing.T) {
	spec, err := ParseSpec(`
seed: 9
faults:
  - site: disk/*
    kind: crash-disk
    after: 5
    global: true
    msg: power loss
`)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.Rules[0]
	if r.Kind != DiskCrash || !r.Global || r.After != 5 {
		t.Fatalf("rule = %+v", r)
	}
	// Global participates in the fingerprint: the same rule without it
	// must salt caches differently.
	perSite := *spec
	perSite.Rules = append([]Rule(nil), spec.Rules...)
	perSite.Rules[0].Global = false
	if spec.Injector().Fingerprint() == perSite.Injector().Fingerprint() {
		t.Fatal("Global must be part of the spec fingerprint")
	}
}
