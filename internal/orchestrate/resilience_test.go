package orchestrate

import (
	"strings"
	"testing"

	"popper/internal/fault"
)

// node IDs from testInventory(t, 1): cloudlab-c220g1-0 (head), cloudlab-c220g1-1, cloudlab-c220g1-2
// (storage).

func resilientRunner(t *testing.T, rules []fault.Rule) (*Runner, *Inventory) {
	t.Helper()
	inv, _ := testInventory(t, 1)
	r := NewRunner(inv)
	r.Faults = fault.NewInjector(7, rules)
	r.Retry = fault.Retry{Max: 2, Backoff: 0.1}
	return r, inv
}

func TestTaskRetryAbsorbsInjectedErrors(t *testing.T) {
	r, _ := resilientRunner(t, []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/install toolchain", Kind: fault.Error, Times: 2, Msg: "apt lock held"},
	})
	pb, err := ParsePlaybook(samplePlaybook)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(pb)
	if err != nil {
		t.Fatalf("two injected errors under Max=2 must be absorbed: %v\n%s", err, FormatResults(results))
	}
	var hit *TaskResult
	for i := range results {
		if results[i].Host == "cloudlab-c220g1-1" && results[i].Task == "install toolchain" {
			hit = &results[i]
		}
	}
	if hit == nil || hit.Attempts != 3 {
		t.Fatalf("retried task = %+v, want 3 attempts", hit)
	}
	if hit.Failed() || !hit.Changed {
		t.Fatalf("final attempt must succeed and report changed: %+v", hit)
	}
	// Untouched tasks record exactly one attempt.
	for _, res := range results {
		if res.Host != "cloudlab-c220g1-1" && res.Attempts != 1 {
			t.Fatalf("fault on cloudlab-c220g1-1 leaked into %s: %+v", res.Host, res)
		}
	}
	if !strings.Contains(FormatResults(results), "(3 attempts)") {
		t.Fatalf("retries must be visible in the report:\n%s", FormatResults(results))
	}
}

func TestTaskCrashIsTerminal(t *testing.T) {
	r, _ := resilientRunner(t, []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/install toolchain", Kind: fault.Crash, Msg: "node died"},
	})
	pb, _ := ParsePlaybook(samplePlaybook)
	results, err := r.Run(pb)
	if err == nil {
		t.Fatal("crash must fail the playbook")
	}
	if !fault.IsCrash(err) {
		t.Fatalf("crash must stay typed through the runner: %v", err)
	}
	for _, res := range results {
		if res.Host == "cloudlab-c220g1-1" && res.Task == "install toolchain" && res.Attempts != 1 {
			t.Fatalf("crash must not be retried: %+v", res)
		}
	}
}

func TestHostQuarantineExcludesFromLaterPlays(t *testing.T) {
	// cloudlab-c220g1-1 fails every task terminally; after 2 strikes it is
	// quarantined and the rest of the playbook completes without it.
	r, inv := resilientRunner(t, []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/*", Kind: fault.Crash, Msg: "flaky hardware"},
	})
	r.QuarantineAfter = 2
	pb, _ := ParsePlaybook(samplePlaybook)
	results, err := r.Run(pb)
	if err == nil || !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), "cloudlab-c220g1-1") {
		t.Fatalf("quarantine must be summarized in the error: %v", err)
	}
	perHost := map[string]int{}
	quarantineMarked := false
	for _, res := range results {
		perHost[res.Host]++
		if res.Host == "cloudlab-c220g1-1" && res.Quarantined {
			quarantineMarked = true
		}
		if res.Host != "cloudlab-c220g1-1" && res.Failed() {
			t.Fatalf("healthy host failed: %+v", res)
		}
	}
	if !quarantineMarked {
		t.Fatal("the strike that tipped cloudlab-c220g1-1 into quarantine must be marked")
	}
	// cloudlab-c220g1-1 ran exactly QuarantineAfter tasks before exclusion; the
	// healthy storage host ran all 3 configure tasks plus the run play.
	if perHost["cloudlab-c220g1-1"] != 2 {
		t.Fatalf("cloudlab-c220g1-1 ran %d tasks, want 2 (quarantined after 2 strikes)", perHost["cloudlab-c220g1-1"])
	}
	if perHost["cloudlab-c220g1-2"] != 4 || perHost["cloudlab-c220g1-0"] != 1 {
		t.Fatalf("healthy hosts must complete the playbook: %v", perHost)
	}
	// The quarantined host's state reflects only the tasks that ran.
	h, _ := inv.Host("cloudlab-c220g1-1")
	if h.services["gassyfsd"] {
		t.Fatal("quarantined host must not have run later tasks")
	}
	h2, _ := inv.Host("cloudlab-c220g1-2")
	if !h2.services["gassyfsd"] {
		t.Fatal("healthy host must have completed configuration")
	}
	out := FormatResults(results)
	for _, want := range []string{"PLAY RECAP", "QUARANTINED", "ok=", "changed=", "failed="} {
		if !strings.Contains(out, want) {
			t.Fatalf("recap missing %q:\n%s", want, out)
		}
	}
}

func TestQuarantineDefaultOffPreservesFailFast(t *testing.T) {
	r, _ := resilientRunner(t, []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/install toolchain", Kind: fault.Crash, Msg: "down"},
	})
	pb, _ := ParsePlaybook(samplePlaybook)
	results, err := r.Run(pb)
	if err == nil || !strings.Contains(err.Error(), "failed on cloudlab-c220g1-1") {
		t.Fatalf("default mode must stop at the first failure: %v", err)
	}
	for _, res := range results {
		if res.Play == "run" {
			t.Fatal("later plays must not run after a fail-fast stop")
		}
	}
}

func TestForkedChaosMatchesSerial(t *testing.T) {
	rules := []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/install toolchain", Kind: fault.Error, Times: 1, Msg: "transient"},
		{Site: "orchestrate/cloudlab-c220g1-2/push config", Kind: fault.Latency, Delay: 1.5, Times: 1},
	}
	run := func(forks int) []TaskResult {
		inv, _ := testInventory(t, 1)
		r := NewRunner(inv)
		r.Faults = fault.NewInjector(7, rules)
		r.Retry = fault.Retry{Max: 2, Backoff: 0.1}
		r.Forks = forks
		pb, _ := ParsePlaybook(samplePlaybook)
		results, err := r.Run(pb)
		if err != nil {
			t.Fatalf("forks=%d: %v", forks, err)
		}
		return results
	}
	serial, forked := run(1), run(4)
	if len(serial) != len(forked) {
		t.Fatalf("result counts diverged: %d vs %d", len(serial), len(forked))
	}
	for i := range serial {
		s, f := serial[i], forked[i]
		if s.Host != f.Host || s.Task != f.Task || s.Attempts != f.Attempts ||
			s.Msg != f.Msg || s.Elapsed != f.Elapsed || s.Changed != f.Changed {
			t.Fatalf("result %d diverged:\nserial %+v\nforked %+v", i, s, f)
		}
	}
}

func TestRetryBackoffChargesHostClock(t *testing.T) {
	r, inv := resilientRunner(t, []fault.Rule{
		{Site: "orchestrate/cloudlab-c220g1-1/install toolchain", Kind: fault.Error, Times: 1, Msg: "transient"},
	})
	pb, _ := ParsePlaybook(samplePlaybook)
	if _, err := r.Run(pb); err != nil {
		t.Fatal(err)
	}
	h1, _ := inv.Host("cloudlab-c220g1-1")
	h2, _ := inv.Host("cloudlab-c220g1-2")
	// The retried host paid backoff plus a second ssh round trip; its
	// clock must be strictly ahead of the identical healthy host.
	if h1.Node.Now() <= h2.Node.Now() {
		t.Fatalf("retry must cost virtual time: cloudlab-c220g1-1=%.3f cloudlab-c220g1-2=%.3f", h1.Node.Now(), h2.Node.Now())
	}
}
