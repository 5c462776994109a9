package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"popper/internal/fault"
)

// flaky builds a pipeline whose run stage fails the first `failures`
// executions and then succeeds, writing its attempt number into the
// workspace.
func flaky(t *testing.T, failures int) (*Pipeline, *int) {
	t.Helper()
	p := New("chaos")
	calls := new(int)
	if err := p.AddStage("run", func(c *Context) error {
		*calls++
		c.Workspace["out"] = []byte(fmt.Sprintf("attempt %d", *calls))
		c.Workspace["scratch"] = []byte("partial state")
		if *calls <= failures {
			return fmt.Errorf("transient failure %d", *calls)
		}
		delete(c.Workspace, "scratch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return p, calls
}

func TestRetryStageAbsorbsTransientFailures(t *testing.T) {
	p, calls := flaky(t, 2)
	if err := p.RetryStage("run", fault.Retry{Max: 3, Backoff: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{}
	rec := p.Run(ctx)
	if rec.Failed() {
		t.Fatalf("retries must absorb two transient failures: %v", rec.Err)
	}
	if *calls != 3 {
		t.Fatalf("calls = %d, want 3", *calls)
	}
	if rec.Stages[0].Attempts != 3 {
		t.Fatalf("journaled attempts = %d, want 3", rec.Stages[0].Attempts)
	}
	// The backoff doubles from its base: 1s, then 2s.
	for _, want := range []string{"attempt 1 failed (transient failure 1); retrying in 1.000s", "attempt 2 failed (transient failure 2); retrying in 2.000s"} {
		if !strings.Contains(rec.Log, want) {
			t.Fatalf("retries must be logged with their backoff (%q):\n%s", want, rec.Log)
		}
	}
	// The workspace reflects only the successful attempt — failed
	// attempts' partial writes were rolled back.
	if string(ctx.Workspace["out"]) != "attempt 3" {
		t.Fatalf("out = %q", ctx.Workspace["out"])
	}
	if _, leaked := ctx.Workspace["scratch"]; leaked {
		t.Fatal("failed attempt leaked partial state into the workspace")
	}
}

func TestRetryStageExhaustion(t *testing.T) {
	p, calls := flaky(t, 99)
	if err := p.RetryStage("run", fault.Retry{Max: 2}); err != nil {
		t.Fatal(err)
	}
	rec := p.Run(&Context{})
	if !rec.Failed() {
		t.Fatal("exhausted retries must fail")
	}
	if *calls != 3 || rec.Stages[0].Attempts != 3 {
		t.Fatalf("calls = %d, attempts = %d, want 3/3", *calls, rec.Stages[0].Attempts)
	}
}

func TestInjectedErrorFaultRetried(t *testing.T) {
	p, _ := flaky(t, 0)
	p.Faults = fault.NewInjector(1, []fault.Rule{
		{Site: "pipeline/chaos/run", Kind: fault.Error, Times: 2, Msg: "flaky stage"},
	})
	if err := p.RetryStage("run", fault.Retry{Max: 3, Backoff: 0.5, Jitter: 0.2}); err != nil {
		t.Fatal(err)
	}
	rec := p.Run(&Context{})
	if rec.Failed() {
		t.Fatalf("two injected errors under Max=3 must be absorbed: %v", rec.Err)
	}
	if rec.Stages[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 injected failures + success)", rec.Stages[0].Attempts)
	}
	if p.Faults.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", p.Faults.Injected())
	}

	// An injected latency fault fails nothing: the attempt runs, passes
	// and logs the delay.
	p2, _ := flaky(t, 0)
	p2.Faults = fault.NewInjector(1, []fault.Rule{
		{Site: "pipeline/chaos/run", Kind: fault.Latency, Delay: 10},
	})
	rec2 := p2.Run(&Context{})
	if rec2.Failed() || rec2.Stages[0].Attempts != 1 || !strings.Contains(rec2.Log, "injected 10.000s latency") {
		t.Fatalf("a latency fault must be logged and absorbed in one attempt: %v\n%s", rec2.Err, rec2.Log)
	}
}

func TestInjectedCrashIsTerminal(t *testing.T) {
	p, calls := flaky(t, 0)
	p.Faults = fault.NewInjector(1, []fault.Rule{
		{Site: "pipeline/chaos/run", Kind: fault.Crash, Msg: "host died"},
	})
	if err := p.RetryStage("run", fault.Retry{Max: 5, Backoff: 1}); err != nil {
		t.Fatal(err)
	}
	rec := p.Run(&Context{})
	if !rec.Failed() {
		t.Fatal("a crash must fail the pipeline")
	}
	if *calls != 0 || rec.Stages[0].Attempts != 1 {
		t.Fatalf("crash must not be retried: calls=%d attempts=%d", *calls, rec.Stages[0].Attempts)
	}
	if !fault.IsCrash(rec.Err) {
		t.Fatalf("crash must surface typed through the record: %v", rec.Err)
	}
}

func TestFaultScopeSeparatesStreams(t *testing.T) {
	rules := []fault.Rule{{Site: "pipeline/exp/001/run", Kind: fault.Error}}
	run := func(scope string) Record {
		p, _ := flaky(t, 0)
		p.FaultScope = scope
		p.Faults = fault.NewInjector(1, rules)
		return p.Run(&Context{})
	}
	if rec := run("exp/001"); !rec.Failed() {
		t.Fatal("scoped rule must hit its configuration")
	}
	if rec := run("exp/002"); rec.Failed() {
		t.Fatalf("other configurations must be untouched: %v", rec.Err)
	}
}

func TestRetryWithCacheStoresFinalOutcome(t *testing.T) {
	cache := NewCache()
	build := func(inj *fault.Injector) (*Pipeline, *int) {
		p, calls := flaky(t, 0)
		p.Cache = cache
		p.Faults = inj
		if inj != nil {
			p.CacheSalt = "faults=" + inj.Fingerprint()
		}
		if err := p.CacheStage("run", "test/run@v1", nil); err != nil {
			t.Fatal(err)
		}
		if err := p.RetryStage("run", fault.Retry{Max: 2, Backoff: 1}); err != nil {
			t.Fatal(err)
		}
		return p, calls
	}
	rules := []fault.Rule{{Site: "pipeline/chaos/run", Kind: fault.Error, Times: 1}}
	p1, _ := build(fault.NewInjector(9, rules))
	rec1 := p1.Run(&Context{})
	if rec1.Failed() || rec1.Stages[0].Attempts != 2 {
		t.Fatalf("first run: %v (attempts %d)", rec1.Err, rec1.Stages[0].Attempts)
	}
	// Same spec, fresh injector: the stage replays from cache (the
	// schedule is part of the salt), reproducing the retried outcome.
	p2, calls2 := build(fault.NewInjector(9, rules))
	ctx2 := &Context{}
	rec2 := p2.Run(ctx2)
	if rec2.Failed() || !rec2.Stages[0].Cached {
		t.Fatalf("identical chaos universe must replay from cache: %+v", rec2.Stages[0])
	}
	if *calls2 != 0 {
		t.Fatal("cached replay must not execute the stage")
	}
	if rec1.ResultHash != rec2.ResultHash {
		t.Fatal("cached replay must reproduce the retried workspace")
	}
	// A different fault schedule is a different cache universe.
	p3, calls3 := build(fault.NewInjector(10, rules))
	if rec3 := p3.Run(&Context{}); rec3.Failed() || *calls3 == 0 {
		t.Fatalf("different seed must miss the cache (calls=%d, err=%v)", *calls3, rec3.Err)
	}
}

func TestRetryStageValidation(t *testing.T) {
	p := New("x")
	if err := p.RetryStage("run", fault.Retry{Max: 1}); err == nil {
		t.Fatal("retry on unregistered stage must fail")
	}
	if err := p.AddStage("run", func(*Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.RetryStage("run", fault.Retry{Max: -1}); err == nil {
		t.Fatal("negative retry max must fail")
	}
}
