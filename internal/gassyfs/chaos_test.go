package gassyfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/gasnet"
)

// chaosMount mounts a filesystem whose GASNet world runs under the
// given fault rules.
func chaosMount(t *testing.T, ranks int, opts Options, rules []fault.Rule) (*FS, *Client) {
	t.Helper()
	c := cluster.New(21)
	nodes, err := c.Provision("cloudlab-c220g1", ranks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), opts.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(16 << 20); err != nil {
		t.Fatal(err)
	}
	if rules != nil {
		w.SetFaults(fault.NewInjector(17, rules))
	}
	fs, err := Mount(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := fs.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	return fs, cl
}

// populate writes a small tree of files through the client.
func populate(t *testing.T, cl *Client, n int) map[string][]byte {
	t.Helper()
	if err := cl.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/data/file-%02d", i)
		content := bytes.Repeat([]byte{byte('a' + i%26)}, 1000*(i+1))
		if err := cl.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteAt(p, 0, content); err != nil {
			t.Fatal(err)
		}
		want[p] = content
	}
	return want
}

// TestCheckpointRetriesPartitions a transient partition on the
// checkpoint read path is absorbed by the mount's retry policy;
// checkpoint contents equal the written tree. Jobs: 1 keeps the getv
// site serial so the occurrence-windowed rule is deterministic.
func TestCheckpointRetriesPartitions(t *testing.T) {
	rules := []fault.Rule{
		{Site: "gasnet/getv/r0", Kind: fault.Partition, Times: 3, Msg: "fabric flap"},
	}
	fs, cl := chaosMount(t, 3, Options{Jobs: 1, Retry: fault.Retry{Max: 4, Backoff: 0.1}}, rules)
	want := populate(t, cl, 6)
	ck, err := cl.Checkpoint()
	if err != nil {
		t.Fatalf("retries must absorb 3 transient partitions: %v", err)
	}
	for p, content := range want {
		if !bytes.Equal(ck.Files[p], content) {
			t.Fatalf("checkpoint content mismatch at %s", p)
		}
	}
	if fs.world.Faults().Injected() != 3 {
		t.Fatalf("injected = %d, want 3", fs.world.Faults().Injected())
	}
}

// TestCheckpointRetryExhaustion a persistent partition exhausts the
// policy and surfaces typed.
func TestCheckpointRetryExhaustion(t *testing.T) {
	rules := []fault.Rule{
		{Site: "gasnet/getv/r0", Kind: fault.Partition, Msg: "fabric down"},
	}
	_, cl := chaosMount(t, 3, Options{Jobs: 1, Retry: fault.Retry{Max: 2, Backoff: 0.1}}, rules)
	populate(t, cl, 2)
	_, err := cl.Checkpoint()
	if err == nil {
		t.Fatal("persistent partition must fail the checkpoint")
	}
	if !fault.IsPartition(err) {
		t.Fatalf("exhausted retries must surface the typed partition: %v", err)
	}
	if !strings.Contains(err.Error(), "gassyfs: checkpoint") {
		t.Fatalf("error must name the failing file: %v", err)
	}
}

// TestCheckpointCrashTerminal injected crashes bypass the retry policy.
func TestCheckpointCrashTerminal(t *testing.T) {
	rules := []fault.Rule{
		{Site: "gasnet/getv/r0", Kind: fault.Crash, Msg: "rank 0 died"},
	}
	fs, cl := chaosMount(t, 3, Options{Jobs: 1, Retry: fault.Retry{Max: 10, Backoff: 0.1}}, rules)
	populate(t, cl, 2)
	if _, err := cl.Checkpoint(); !fault.IsCrash(err) {
		t.Fatalf("crash must be terminal and typed: %v", err)
	}
	// One injection per file (the pool runs every index), none retried —
	// with Max=10 a retried crash would inject far more.
	if got := fs.world.Faults().Injected(); got != 2 {
		t.Fatalf("crash must not be retried: injected = %d, want 2", got)
	}
}

// TestRestoreRetriesPartitions the restore write path retries
// idempotently: the restored tree equals the checkpointed one despite
// transient partitions on putv.
func TestRestoreRetriesPartitions(t *testing.T) {
	_, cl := chaosMount(t, 3, Options{Jobs: 1}, nil)
	want := populate(t, cl, 6)
	ck, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	rules := []fault.Rule{
		{Site: "gasnet/putv/r0", Kind: fault.Partition, Times: 2, Msg: "flap during restore"},
	}
	_, cl2 := chaosMount(t, 3, Options{Jobs: 1, Retry: fault.Retry{Max: 3, Backoff: 0.1}}, rules)
	if err := cl2.Restore(ck); err != nil {
		t.Fatalf("restore must absorb transient partitions: %v", err)
	}
	for p, content := range want {
		got, err := cl2.ReadAt(p, 0, int64(len(content)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("restored content mismatch at %s", p)
		}
	}
}

// TestCheckpointChaosContentStableAcrossJobs under occurrence-
// independent rules (prob 1, no window — the documented contract for
// concurrent sites) a chaotic checkpoint behaves identically at every
// pool size: here latency-only chaos, so the checkpoint succeeds and
// the client clock lands on the same instant for 1 and 8 workers.
func TestCheckpointChaosContentStableAcrossJobs(t *testing.T) {
	rules := []fault.Rule{
		{Site: "gasnet/getv/r0", Kind: fault.Latency, Delay: 0.01, Prob: 1},
	}
	run := func(jobs int) (map[string][]byte, float64) {
		fs, cl := chaosMount(t, 3, Options{Jobs: jobs}, rules)
		populate(t, cl, 8)
		ck, err := cl.Checkpoint()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		node, _ := fs.world.Node(0)
		return ck.Files, node.Now()
	}
	files1, clock1 := run(1)
	files8, clock8 := run(8)
	if clock1 != clock8 {
		t.Fatalf("latency chaos must be deterministic across pool sizes: %g vs %g", clock1, clock8)
	}
	for p, content := range files1 {
		if !bytes.Equal(files8[p], content) {
			t.Fatalf("checkpoint content diverged at %s", p)
		}
	}
}
