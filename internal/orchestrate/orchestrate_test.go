package orchestrate

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"popper/internal/cluster"
)

const samplePlaybook = `
- name: configure
  hosts: storage
  tasks:
    - name: install toolchain
      pkg: {name: "gcc,make"}
    - name: push config
      copy: {dest: /etc/gassyfs.conf, content: "segment=2GB"}
    - name: start daemon
      service: {name: gassyfsd, state: started}
- name: run
  hosts: all
  tasks:
    - name: execute experiment
      shell: ./run.sh
`

func testInventory(t *testing.T, seed int64) (*Inventory, []*cluster.Node) {
	t.Helper()
	c := cluster.New(seed)
	nodes, err := c.Provision("cloudlab-c220g1", 3)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewInventory()
	for i, n := range nodes {
		h := NewHost(n.ID(), n)
		groups := []string{"storage"}
		if i == 0 {
			groups = []string{"head"}
		}
		if err := inv.Add(h, groups...); err != nil {
			t.Fatal(err)
		}
	}
	return inv, nodes
}

func TestParsePlaybook(t *testing.T) {
	pb, err := ParsePlaybook(samplePlaybook)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Plays) != 2 {
		t.Fatalf("plays = %d", len(pb.Plays))
	}
	p := pb.Plays[0]
	if p.Name != "configure" || p.HostGroup != "storage" || len(p.Tasks) != 3 {
		t.Fatalf("play = %+v", p)
	}
	if p.Tasks[0].Module != "pkg" || p.Tasks[0].Args["name"] != "gcc,make" {
		t.Fatalf("task0 = %+v", p.Tasks[0])
	}
	if p.Tasks[1].Args["dest"] != "/etc/gassyfs.conf" {
		t.Fatalf("task1 = %+v", p.Tasks[1])
	}
	if pb.Plays[1].Tasks[0].Args["_raw"] != "./run.sh" {
		t.Fatalf("shell raw arg = %+v", pb.Plays[1].Tasks[0])
	}
}

func TestParsePlaybookErrors(t *testing.T) {
	cases := []string{
		``,                                   // empty
		`key: value`,                         // not a list
		`- tasks:` + "\n" + `    - shell: x`, // no hosts
		`- name: p` + "\n" + `  hosts: all`,  // no tasks
		"- name: p\n  hosts: all\n  tasks:\n    - name: t",                // no module
		"- name: p\n  hosts: all\n  tasks:\n    - shell: a\n      pkg: b", // two modules
		"- name: p\n  hosts: all\n  tasks:\n    - bad yaml [",
	}
	for _, src := range cases {
		if _, err := ParsePlaybook(src); err == nil {
			t.Errorf("ParsePlaybook(%q) should fail", src)
		}
	}
}

func TestInventoryGroups(t *testing.T) {
	inv, _ := testInventory(t, 1)
	if len(inv.Group("all")) != 3 {
		t.Fatalf("all = %d", len(inv.Group("all")))
	}
	if len(inv.Group("storage")) != 2 || len(inv.Group("head")) != 1 {
		t.Fatalf("groups = %v", inv.Groups())
	}
	if _, ok := inv.Host(inv.Group("head")[0].Name); !ok {
		t.Fatal("host lookup failed")
	}
	if _, ok := inv.Host("ghost"); ok {
		t.Fatal("unknown host lookup should miss")
	}
	// duplicates and empty names rejected
	if err := inv.Add(NewHost("", nil)); err == nil {
		t.Fatal("empty host name should fail")
	}
	dup := inv.Group("all")[0].Name
	if err := inv.Add(NewHost(dup, nil)); err == nil {
		t.Fatal("duplicate host should fail")
	}
}

func TestRunPlaybook(t *testing.T) {
	inv, _ := testInventory(t, 2)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(samplePlaybook)
	results, err := r.Run(pb)
	if err != nil {
		t.Fatalf("%v\n%s", err, FormatResults(results))
	}
	// configure: 3 tasks x 2 storage hosts; run: 1 task x 3 hosts
	if len(results) != 9 {
		t.Fatalf("results = %d\n%s", len(results), FormatResults(results))
	}
	for _, h := range inv.Group("storage") {
		if !h.packages["gcc"] || !h.packages["make"] {
			t.Fatalf("packages missing on %s", h.Name)
		}
		if !h.services["gassyfsd"] {
			t.Fatalf("service not running on %s", h.Name)
		}
		if b, ok := h.File("/etc/gassyfs.conf"); !ok || string(b) != "segment=2GB" {
			t.Fatalf("config file missing on %s", h.Name)
		}
	}
	out := FormatResults(results)
	if !strings.Contains(out, "ok") || strings.Contains(out, "FAILED") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestRunAdvancesClocks(t *testing.T) {
	inv, nodes := testInventory(t, 3)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(samplePlaybook)
	if _, err := r.Run(pb); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Now() <= 0 {
			t.Fatalf("node %s clock did not advance", n.ID())
		}
	}
}

func TestBatchedVsPerTask(t *testing.T) {
	elapsed := func(batched bool) float64 {
		inv, nodes := testInventory(t, 4)
		r := NewRunner(inv)
		r.Batched = batched
		pb, _ := ParsePlaybook(samplePlaybook)
		if _, err := r.Run(pb); err != nil {
			panic(err)
		}
		return cluster.MaxClock(nodes)
	}
	per, bat := elapsed(false), elapsed(true)
	if bat >= per {
		t.Fatalf("batched %v should beat per-task %v", bat, per)
	}
}

func TestFactsGathering(t *testing.T) {
	inv, _ := testInventory(t, 5)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: sanity
  hosts: all
  tasks:
    - name: check platform
      assert_fact: {key: machine, equals: cloudlab-c220g1}
`)
	if _, err := r.Run(pb); err != nil {
		t.Fatal(err)
	}
	h := inv.Group("all")[0]
	if h.Facts()["cores"] != "16" {
		t.Fatalf("facts = %v", h.Facts())
	}
}

func TestAssertFactFails(t *testing.T) {
	inv, _ := testInventory(t, 6)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: sanity
  hosts: all
  tasks:
    - name: wrong platform expectation
      assert_fact: {key: machine, equals: xeon-2005}
`)
	results, err := r.Run(pb)
	if err == nil {
		t.Fatal("assertion on wrong machine must fail")
	}
	if len(results) == 0 || !results[len(results)-1].Failed() {
		t.Fatalf("results = %v", results)
	}
	if !strings.Contains(FormatResults(results), "FAILED") {
		t.Fatal("report should mark failure")
	}
}

func TestNoFactsWithoutGathering(t *testing.T) {
	inv, _ := testInventory(t, 7)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: nofacts
  hosts: all
  gather_facts: false
  tasks:
    - name: should fail
      assert_fact: {key: machine}
`)
	if _, err := r.Run(pb); err == nil {
		t.Fatal("assert_fact without gathering must fail")
	}
}

func TestCheckMode(t *testing.T) {
	inv, _ := testInventory(t, 8)
	r := NewRunner(inv)
	good, _ := ParsePlaybook(samplePlaybook)
	if err := r.Check(good); err != nil {
		t.Fatal(err)
	}
	// unknown group
	pb, _ := ParsePlaybook("- name: p\n  hosts: ghost-group\n  tasks:\n    - ping:")
	if err := r.Check(pb); err == nil {
		t.Fatal("unknown group must fail check")
	}
	// unknown module
	pb, _ = ParsePlaybook("- name: p\n  hosts: all\n  tasks:\n    - frobnicate: x")
	if err := r.Check(pb); err == nil {
		t.Fatal("unknown module must fail check")
	}
	// Check must not execute anything
	for _, h := range inv.Group("all") {
		if h.Node.Now() != 0 {
			t.Fatal("check mode must not advance clocks")
		}
	}
}

func TestModuleErrors(t *testing.T) {
	inv, _ := testInventory(t, 9)
	r := NewRunner(inv)
	for _, src := range []string{
		"- name: p\n  hosts: all\n  tasks:\n    - shell:",                       // no command
		"- name: p\n  hosts: all\n  tasks:\n    - copy: {content: x}",           // no dest
		"- name: p\n  hosts: all\n  tasks:\n    - pkg:",                         // no name
		"- name: p\n  hosts: all\n  tasks:\n    - service: {state: started}",    // no name
		"- name: p\n  hosts: all\n  tasks:\n    - service: {name: x, state: q}", // bad state
		"- name: p\n  hosts: all\n  tasks:\n    - assert_fact:",                 // no key
	} {
		pb, err := ParsePlaybook(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := r.Run(pb); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestStopsAtFirstFailure(t *testing.T) {
	inv, _ := testInventory(t, 10)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: p
  hosts: all
  tasks:
    - name: boom
      shell:
    - name: never runs
      ping:
`)
	results, err := r.Run(pb)
	if err == nil {
		t.Fatal("should fail")
	}
	for _, res := range results {
		if res.Task == "never runs" {
			t.Fatal("execution must stop at first failure")
		}
	}
}

func TestCustomModule(t *testing.T) {
	inv, _ := testInventory(t, 11)
	r := NewRunner(inv)
	var called atomic.Int32 // the runner calls the module for both hosts at once
	r.RegisterModule("benchmark", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		called.Add(1)
		return "bench " + args["suite"], cluster.Work{CPUOps: 1e9}, nil
	})
	pb, _ := ParsePlaybook("- name: p\n  hosts: storage\n  tasks:\n    - benchmark: {suite: stress-ng}")
	results, err := r.Run(pb)
	if err != nil {
		t.Fatal(err)
	}
	if called.Load() != 2 || len(results) != 2 {
		t.Fatalf("called = %d, results = %d", called.Load(), len(results))
	}
	if results[0].Elapsed <= 0 {
		t.Fatal("elapsed should be positive for node hosts")
	}
}

func TestPkgIdempotent(t *testing.T) {
	inv, _ := testInventory(t, 12)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: p
  hosts: head
  tasks:
    - name: first
      pkg: {name: gcc}
    - name: second
      pkg: {name: gcc}
`)
	results, err := r.Run(pb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(results[1].Msg, "already installed") {
		t.Fatalf("second install = %q", results[1].Msg)
	}
}

func TestControlHostTasks(t *testing.T) {
	inv := NewInventory()
	if err := inv.Add(NewHost("localhost", nil)); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(inv)
	pb, _ := ParsePlaybook("- name: local\n  hosts: all\n  tasks:\n    - ping:\n    - shell: make pdf")
	results, err := r.Run(pb)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed != 0 {
		t.Fatal("control host has no clock to advance")
	}
	h, _ := inv.Host("localhost")
	if h.Facts()["machine"] != "control" {
		t.Fatalf("facts = %v", h.Facts())
	}
}

func TestVariableTemplating(t *testing.T) {
	inv, _ := testInventory(t, 13)
	h := inv.Group("head")[0]
	h.Vars["mount_point"] = "/mnt/gassyfs"
	r := NewRunner(inv)
	pb, err := ParsePlaybook(`
- name: templated
  hosts: head
  vars:
    segment: 2GB
  tasks:
    - name: write config
      copy: {dest: "{{ mount_point }}/conf", content: "segment={{ segment }} on {{ machine }}"}
`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(pb)
	if err != nil {
		t.Fatalf("%v\n%s", err, FormatResults(results))
	}
	b, ok := h.File("/mnt/gassyfs/conf")
	if !ok {
		t.Fatal("templated dest not written")
	}
	if string(b) != "segment=2GB on cloudlab-c220g1" {
		t.Fatalf("content = %q", b)
	}
}

func TestTemplatingPrecedence(t *testing.T) {
	// host vars shadow facts shadow play vars
	inv, _ := testInventory(t, 14)
	h := inv.Group("head")[0]
	h.Vars["machine"] = "host-override"
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: p
  hosts: head
  vars:
    machine: play-level
  tasks:
    - copy: {dest: /out, content: "{{ machine }}"}
`)
	if _, err := r.Run(pb); err != nil {
		t.Fatal(err)
	}
	b, _ := h.File("/out")
	if string(b) != "host-override" {
		t.Fatalf("precedence broken: %q", b)
	}
}

func TestTemplatingErrors(t *testing.T) {
	inv, _ := testInventory(t, 15)
	r := NewRunner(inv)
	pb, _ := ParsePlaybook(`
- name: p
  hosts: all
  tasks:
    - copy: {dest: /x, content: "{{ undefined_variable }}"}
`)
	if _, err := r.Run(pb); err == nil {
		t.Fatal("undefined variable must fail")
	}
	pb, _ = ParsePlaybook(`
- name: p
  hosts: all
  tasks:
    - copy: {dest: /x, content: "{{ unterminated"}
`)
	if _, err := r.Run(pb); err == nil {
		t.Fatal("unterminated template must fail")
	}
}

func TestPlayVarsMustBeMapping(t *testing.T) {
	if _, err := ParsePlaybook("- name: p\n  hosts: all\n  vars: [1, 2]\n  tasks:\n    - ping:"); err == nil {
		t.Fatal("list vars must fail")
	}
}

func TestForkedMatchesSerial(t *testing.T) {
	run := func(forks int) []TaskResult {
		inv, _ := testInventory(t, 7)
		r := NewRunner(inv)
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
		t.Fatalf("result count: serial %d, forked %d", len(serial), len(forked))
	}
	// Same inventory order, same outcomes: forked execution must be
	// journal-identical to serial.
	for i := range serial {
		s, f := serial[i], forked[i]
		if s.Play != f.Play || s.Task != f.Task || s.Host != f.Host ||
			s.Module != f.Module || s.Msg != f.Msg || s.Elapsed != f.Elapsed {
			t.Fatalf("result %d diverged:\nserial: %+v\nforked: %+v", i, s, f)
		}
	}
}

func TestForkedLowersMakespan(t *testing.T) {
	elapsed := func(forks int) float64 {
		inv, nodes := testInventory(t, 9)
		r := NewRunner(inv)
		r.Batched = true
		r.Forks = forks
		pb, _ := ParsePlaybook(samplePlaybook)
		if _, err := r.Run(pb); err != nil {
			t.Fatal(err)
		}
		return cluster.MaxClock(nodes)
	}
	serial, forked := elapsed(1), elapsed(4)
	// Virtual makespan is per-node, so forking does not change it — but
	// it must not change results either; wall-clock wins come from real
	// concurrency. What we can check: forked never inflates the virtual
	// clock.
	if forked > serial {
		t.Fatalf("forked makespan %v exceeds serial %v", forked, serial)
	}
}

func TestForkedFailureCompletesPlayRemainder(t *testing.T) {
	inv, _ := testInventory(t, 11)
	r := NewRunner(inv)
	r.Forks = 4
	r.RegisterModule("fail", func(h *Host, _ map[string]string) (string, cluster.Work, error) {
		return "", cluster.Work{}, fmt.Errorf("induced")
	})
	pb, err := ParsePlaybook(`
- name: p
  hosts: all
  tasks:
    - name: boom
      fail: {msg: "induced"}
`)
	if err != nil {
		t.Fatal(err)
	}
	results, runErr := r.Run(pb)
	if runErr == nil {
		t.Fatal("playbook with failing task must error")
	}
	// Under forks the failing task still completes on every host of the
	// play before the playbook stops.
	if len(results) != len(inv.Group("all")) {
		t.Fatalf("results = %d, want one per host (%d)", len(results), len(inv.Group("all")))
	}
	for _, res := range results {
		if res.Err == nil {
			t.Fatalf("host %s should have failed", res.Host)
		}
	}
}
