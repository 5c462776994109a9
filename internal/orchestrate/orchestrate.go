// Package orchestrate implements the multi-node orchestration substrate
// of the Popper convention (the role Ansible/Puppet/Chef play in the
// paper): a declarative playbook engine that configures and drives a set
// of hosts, gathers "facts" about them, and records per-task results.
//
// Hosts are either the local control machine or simulated cluster nodes
// (internal/cluster); in the latter case every task pays an ssh-style
// round trip plus task execution time on the node's logical clock, which
// lets the ablation benchmarks compare per-task round trips against
// batched pushes.
//
// Playbooks are YAML documents (internal/yamlite) of the shape:
//
//   - name: configure
//     hosts: storage
//     tasks:
//   - name: install packages
//     pkg: {name: gcc}
//   - name: run experiment
//     shell: run.sh
//
// The facts-gathering module is the hook the paper's baseline
// sanitization relies on: "many of the commonly used orchestration tools
// incorporate functionality for obtaining facts about the environment".
package orchestrate

import (
	"fmt"
	"sort"
	"strings"

	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/sched"
	"popper/internal/yamlite"
)

// Host is one managed machine: the control host (Node == nil) or a
// simulated cluster node.
type Host struct {
	Name string
	Node *cluster.Node

	Vars     map[string]string
	packages map[string]bool
	services map[string]bool
	files    map[string][]byte
	facts    map[string]string
}

// NewHost wraps a (possibly nil) cluster node as a managed host.
func NewHost(name string, node *cluster.Node) *Host {
	return &Host{
		Name: name, Node: node,
		Vars:     make(map[string]string),
		packages: make(map[string]bool),
		services: make(map[string]bool),
		files:    make(map[string][]byte),
		facts:    make(map[string]string),
	}
}

// File returns a file previously copied to the host.
func (h *Host) File(path string) ([]byte, bool) {
	b, ok := h.files[path]
	return b, ok
}

// Facts returns the facts gathered from the host (empty until a play
// with gather_facts ran).
func (h *Host) Facts() map[string]string {
	out := make(map[string]string, len(h.facts))
	for k, v := range h.facts {
		out[k] = v
	}
	return out
}

// Inventory groups hosts by name, like an Ansible inventory file. The
// implicit group "all" contains every host.
type Inventory struct {
	groups map[string][]*Host
	byName map[string]*Host
}

// NewInventory creates an empty inventory.
func NewInventory() *Inventory {
	return &Inventory{groups: make(map[string][]*Host), byName: make(map[string]*Host)}
}

// Add places a host into the given groups (plus "all").
func (inv *Inventory) Add(h *Host, groups ...string) error {
	if h.Name == "" {
		return fmt.Errorf("orchestrate: host needs a name")
	}
	if _, dup := inv.byName[h.Name]; dup {
		return fmt.Errorf("orchestrate: duplicate host %q", h.Name)
	}
	inv.byName[h.Name] = h
	for _, g := range append(groups, "all") {
		inv.groups[g] = append(inv.groups[g], h)
	}
	return nil
}

// Group returns the hosts in a group.
func (inv *Inventory) Group(name string) []*Host { return inv.groups[name] }

// Remove deletes a host from the inventory and every group it was in.
// Removing an unknown host is a no-op (idempotent, like Add's inverse
// should be for elastic scale-down loops).
func (inv *Inventory) Remove(name string) {
	if _, ok := inv.byName[name]; !ok {
		return
	}
	delete(inv.byName, name)
	for g, hosts := range inv.groups {
		kept := hosts[:0]
		for _, h := range hosts {
			if h.Name != name {
				kept = append(kept, h)
			}
		}
		if len(kept) == 0 {
			delete(inv.groups, g)
		} else {
			inv.groups[g] = kept
		}
	}
}

// Host finds a host by name.
func (inv *Inventory) Host(name string) (*Host, bool) {
	h, ok := inv.byName[name]
	return h, ok
}

// Groups lists group names, sorted.
func (inv *Inventory) Groups() []string {
	out := make([]string, 0, len(inv.groups))
	for g := range inv.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Task is one action in a play.
type Task struct {
	Name   string
	Module string
	// Args carries the module parameters; the special key "_raw" holds
	// the scalar form (e.g. `shell: ./run.sh`).
	Args map[string]string
}

// Play maps a host group to an ordered task list.
type Play struct {
	Name        string
	HostGroup   string
	GatherFacts bool
	// Vars are play-scoped variables available to `{{ var }}` templates
	// in task arguments.
	Vars  map[string]string
	Tasks []Task
}

// Playbook is an ordered list of plays.
type Playbook struct {
	Plays []Play
}

// ParsePlaybook decodes a playbook from YAML text.
func ParsePlaybook(src string) (*Playbook, error) {
	doc, err := yamlite.Decode(src)
	if err != nil {
		return nil, fmt.Errorf("orchestrate: %w", err)
	}
	plays, ok := doc.([]any)
	if !ok {
		return nil, fmt.Errorf("orchestrate: playbook root must be a list of plays")
	}
	pb := &Playbook{}
	for i, rawPlay := range plays {
		pm, ok := rawPlay.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("orchestrate: play %d is not a mapping", i)
		}
		play := Play{
			Name:        yamlite.GetString(pm, "name", fmt.Sprintf("play-%d", i)),
			HostGroup:   yamlite.GetString(pm, "hosts", ""),
			GatherFacts: yamlite.GetBool(pm, "gather_facts", true),
			Vars:        map[string]string{},
		}
		if rawVars, ok := yamlite.Get(pm, "vars"); ok {
			vm, ok := rawVars.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("orchestrate: play %q vars must be a mapping", play.Name)
			}
			for k, v := range vm {
				play.Vars[k] = scalarString(v)
			}
		}
		if play.HostGroup == "" {
			return nil, fmt.Errorf("orchestrate: play %q has no hosts", play.Name)
		}
		for j, rawTask := range yamlite.GetSlice(pm, "tasks") {
			tm, ok := rawTask.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("orchestrate: play %q task %d is not a mapping", play.Name, j)
			}
			task := Task{
				Name: yamlite.GetString(tm, "name", fmt.Sprintf("task-%d", j)),
				Args: make(map[string]string),
			}
			for key, val := range tm {
				if key == "name" {
					continue
				}
				if task.Module != "" {
					return nil, fmt.Errorf("orchestrate: play %q task %q has multiple modules (%s, %s)",
						play.Name, task.Name, task.Module, key)
				}
				task.Module = key
				switch v := val.(type) {
				case string:
					task.Args["_raw"] = v
				case map[string]any:
					for ak, av := range v {
						task.Args[ak] = scalarString(av)
					}
				case nil:
					// module with no args
				default:
					task.Args["_raw"] = scalarString(v)
				}
			}
			if task.Module == "" {
				return nil, fmt.Errorf("orchestrate: play %q task %q has no module", play.Name, task.Name)
			}
			play.Tasks = append(play.Tasks, task)
		}
		if len(play.Tasks) == 0 {
			return nil, fmt.Errorf("orchestrate: play %q has no tasks", play.Name)
		}
		pb.Plays = append(pb.Plays, play)
	}
	if len(pb.Plays) == 0 {
		return nil, fmt.Errorf("orchestrate: empty playbook")
	}
	return pb, nil
}

func scalarString(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case nil:
		return ""
	default:
		return fmt.Sprint(t)
	}
}

// ModuleFunc implements one orchestration module. It may mutate the host
// and returns a human-readable result plus the simulated on-host work.
type ModuleFunc func(h *Host, args map[string]string) (msg string, work cluster.Work, err error)

// TaskResult records the outcome of one task on one host.
type TaskResult struct {
	Play, Task, Host string
	Module           string
	Msg              string
	Err              error
	// Elapsed is the virtual seconds the task took on the host across
	// all attempts (round trips + on-host work + retry backoff); 0 for
	// control-host tasks.
	Elapsed float64
	// Attempts is how many times the task executed on this host (>1
	// when the runner's retry policy absorbed transient failures).
	Attempts int
	// Changed reports whether the task mutated host state (the Ansible
	// ok/changed distinction the RECAP surfaces).
	Changed bool
	// Quarantined marks the failure that pushed its host over the
	// runner's quarantine threshold; the host runs no further tasks.
	Quarantined bool
}

// Failed reports whether the task failed.
func (r TaskResult) Failed() bool { return r.Err != nil }

// Runner executes playbooks against an inventory.
type Runner struct {
	inv     *Inventory
	modules map[string]ModuleFunc
	// SSHLatency is the per-task round-trip cost charged to cluster-node
	// hosts, seconds. The ablation benchmark varies this.
	SSHLatency float64
	// Batched, when true, pushes each play to a host as one bundle: the
	// round trip is charged once per play per host instead of once per
	// task (the "batched playbook push" side of the ablation).
	Batched bool
	// Forks is how many hosts a task is driven on concurrently — the
	// Ansible "forks" setting, normalized through sched.Jobs like every
	// other worker knob in the toolchain: <= 0 means one fork per CPU,
	// 1 keeps execution strictly serial.
	// Hosts have independent state and logical clocks, so forked
	// execution is deterministic: task results are reported in
	// inventory order regardless of completion order. The one visible
	// difference from serial execution: when a task fails on some host,
	// the task still completes on the play's remaining hosts (their
	// results are included) before the playbook stops.
	Forks int
	// Faults is the deterministic chaos injector consulted before each
	// task attempt (sites "orchestrate/<host>/<task>"); nil disables
	// injection. Sites are per (host, task), so forked execution draws
	// the same fault schedule as serial execution.
	Faults *fault.Injector
	// Retry re-runs a failing task on its host up to Retry.Max more
	// times; injected crashes are terminal. Backoff delays are charged
	// to the host's logical clock. Builtin modules are idempotent, so
	// re-running one is safe.
	Retry fault.Retry
	// QuarantineAfter, when > 0, switches the runner from fail-fast to
	// degrade-gracefully: a task failure no longer stops the playbook;
	// instead the failing host accumulates strikes, and a host reaching
	// QuarantineAfter failed tasks is quarantined — excluded from every
	// later task and play (FormatResults reports it). Run then returns
	// an aggregate error describing the quarantined hosts, alongside
	// the complete result list. 0 preserves the historical stop-at-
	// first-failure behavior.
	QuarantineAfter int
}

// NewRunner creates a runner with the builtin module set: ping, shell,
// copy, pkg, service, set_fact, assert_fact.
func NewRunner(inv *Inventory) *Runner {
	r := &Runner{inv: inv, modules: make(map[string]ModuleFunc), SSHLatency: 0.05}
	r.RegisterModule("ping", func(h *Host, _ map[string]string) (string, cluster.Work, error) {
		return "pong", cluster.Work{}, nil
	})
	r.RegisterModule("shell", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		cmd := args["_raw"]
		if cmd == "" {
			cmd = args["cmd"]
		}
		if cmd == "" {
			return "", cluster.Work{}, fmt.Errorf("shell: no command")
		}
		// A shell command costs a process spawn plus nominal work.
		return "ran: " + cmd, cluster.Work{Syscalls: 2000, CPUOps: 5e6}, nil
	})
	r.RegisterModule("copy", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		dest := args["dest"]
		if dest == "" {
			return "", cluster.Work{}, fmt.Errorf("copy: dest required")
		}
		content := []byte(args["content"])
		h.files[dest] = content
		return fmt.Sprintf("copied %d bytes to %s", len(content), dest),
			cluster.Work{DiskBytes: float64(len(content)), Syscalls: 10}, nil
	})
	r.RegisterModule("pkg", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		name := args["name"]
		if name == "" {
			name = args["_raw"]
		}
		if name == "" {
			return "", cluster.Work{}, fmt.Errorf("pkg: name required")
		}
		var installed []string
		for _, p := range strings.Split(name, ",") {
			p = strings.TrimSpace(p)
			if p != "" && !h.packages[p] {
				h.packages[p] = true
				installed = append(installed, p)
			}
		}
		if len(installed) == 0 {
			return "already installed", cluster.Work{Syscalls: 100}, nil
		}
		// Installing a package streams an archive and unpacks it.
		return "installed " + strings.Join(installed, ","),
			cluster.Work{DiskBytes: 20e6 * float64(len(installed)), CPUOps: 5e7, Syscalls: 5000}, nil
	})
	r.RegisterModule("service", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		name, state := args["name"], args["state"]
		if name == "" {
			return "", cluster.Work{}, fmt.Errorf("service: name required")
		}
		switch state {
		case "", "started":
			h.services[name] = true
		case "stopped":
			h.services[name] = false
		default:
			return "", cluster.Work{}, fmt.Errorf("service: unknown state %q", state)
		}
		return fmt.Sprintf("service %s -> %s", name, state), cluster.Work{Syscalls: 500}, nil
	})
	r.RegisterModule("set_fact", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		for k, v := range args {
			if k == "_raw" {
				continue
			}
			h.facts[k] = v
		}
		return "facts set", cluster.Work{}, nil
	})
	r.RegisterModule("assert_fact", func(h *Host, args map[string]string) (string, cluster.Work, error) {
		key, want := args["key"], args["equals"]
		if key == "" {
			return "", cluster.Work{}, fmt.Errorf("assert_fact: key required")
		}
		got, ok := h.facts[key]
		if !ok {
			return "", cluster.Work{}, fmt.Errorf("assert_fact: fact %q not gathered", key)
		}
		if want != "" && got != want {
			return "", cluster.Work{}, fmt.Errorf("assert_fact: %s = %q, want %q", key, got, want)
		}
		return fmt.Sprintf("%s = %s", key, got), cluster.Work{}, nil
	})
	return r
}

// RegisterModule installs a custom module.
func (r *Runner) RegisterModule(name string, fn ModuleFunc) { r.modules[name] = fn }

// Check validates a playbook against the inventory and module table
// without executing anything — the CI tier-1 "syntax of orchestration
// files is correct" check from the paper.
func (r *Runner) Check(pb *Playbook) error {
	for _, play := range pb.Plays {
		if len(r.inv.Group(play.HostGroup)) == 0 {
			return fmt.Errorf("orchestrate: play %q: no hosts in group %q", play.Name, play.HostGroup)
		}
		for _, task := range play.Tasks {
			if _, ok := r.modules[task.Module]; !ok {
				return fmt.Errorf("orchestrate: play %q task %q: unknown module %q",
					play.Name, task.Name, task.Module)
			}
		}
	}
	return nil
}

// Run executes the playbook. With the default configuration execution
// stops at the first failing task (results up to and including the
// failure are returned). With QuarantineAfter > 0 the runner degrades
// gracefully instead: failures strike the host, a host reaching the
// threshold is quarantined out of all remaining tasks and plays, the
// rest of the playbook completes, and the returned error (alongside the
// complete result list) summarizes the quarantined hosts.
func (r *Runner) Run(pb *Playbook) ([]TaskResult, error) {
	if err := r.Check(pb); err != nil {
		return nil, err
	}
	var results []TaskResult
	// One pool for the whole run — fork sites share it instead of
	// allocating a fresh pool per task, and Forks <= 0 normalizes to
	// one fork per CPU (sched.Jobs) like every other worker knob.
	pool := sched.NewPool(r.Forks)
	forked := pool.Workers() > 1
	strikes := make(map[string]int)
	quarantined := make(map[string]bool)
	// live filters a host list down to non-quarantined hosts.
	live := func(all []*Host) []*Host {
		if len(quarantined) == 0 {
			return all
		}
		out := make([]*Host, 0, len(all))
		for _, h := range all {
			if !quarantined[h.Name] {
				out = append(out, h)
			}
		}
		return out
	}
	// strike records a task failure; it reports whether the playbook
	// must stop (fail-fast mode) and marks the result that tipped its
	// host into quarantine.
	strike := func(res *TaskResult) (stop bool) {
		if r.QuarantineAfter <= 0 {
			return true
		}
		strikes[res.Host]++
		if strikes[res.Host] >= r.QuarantineAfter && !quarantined[res.Host] {
			quarantined[res.Host] = true
			res.Quarantined = true
		}
		return false
	}
	for _, play := range pb.Plays {
		hosts := live(r.inv.Group(play.HostGroup))
		if len(hosts) == 0 {
			// Every host of the play is quarantined; skip it rather
			// than fail the whole playbook.
			continue
		}
		if play.GatherFacts {
			if forked {
				pool.Each(len(hosts), func(i int) error {
					r.gatherFacts(hosts[i])
					return nil
				})
			} else {
				for _, h := range hosts {
					r.gatherFacts(h)
				}
			}
		}
		if r.Batched {
			// One push per play per host.
			for _, h := range hosts {
				if h.Node != nil {
					h.Node.Advance(r.SSHLatency)
				}
			}
		}
		for _, task := range play.Tasks {
			if forked && len(hosts) > 1 {
				// Fan the task out across hosts; collect in inventory
				// order so forked runs journal identically.
				taskResults := make([]TaskResult, len(hosts))
				pool.Each(len(hosts), func(i int) error {
					taskResults[i] = r.runTask(play, task, hosts[i])
					return nil
				})
				base := len(results)
				results = append(results, taskResults...)
				for i := base; i < len(results); i++ {
					res := &results[i]
					if res.Err != nil && strike(res) {
						return results, fmt.Errorf("orchestrate: play %q task %q failed on %s: %w",
							play.Name, task.Name, res.Host, res.Err)
					}
				}
			} else {
				stopped := false
				for _, h := range hosts {
					res := r.runTask(play, task, h)
					failed := res.Err != nil
					if failed {
						stopped = strike(&res)
					}
					results = append(results, res)
					if stopped {
						return results, fmt.Errorf("orchestrate: play %q task %q failed on %s: %w",
							play.Name, task.Name, h.Name, res.Err)
					}
				}
			}
			if hosts = live(hosts); len(hosts) == 0 {
				break
			}
		}
	}
	if len(quarantined) > 0 {
		names := make([]string, 0, len(quarantined))
		for h := range quarantined {
			names = append(names, h)
		}
		sort.Strings(names)
		return results, fmt.Errorf("orchestrate: %d host(s) quarantined after repeated task failures: %s",
			len(names), strings.Join(names, ", "))
	}
	return results, nil
}

// changedModules are the builtin modules that mutate host state — the
// Ansible ok/changed distinction the RECAP reports.
var changedModules = map[string]bool{
	"copy": true, "pkg": true, "service": true, "set_fact": true,
}

func (r *Runner) runTask(play Play, task Task, h *Host) TaskResult {
	res := TaskResult{Play: play.Name, Task: task.Name, Host: h.Name, Module: task.Module}
	fn := r.modules[task.Module]
	site := "orchestrate/" + h.Name + "/" + task.Name
	start := 0.0
	if h.Node != nil {
		start = h.Node.Now()
	}
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		// Each attempt pays its own ssh round trip (a retry reconnects)
		// unless the play was pushed as one batch.
		if h.Node != nil && !r.Batched {
			h.Node.Advance(r.SSHLatency)
		}
		var (
			msg  string
			work cluster.Work
			err  error
		)
		if r.Faults != nil {
			if f := r.Faults.Check(site); f != nil {
				if f.Kind == fault.Latency {
					if h.Node != nil {
						h.Node.Advance(f.Delay)
					}
				} else {
					err = f
				}
			}
		}
		if err == nil {
			var args map[string]string
			if args, err = templateArgs(task.Args, play, h); err == nil {
				msg, work, err = fn(h, args)
			}
		}
		res.Msg, res.Err = msg, err
		if err == nil {
			res.Changed = changedModules[task.Module] && msg != "already installed"
			if h.Node != nil {
				h.Node.Run(work)
				res.Elapsed = h.Node.Now() - start
			}
			return res
		}
		// Crashes are terminal; other failures retry under the policy.
		// Builtin modules are idempotent, so re-running one is safe.
		if fault.IsTerminal(err) || attempt > r.Retry.Max {
			if h.Node != nil {
				res.Elapsed = h.Node.Now() - start
			}
			return res
		}
		if delay := r.Retry.Delay(r.Faults.Seed(), site, attempt); h.Node != nil {
			h.Node.Advance(delay)
		}
	}
}

// templateArgs substitutes `{{ var }}` references in task arguments.
// Lookup order: host vars, gathered facts, play vars. Unknown variables
// are an error — silent empty expansion is how ad-hoc scripts rot.
func templateArgs(args map[string]string, play Play, h *Host) (map[string]string, error) {
	out := make(map[string]string, len(args))
	for k, v := range args {
		expanded, err := expand(v, play, h)
		if err != nil {
			return nil, err
		}
		out[k] = expanded
	}
	return out, nil
}

func expand(s string, play Play, h *Host) (string, error) {
	var sb strings.Builder
	for {
		i := strings.Index(s, "{{")
		if i < 0 {
			sb.WriteString(s)
			return sb.String(), nil
		}
		j := strings.Index(s[i:], "}}")
		if j < 0 {
			return "", fmt.Errorf("orchestrate: unterminated {{ in %q", s)
		}
		name := strings.TrimSpace(s[i+2 : i+j])
		var val string
		var ok bool
		if val, ok = h.Vars[name]; !ok {
			if val, ok = h.facts[name]; !ok {
				val, ok = play.Vars[name]
			}
		}
		if !ok {
			return "", fmt.Errorf("orchestrate: undefined variable %q (host vars, facts, play vars)", name)
		}
		sb.WriteString(s[:i])
		sb.WriteString(val)
		s = s[i+j+2:]
	}
}

// gatherFacts populates the host's fact map from its node profile.
func (r *Runner) gatherFacts(h *Host) {
	if h.Node == nil {
		h.facts["machine"] = "control"
		return
	}
	for k, v := range h.Node.Facts() {
		h.facts[k] = v
	}
}

// FormatResults renders task results as a compact report: one line per
// task (with retry counts), then an Ansible-style per-host recap.
func FormatResults(results []TaskResult) string {
	var sb strings.Builder
	type tally struct {
		ok, changed, failed int
		quarantined         bool
	}
	tallies := make(map[string]*tally)
	var hosts []string
	for _, r := range results {
		t, seen := tallies[r.Host]
		if !seen {
			t = &tally{}
			tallies[r.Host] = t
			hosts = append(hosts, r.Host)
		}
		status := "ok"
		switch {
		case r.Failed():
			status = "FAILED"
			t.failed++
		case r.Changed:
			status = "chngd"
			t.changed++
			t.ok++
		default:
			t.ok++
		}
		attempts := ""
		if r.Attempts > 1 {
			attempts = fmt.Sprintf(" (%d attempts)", r.Attempts)
		}
		fmt.Fprintf(&sb, "%-6s [%s] %s on %s: %s%s\n", status, r.Play, r.Task, r.Host, r.Msg, attempts)
		if r.Err != nil {
			fmt.Fprintf(&sb, "       error: %v\n", r.Err)
		}
		if r.Quarantined {
			t.quarantined = true
			fmt.Fprintf(&sb, "       host %s quarantined: no further tasks will run on it\n", r.Host)
		}
	}
	if len(hosts) == 0 {
		return sb.String()
	}
	sort.Strings(hosts)
	sb.WriteString("\nPLAY RECAP\n")
	for _, h := range hosts {
		t := tallies[h]
		mark := ""
		if t.quarantined {
			mark = "   QUARANTINED"
		}
		fmt.Fprintf(&sb, "%-16s : ok=%-3d changed=%-3d failed=%-3d%s\n", h, t.ok, t.changed, t.failed, mark)
	}
	return sb.String()
}
