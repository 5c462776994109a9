// Package fault is the deterministic fault-injection substrate behind
// the toolchain's resilience machinery. The Popper convention promises
// that a re-run either reproduces a result or fails loudly and
// diagnosably; this package supplies the controlled failures that let
// the execution stack (sched → pipeline → sweep → orchestrate →
// gasnet/gassyfs) prove it absorbs faults without losing that promise.
//
// Faults are declared as rules scoped by a site name — a slash-separated
// path naming one injection point, such as "pipeline/sweep/001/run" or
// "gasnet/getv/r2" — plus an occurrence window (After/Times) and a
// per-occurrence probability. Every decision is a pure function of
// (seed, site, rule, occurrence): the injector keeps one occurrence
// counter per site and hashes the tuple through a splitmix64 finalizer,
// so a failure schedule replays bit-identically from the same spec and
// seed, and sites that run concurrently never perturb each other's
// stream. Determinism across worker counts therefore holds whenever
// each site is driven serially (one site per sweep configuration, per
// pipeline stage, per host/task pair) — the invariant the execution
// layers maintain — or when a rule's decision is occurrence-independent
// (probability 0 or 1 with no Times cap).
//
// The same seeded hash drives retry backoff jitter (Retry.Delay), which
// is what makes a whole chaos run — failures and backoff delays —
// reproducible byte for byte. See docs/RESILIENCE.md.
package fault

import (
	"fmt"
	"sync"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// Error is a transient failure: the site returns an error that
	// retry policies may absorb.
	Error Kind = iota
	// Latency delays the site by Delay virtual seconds without failing
	// it — a straggler host or a slow transfer.
	Latency
	// Partition models a network partition: RDMA-layer operations fail
	// with a typed, retryable error.
	Partition
	// Crash is a hard failure: terminal, never retried.
	Crash
	// DiskCrash ("crash-disk" in faults.yml) models power loss at a disk
	// boundary: the current write may tear, everything unsynced may be
	// lost, and the store refuses further operations until "reboot".
	// Terminal, never retried. See internal/store and docs/RESILIENCE.md.
	DiskCrash
	// CorruptDisk ("corrupt-disk" in faults.yml) models silent bit-rot:
	// the site succeeds but the bytes it observes are mutated by a
	// seeded flip or truncation (CorruptBytes). No error surfaces — the
	// scrubber's check of every file against the manifest is what must
	// catch it. See internal/scrub and docs/RESILIENCE.md.
	CorruptDisk
)

// String names the kind as it appears in faults.yml.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Partition:
		return "partition"
	case Crash:
		return "crash"
	case DiskCrash:
		return "crash-disk"
	case CorruptDisk:
		return "corrupt-disk"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// ParseKind parses a faults.yml kind name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "error", "":
		return Error, nil
	case "latency":
		return Latency, nil
	case "partition":
		return Partition, nil
	case "crash":
		return Crash, nil
	case "crash-disk":
		return DiskCrash, nil
	case "corrupt-disk":
		return CorruptDisk, nil
	}
	return 0, fmt.Errorf("fault: unknown kind %q (error, latency, partition, crash, crash-disk, corrupt-disk)", s)
}

// Rule is one declarative fault: where it strikes, what it does, and
// how often. The zero probability value means "always" (Prob 0 is
// normalized to 1 at injector construction).
type Rule struct {
	// Site is a glob over site names; '*' matches any run of
	// characters, including '/'.
	Site string
	// Kind is what happens when the rule fires.
	Kind Kind
	// Prob is the per-occurrence firing probability in (0, 1]; values
	// <= 0 or > 1 are clamped to 1 (always fire).
	Prob float64
	// After skips the first After occurrences of a matching site.
	After int
	// Times caps how many faults the rule injects per site (0 =
	// unlimited). The cap is per site, not global, so concurrent sites
	// stay independent.
	Times int
	// Global evaluates After/Times/Prob against one counter of matching
	// occurrences across every site the rule's glob covers, instead of
	// per-site counters — "fail the Nth disk operation overall". Only
	// deterministic when the matching sites are driven serially (the
	// store's sync path is), so reserve it for serial subsystems.
	Global bool
	// Delay is the virtual seconds a Latency fault adds.
	Delay float64
	// Msg is carried in the injected error text.
	Msg string
}

// Fault is one injected fault. It implements error; Latency faults are
// informational (callers advance a clock instead of failing).
type Fault struct {
	Kind       Kind
	Site       string
	Occurrence int
	Delay      float64
	Msg        string
}

// Error renders the fault diagnosably: kind, site and occurrence are
// what a replay needs to find the same injection point.
func (f *Fault) Error() string {
	msg := f.Msg
	if msg == "" {
		msg = "injected " + f.Kind.String()
	}
	return fmt.Sprintf("fault: %s at %s#%d: %s", f.Kind, f.Site, f.Occurrence, msg)
}

// Retryable reports whether the fault models a transient condition a
// retry policy may absorb. Crashes — process or disk — are terminal.
func (f *Fault) Retryable() bool { return f.Kind != Crash && f.Kind != DiskCrash }

// siteState is one site's mutable injection history.
type siteState struct {
	occ      int   // occurrences seen
	injected []int // faults injected so far, per rule
}

// Injector evaluates rules at sites. Safe for concurrent use; decisions
// are independent per site (see the package comment for the exact
// determinism contract).
type Injector struct {
	seed  int64
	rules []Rule

	mu    sync.Mutex
	sites map[string]*siteState
	// per-rule counters for Global rules: matching occurrences seen and
	// faults injected, across all sites.
	globalOcc []int
	globalInj []int
}

// NewInjector builds an injector over the rules. Prob values outside
// (0, 1] are normalized to 1.
func NewInjector(seed int64, rules []Rule) *Injector {
	normalized := append([]Rule(nil), rules...)
	for i := range normalized {
		if normalized[i].Prob <= 0 || normalized[i].Prob > 1 {
			normalized[i].Prob = 1
		}
	}
	return &Injector{
		seed: seed, rules: normalized, sites: make(map[string]*siteState),
		globalOcc: make([]int, len(normalized)), globalInj: make([]int, len(normalized)),
	}
}

// Seed returns the injector's seed (retry jitter shares it).
func (inj *Injector) Seed() int64 {
	if inj == nil {
		return 0
	}
	return inj.seed
}

// Rules returns a copy of the normalized rule set.
func (inj *Injector) Rules() []Rule { return append([]Rule(nil), inj.rules...) }

// Check records one occurrence of the site and returns the fault the
// first matching rule injects, or nil. Callers guard the call with a
// nil check (`if inj != nil`) so the no-fault hot path stays a single
// pointer comparison.
func (inj *Injector) Check(site string) *Fault {
	inj.mu.Lock()
	st := inj.sites[site]
	if st == nil {
		st = &siteState{injected: make([]int, len(inj.rules))}
		inj.sites[site] = st
	}
	occ := st.occ
	st.occ++
	for ri := range inj.rules {
		r := &inj.rules[ri]
		if !matchSite(r.Site, site) {
			continue
		}
		// Global rules window on the rule's cross-site occurrence stream;
		// per-site rules window on this site's.
		window, injected, coinSite := occ, st.injected[ri], site
		if r.Global {
			window, injected, coinSite = inj.globalOcc[ri], inj.globalInj[ri], "global"
			inj.globalOcc[ri]++
		}
		if window < r.After {
			continue
		}
		if r.Times > 0 && injected >= r.Times {
			continue
		}
		if r.Prob < 1 && hash01(inj.seed, coinSite, ri, window) >= r.Prob {
			continue
		}
		if r.Global {
			inj.globalInj[ri]++
		} else {
			st.injected[ri]++
		}
		inj.mu.Unlock()
		return &Fault{Kind: r.Kind, Site: site, Occurrence: window, Delay: r.Delay, Msg: r.Msg}
	}
	inj.mu.Unlock()
	return nil
}

// Occurrences returns how many occurrences of sites matching the glob
// the injector has recorded — how many times matching sites were
// checked, whether or not a fault fired. Crash-matrix tests use it to
// enumerate every injection point of a serial path.
func (inj *Injector) Occurrences(pattern string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	total := 0
	for site, st := range inj.sites {
		if matchSite(pattern, site) {
			total += st.occ
		}
	}
	return total
}

// Injected returns the total number of faults injected so far.
func (inj *Injector) Injected() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	total := 0
	for _, st := range inj.sites {
		for _, n := range st.injected {
			total += n
		}
	}
	for _, n := range inj.globalInj {
		total += n
	}
	return total
}

// Reset clears the occurrence history so the same schedule replays from
// the beginning.
func (inj *Injector) Reset() {
	inj.mu.Lock()
	inj.sites = make(map[string]*siteState)
	inj.globalOcc = make([]int, len(inj.rules))
	inj.globalInj = make([]int, len(inj.rules))
	inj.mu.Unlock()
}

// IsPartition reports whether err is (or wraps) an injected partition.
func IsPartition(err error) bool {
	f, ok := As(err)
	return ok && f.Kind == Partition
}

// IsCrash reports whether err is (or wraps) an injected crash — the
// one fault kind retry policies must not absorb.
func IsCrash(err error) bool {
	f, ok := As(err)
	return ok && f.Kind == Crash
}

// IsDiskCrash reports whether err is (or wraps) an injected disk crash
// (power loss at a storage boundary).
func IsDiskCrash(err error) bool {
	f, ok := As(err)
	return ok && f.Kind == DiskCrash
}

// IsTerminal reports whether err is (or wraps) an injected fault that
// retry policies must not absorb — a process crash or a disk crash.
func IsTerminal(err error) bool {
	f, ok := As(err)
	return ok && !f.Retryable()
}

// As unwraps err to the injected *Fault, walking Unwrap chains.
func As(err error) (*Fault, bool) {
	for err != nil {
		if f, ok := err.(*Fault); ok {
			return f, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}

// matchSite matches a glob pattern against a site name; '*' matches any
// run of characters including '/'. Iterative backtracking, no
// allocation.
func matchSite(pattern, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case star >= 0:
			mark++
			pi, si = star+1, mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// hash01 maps (seed, site, rule, occurrence) to [0, 1) — the seeded
// per-occurrence coin every probabilistic decision flips.
func hash01(seed int64, site string, rule, occ int) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 0x100000001b3
	}
	h ^= uint64(rule)<<32 ^ uint64(occ)
	return float64(splitmix64(h)>>11) / float64(1<<53)
}

// splitmix64 is the finalizer that whitens the site hash into an
// independent uniform stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash01 is the exported seeded coin: deterministic in (seed, key, n).
// Retry jitter and any layer needing reproducible pseudo-randomness
// outside rule evaluation share it.
func Hash01(seed int64, key string, n int) float64 {
	return hash01(seed, key, -1, n)
}

// MatchSite is the exported site glob matcher: '*' matches any run of
// characters including '/'. The MemFS at-rest rot hook and scrub tests
// use it to pick corruption targets with the same glob language rules
// use to pick injection sites.
func MatchSite(pattern, site string) bool { return matchSite(pattern, site) }

// CorruptBytes is the deterministic bit-rot mutator behind the
// corrupt-disk fault kind: it returns a corrupted copy of data (the
// input is never modified) plus a short description of the damage.
// The damage is a pure function of (seed, key, n) — the same tuple
// always flips the same bits — and is drawn from the three silent
// failure modes scrub must detect: a single-bit flip, a multi-bit
// scatter (2–4 flips), or a truncation to a strict prefix. Non-empty
// input always yields output that differs from the input; empty input
// is returned unchanged ("no bytes to rot").
func CorruptBytes(seed int64, key string, n int, data []byte) ([]byte, string) {
	if len(data) == 0 {
		return data, "no bytes to rot"
	}
	// Aspect coins: n*8+0 picks the mode, higher aspects pick positions.
	coin := func(aspect int) float64 { return Hash01(seed, key, n*8+aspect) }
	out := append([]byte(nil), data...)
	switch mode := coin(0); {
	case mode < 1.0/3:
		bit := int(coin(1) * float64(len(out)*8))
		out[bit/8] ^= 1 << uint(bit%8)
		return out, fmt.Sprintf("single-bit flip at bit %d of %d bytes", bit, len(data))
	case mode < 2.0/3:
		k := 2 + int(coin(1)*3) // 2..4 flips
		for i := 0; i < k; i++ {
			bit := int(coin(2+i) * float64(len(out)*8))
			out[bit/8] ^= 1 << uint(bit%8)
		}
		// Scattered flips can cancel pairwise on tiny inputs; the
		// contract is output != input, so force a flip if they did.
		same := true
		for i := range out {
			if out[i] != data[i] {
				same = false
				break
			}
		}
		if same {
			out[0] ^= 1
		}
		return out, fmt.Sprintf("%d-bit scatter over %d bytes", k, len(data))
	default:
		// Hash01 < 1, so the cut is always a strict prefix.
		cut := int(coin(7) * float64(len(out)))
		return out[:cut], fmt.Sprintf("truncated %d bytes to %d", len(data), cut)
	}
}

// Retry is a declarative retry policy: up to Max additional attempts
// after the first, with exponential backoff and deterministic jitter,
// all in virtual seconds.
type Retry struct {
	// Max is the number of retries (0 disables retrying; total attempts
	// = Max + 1).
	Max int
	// Backoff is the base delay before the first retry; it doubles each
	// further retry. <= 0 means no delay.
	Backoff float64
	// Jitter is the fraction of the delay randomized (deterministically)
	// around the base: delay * (1 ± Jitter).
	Jitter float64
}

// Delay returns the virtual-seconds backoff before retry `attempt`
// (1-based: the delay after the attempt'th failure). Deterministic in
// (seed, key, attempt).
func (r Retry) Delay(seed int64, key string, attempt int) float64 {
	if r.Backoff <= 0 || attempt < 1 {
		return 0
	}
	d := r.Backoff * float64(int64(1)<<uint(attempt-1))
	if r.Jitter > 0 {
		d *= 1 + float64(r.Jitter*(2*Hash01(seed, key, attempt)-1))
	}
	return d
}
