package fault

import (
	"math"
	"testing"
)

// FuzzParseSpec fuzzes the faults.yml parser. It must never panic, and
// every rule of a spec it accepts has a site, a known kind and a finite
// delay, and a latency rule a positive one.
func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{
		"\nseed: 99\nfaults:\n  - site: pipeline/*/run\n    kind: error\n    prob: 0.5\n    times: 2\n    msg: flaky stage\n" +
			"  - site: gasnet/getv/*\n    kind: partition\n    after: 1\n  - site: pipeline/*/setup\n    kind: latency\n    delay: 0.25\n",
		"\nseed: 9\nfaults:\n  - site: disk/*\n    kind: crash-disk\n    after: 5\n    global: true\n    msg: power loss\n",
		"seed: 7\nfaults:\n  - site: sched/host/sweep-0\n    kind: latency\n    prob: 1\n    delay: 30\n",
		"seed: 3\nfaults:\n  - site: disk/read/*\n    kind: corrupt-disk\n    times: 1\n  - site: sweep/sw/config/001\n    kind: crash\n",
		"",
		"faults:\n  - kind: error\n",
		"faults:\n  - site: a\n    kind: warp\n",
		"faults:\n  - site: a\n    kind: latency\n",
		"faults:\n  - site: a\n    kind: latency\n    delay: nan\n",
		"faults:\n  - site: a\n    kind: latency\n    delay: inf\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseSpec(src)
		if err != nil {
			return
		}
		for i, r := range spec.Rules {
			if r.Site == "" {
				t.Fatalf("%q: rule %d has no site", src, i)
			}
			if k, err := ParseKind(r.Kind.String()); err != nil || k != r.Kind {
				t.Fatalf("%q: rule %d has unknown kind %v", src, i, r.Kind)
			}
			if math.IsNaN(r.Delay) || math.IsInf(r.Delay, 0) {
				t.Fatalf("%q: rule %d has delay %v, want a finite one", src, i, r.Delay)
			}
			if r.Kind == Latency && !(r.Delay > 0) {
				t.Fatalf("%q: latency rule %d has delay %v, want > 0", src, i, r.Delay)
			}
		}
	})
}
