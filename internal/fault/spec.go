package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"popper/internal/yamlite"
)

// Spec is a parsed faults.yml document: a seed plus the rule list. The
// file format mirrors the convention's other declarative artifacts —
// everything a chaos run needs to be replayed lives in one versioned
// file:
//
//	seed: 42
//	faults:
//	  - site: pipeline/sweep/*/run
//	    kind: error        # error | latency | partition | crash | crash-disk
//	    prob: 0.5          # per-occurrence probability (default 1)
//	    after: 1           # skip the first N occurrences
//	    times: 2           # at most N injections per site (0 = unlimited)
//	    global: true       # window over all matching sites, not per site
//	    delay: 0.25        # latency faults: virtual seconds
//	    msg: flaky stage
type Spec struct {
	Seed  int64
	Rules []Rule
}

// ParseSpec decodes a faults.yml document.
func ParseSpec(src string) (*Spec, error) {
	doc, err := yamlite.DecodeMap(src)
	if err != nil {
		return nil, fmt.Errorf("fault: faults.yml: %w", err)
	}
	spec := &Spec{Seed: int64(yamlite.GetInt(doc, "seed", 1))}
	raw, ok := yamlite.Get(doc, "faults")
	if !ok {
		return nil, fmt.Errorf("fault: faults.yml declares no faults")
	}
	list, ok := raw.([]any)
	if !ok {
		return nil, fmt.Errorf("fault: faults.yml: faults must be a list")
	}
	for i, rawRule := range list {
		rm, ok := rawRule.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("fault: faults.yml: fault %d is not a mapping", i)
		}
		rule := Rule{
			Site:   yamlite.GetString(rm, "site", ""),
			Prob:   getFloat(rm, "prob", 1),
			After:  yamlite.GetInt(rm, "after", 0),
			Times:  yamlite.GetInt(rm, "times", 0),
			Global: yamlite.GetBool(rm, "global", false),
			Delay:  getFloat(rm, "delay", 0),
			Msg:    yamlite.GetString(rm, "msg", ""),
		}
		if rule.Site == "" {
			return nil, fmt.Errorf("fault: faults.yml: fault %d has no site", i)
		}
		kind, err := ParseKind(yamlite.GetString(rm, "kind", "error"))
		if err != nil {
			// Name the rule index AND its site glob: in a 20-rule file,
			// "fault 7 (site disk/read/*)" is findable; the kind string
			// alone is not.
			return nil, fmt.Errorf("fault: faults.yml: fault %d (site %q): %w", i, rule.Site, err)
		}
		rule.Kind = kind
		switch {
		case math.IsNaN(rule.Delay) || math.IsInf(rule.Delay, 0):
			return nil, fmt.Errorf("fault: faults.yml: fault %d (site %q) has delay %v, which is not a finite number", i, rule.Site, rule.Delay)
		case rule.Kind == Latency && rule.Delay <= 0:
			return nil, fmt.Errorf("fault: faults.yml: latency fault %d (site %q) needs delay > 0", i, rule.Site)
		}
		spec.Rules = append(spec.Rules, rule)
	}
	return spec, nil
}

// Injector builds a fresh injector (empty occurrence history) from the
// spec. Each sweep run gets its own so the schedule replays from the
// start.
func (s *Spec) Injector() *Injector { return NewInjector(s.Seed, s.Rules) }

// Fingerprint is a stable digest of the spec — mixed into stage-cache
// salts so runs under different fault schedules never share cache
// entries.
func (inj *Injector) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d", inj.seed)
	for _, r := range inj.rules {
		fmt.Fprintf(h, "|%s;%s;%g;%d;%d;%t;%g;%s", r.Site, r.Kind, r.Prob, r.After, r.Times, r.Global, r.Delay, r.Msg)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// getFloat reads a numeric mapping value that yamlite may have decoded
// as int64, float64 or a numeric string.
func getFloat(doc map[string]any, key string, def float64) float64 {
	raw, ok := yamlite.Get(doc, key)
	if !ok {
		return def
	}
	switch v := raw.(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case string:
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}
