// Package scrub runs the repository's integrity passes: over one store,
// or over every replica of a replicated group, once from the CLI
// (`popper fsck`, `popper scrub`) or on a cadence beside a sweep
// (`popper run -scrub-interval`).
//
// Each pass verifies a store with store.Verify, which reads and hashes
// every tracked file once, compares each hash with the file's manifest
// entry, and checks that the object pool backs every committed content.
// A repair pass then plans the fix with store.Plan — every action names
// the rung that supplies its bytes, in the fixed chain replica quorum →
// local object pool → intact workspace copy (reseal) → quarantine —
// applies it with store.Apply, and verifies once more to prove
// convergence. In a group the quorum is the top rung, so nothing is
// quarantined while a majority of replicas still holds the bytes;
// after the per-replica passes, the group's audit of committed state
// turns lagging and divergent replicas into anti-entropy and reseed
// actions.
//
// See docs/RESILIENCE.md ("Integrity verification and repair").
package scrub

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"popper/internal/metrics"
	"popper/internal/repl"
	"popper/internal/store"
)

// Report is the result of one pass: the store's report, merged across
// replicas in group mode.
type Report = store.Report

// Options configure a Scrubber.
type Options struct {
	// Repair heals findings through the chain; false is detection-only.
	Repair bool
	// Group scrubs every replica of a replicated store and enables the
	// quorum rung; nil scrubs the single Store.
	Group *repl.Group
}

// Totals accumulate across every pass of a Scrubber's lifetime.
type Totals struct {
	Passes       int
	Scanned      int
	Bytes        int64
	Findings     int
	Healed       int
	Unrepairable int
	// HealedFrom tallies heals per repair-chain rung.
	HealedFrom [len(store.Rungs) + 1]int
}

// Scrubber runs integrity passes over one store (or one replicated
// group). Safe for concurrent use with sweeps: Verify holds the store
// lock for its whole walk, so a pass never observes a torn in-flight
// write, and a generation fence rescans if the tree moved between steps.
type Scrubber struct {
	st   *store.Store
	opts Options

	mu     sync.Mutex
	totals Totals
}

// New builds a scrubber over a store. With opts.Group set the store
// argument may be nil (the group names its own replicas).
func New(st *store.Store, opts Options) *Scrubber {
	if opts.Group != nil && st == nil {
		st = opts.Group.Store(0)
	}
	return &Scrubber{st: st, opts: opts}
}

// Totals returns a snapshot of the lifetime counters.
func (sc *Scrubber) Totals() Totals {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.totals
}

// Record publishes the scrubber's counters into a metrics registry as
// scrub_* gauges, alongside the cache_* family: one scrub_healed_<rung>
// gauge per rung of the chain, summing to scrub_healed.
func (sc *Scrubber) Record(reg *metrics.Registry) {
	t := sc.Totals()
	reg.Set("scrub_passes", float64(t.Passes))
	reg.Set("scrub_entries_verified", float64(t.Scanned))
	reg.Set("scrub_bytes_verified", float64(t.Bytes))
	reg.Set("scrub_findings", float64(t.Findings))
	reg.Set("scrub_healed", float64(t.Healed))
	reg.Set("scrub_unrepairable", float64(t.Unrepairable))
	for _, r := range store.Rungs {
		reg.Set("scrub_healed_"+r.String(), float64(t.HealedFrom[r]))
	}
}

// Scrub runs one full pass: verify, and with Repair plan, apply and
// re-verify. In group mode every live replica's store is scrubbed with
// the group as the quorum rung, then replica agreement is audited.
func (sc *Scrubber) Scrub() (*Report, error) {
	rep := &Report{}
	if g := sc.opts.Group; g != nil {
		if err := sc.scrubGroup(g, rep); err != nil {
			return nil, err
		}
	} else if err := sc.scrubStore(sc.st, 0, nil, rep); err != nil {
		return nil, err
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		return a.Replica < b.Replica || a.Replica == b.Replica && a.Path < b.Path
	})
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := &sc.totals
	t.Passes++
	t.Scanned += rep.Scanned
	t.Bytes += rep.Bytes
	t.Findings += len(rep.Findings)
	for _, f := range rep.Findings {
		switch f.Outcome {
		case store.Healed:
			t.Healed++
			t.HealedFrom[f.Rung]++
		case store.Quarantined, store.Failed:
			t.Unrepairable++
		}
	}
	return rep, nil
}

// fenceRetries bounds how many times a pass restarts when a concurrent
// sync moves the generation mid-pass.
const fenceRetries = 3

// scrubStore runs the verify→plan→apply→re-verify cycle on one store,
// restarting the verify while concurrent syncs move the generation.
func (sc *Scrubber) scrubStore(st *store.Store, replica int, q store.Quorum, rep *Report) error {
	for attempt := 0; ; attempt++ {
		gen0, err := st.Generation()
		if err != nil {
			gen0 = -1 // damaged manifest: Verify classifies it
		}
		r, err := st.Verify()
		if err != nil {
			return err
		}
		// Generation fence: a sync that committed while the pass read
		// the tree may have left findings describing a tree that no
		// longer exists. Discard them and rescan.
		if gen1, err := st.Generation(); err == nil && gen0 >= 0 && gen1 != gen0 && attempt < fenceRetries {
			continue
		}
		if sc.opts.Repair && !r.Clean() {
			plan, err := st.Plan(r, q)
			if err != nil {
				return err
			}
			if err := st.Apply(r, plan); err != nil {
				return err
			}
			after, err := st.Verify()
			if err != nil {
				return err
			}
			if !after.Clean() {
				return fmt.Errorf("store still unhealthy after repair:\n%s", after.Format())
			}
		}
		merge(rep, r, replica)
		return nil
	}
}

// merge folds one replica's report into the pass's report.
func merge(rep, r *Report, replica int) {
	if rep.Generation == 0 {
		rep.Generation, rep.Tracked = r.Generation, r.Tracked
	}
	rep.Scanned += r.Scanned
	rep.Bytes += r.Bytes
	for _, f := range r.Findings {
		f.Replica = replica
		rep.Findings = append(rep.Findings, f)
	}
	for _, a := range r.Actions {
		a.Replica = replica
		rep.Actions = append(rep.Actions, a)
	}
}

// scrubGroup scrubs every live replica's store, the group serving as
// the quorum rung, then audits replica agreement on committed state:
// lagging replicas are caught up by anti-entropy, and divergence log
// replay cannot settle is healed by reseeding from the primary's
// snapshot.
func (sc *Scrubber) scrubGroup(g *repl.Group, rep *Report) error {
	for id := 0; id < g.Size(); id++ {
		if g.Down(id) {
			continue
		}
		if err := sc.scrubStore(g.Store(id), id, g, rep); err != nil {
			return fmt.Errorf("replica %d: %w", id, err)
		}
	}
	aud, err := g.Audit()
	if err != nil {
		return err
	}
	first := len(rep.Findings)
	for _, id := range aud.Lagging {
		rep.Findings = append(rep.Findings, store.Finding{Replica: id, Path: "tree", State: store.StateLagging, Note: "lags the quorum frontier"})
	}
	for _, id := range aud.Divergent {
		rep.Findings = append(rep.Findings, divergent(id))
	}
	if !sc.opts.Repair || len(rep.Findings) == first {
		return nil
	}
	// Anti-entropy first: it catches laggards up and settles any
	// divergence log replay can see. A replica still divergent after it
	// is reseeded from the primary's snapshot.
	if err := g.Heal(); err == nil {
		if aud, err = g.Audit(); err != nil {
			return err
		}
	}
	for _, id := range aud.Divergent {
		if !slices.ContainsFunc(rep.Findings[first:], func(f store.Finding) bool { return f.Replica == id }) {
			rep.Findings = append(rep.Findings, divergent(id))
		}
	}
	for i := first; i < len(rep.Findings); i++ {
		f := &rep.Findings[i]
		a := store.Action{Verb: store.VerbHeal, Replica: f.Replica, Path: "tree", Rung: store.RungReplica, Note: "caught up by anti-entropy"}
		f.Outcome, f.Rung = store.Healed, store.RungReplica
		switch {
		case slices.Contains(aud.Divergent, f.Replica):
			a.Verb, a.Note = store.VerbReseed, "primary snapshot installed"
			if err := g.Reseed(f.Replica); err != nil {
				a.Note, f.Outcome = "reseed failed: "+err.Error(), store.Failed
			}
		case slices.Contains(aud.Lagging, f.Replica):
			a.Note, f.Outcome = "still lagging after anti-entropy", store.Failed
		}
		rep.Actions = append(rep.Actions, a)
	}
	return nil
}

// divergent is the finding for a replica whose committed state the
// audit found diverging.
func divergent(id int) store.Finding {
	return store.Finding{Replica: id, Path: "tree", State: store.StateDivergent, Note: "committed state diverges from the primary history"}
}
