package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"popper/internal/fault"
	"popper/internal/yamlite"
)

// fuzzJournals returns real sweep journals to seed the parser fuzzer: a
// 32-row journal rendered the way RunSweep journals completed
// configurations, a torn prefix of it, and seeded rot of both with the
// crash and rot matrices' seeds.
func fuzzJournals(tb testing.TB) [][]byte {
	tb.Helper()
	var full []byte
	d := &durableJournal{path: "journal.csv", write: func(_ string, data []byte) error {
		full = data
		return nil
	}}
	for _, i := range completionOrder() {
		row := journalRow{
			index:    i,
			params:   fmt.Sprintf("iterations=200 problem_size=24 seed=%d", 1000+i*37),
			status:   "ok",
			attempts: 1 + i%3,
			detail:   fmt.Sprintf("%x", sha256.Sum256([]byte{byte(i)})),
		}
		if i%11 == 5 {
			row.status, row.detail = "failed", journalDetail("exit status 1\nretry budget exhausted")
		}
		d.record(row)
	}
	if ents, err := parseSweepJournal(full); err != nil || len(ents) != 32 {
		tb.Fatalf("the seed journal parses to %d entries (err %v), want 32", len(ents), err)
	}
	torn := full[:len(full)*2/3]
	out := [][]byte{full, torn}
	for k, img := range [][]byte{full, torn} {
		for _, seed := range []int64{42, 7, 1337} {
			for round := 1; round <= 3; round++ {
				rotted, _ := fault.CorruptBytes(seed, fmt.Sprintf("fuzz-journal-%d", k), round, img)
				out = append(out, rotted)
			}
		}
	}
	return out
}

// completionOrder is a fixed order in which a worker pool might finish
// 32 configurations.
func completionOrder() []int {
	order := make([]int, 32)
	for i := range order {
		order[i] = (i * 13) % 32
	}
	return order
}

// FuzzParseSweepJournal fuzzes the journal parser `-resume` trusts. A
// journal it accepts must be stable: its entries, rendered back as a
// journal the way RunSweep writes one, parse to the same entries. The
// check covers the indices and attempt counts a sweep writes; beyond
// them the float rendering of the table layer may not round-trip.
func FuzzParseSweepJournal(f *testing.F) {
	for _, raw := range fuzzJournals(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ents, err := parseSweepJournal(raw)
		if err != nil {
			return
		}
		idx := make([]int, 0, len(ents))
		for i, e := range ents {
			if i < 0 || i > 1<<20 || e.attempts < 0 || e.attempts > 1<<20 {
				return
			}
			idx = append(idx, i)
		}
		sort.Ints(idx)
		text := append([]byte(nil), journalHeader...)
		for _, i := range idx {
			e := ents[i]
			text = append(text, journalRow{index: i, params: e.params, status: e.status, attempts: e.attempts, detail: e.detail}.render()...)
		}
		again, err := parseSweepJournal(text)
		if err != nil {
			t.Fatalf("re-rendered journal does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(again, ents) {
			t.Fatalf("journal does not round-trip:\n got %v\nwant %v", again, ents)
		}
	})
}

// FuzzParseSweep fuzzes the sweep.yml parser. It must never panic, and
// a document it accepts must ask for at most maxSweepConfigs
// configurations and expand to the cross product of its axes: as many
// configurations as the product of the axes' value counts (a scalar
// axis counts one), each holding exactly the document's axes.
func FuzzParseSweep(f *testing.F) {
	for _, src := range []string{
		"seed: [1, 2]\nproblem_size: 8\n",
		"seed:\n  - 1\n  - 2\n  - 3\n",
		"seed: [1, 2, 3]\niterations: 200\nproblem_size: 24\n",
		"nodes: [1, 2, 4, 8]\n",
		"ax: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\nay: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\naz: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n" +
			"ba: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\nbb: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n", // 100,000 configurations: refused
		"nodes: [2, bogus]\n",
		"iterations: [3, 5]\nseed: 7\n",
		"",
		"axis: []\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := yamlite.DecodeMap(src)
		if err != nil {
			if _, err := ParseSweep(src); err == nil {
				t.Fatalf("ParseSweep accepts %q, which yamlite rejects", src)
			}
			return
		}
		product := 1 // saturates past the bound
		for _, v := range doc {
			if list, ok := v.([]any); ok && product <= maxSweepConfigs {
				product *= len(list)
			}
		}
		configs, err := ParseSweep(src)
		if err != nil {
			return
		}
		if product > maxSweepConfigs {
			t.Fatalf("%q: accepted, though its axes multiply past %d", src, maxSweepConfigs)
		}
		if len(configs) != product {
			t.Fatalf("%q: %d configurations, want the axes' product %d", src, len(configs), product)
		}
		for i, cfg := range configs {
			if len(cfg) != len(doc) {
				t.Fatalf("%q: configuration %d has %d axes, the document %d", src, i, len(cfg), len(doc))
			}
			for axis := range doc {
				if _, ok := cfg[axis]; !ok {
					t.Fatalf("%q: configuration %d lacks axis %q", src, i, axis)
				}
			}
		}
	})
}
