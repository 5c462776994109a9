package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"popper/internal/fault"
)

// Fuzz targets for the decoders the store trusts on open and on
// `-resume`: the committed manifest and the put record. Each corpus is
// seeded with real outputs — a committed manifest of the benchmark
// sweep's size, a sweep journal's put records — a torn prefix of each,
// and the seeded rot the crash and rot matrices inject, so the seeds
// run under plain `go test` and the fuzzer starts from realistic damage.

var fuzzRotSeeds = []int64{42, 7, 1337}

// withDamage returns each image, a torn prefix of it, and seeded rot.
func withDamage(key string, images ...[]byte) [][]byte {
	var out [][]byte
	for i, img := range images {
		out = append(out, img, img[:len(img)*2/3])
		for _, seed := range fuzzRotSeeds {
			for round := 1; round <= 3; round++ {
				rotted, _ := fault.CorruptBytes(seed, fmt.Sprintf("%s-%d", key, i), round, img)
				out = append(out, rotted)
			}
		}
	}
	return out
}

// fuzzManifests commits a 114-entry sweep workspace (the benchmark
// repository's size) and the small crash-matrix one, returning the
// committed manifests.
func fuzzManifests(tb testing.TB) [][]byte {
	tb.Helper()
	big := map[string][]byte{".popper.yml": []byte("experiments:\n  - clover\n")}
	for i := 0; len(big) < 114; i++ {
		big[fmt.Sprintf("experiments/clover/sweep/%03d/results.csv", i)] = []byte(fmt.Sprintf("metric,value\nthroughput,%d\n", 800+i))
	}
	var out [][]byte
	for _, files := range []map[string][]byte{big, w2()} {
		fs := NewMemFS(1)
		if _, err := New(fs).Sync(files); err != nil {
			tb.Fatal(err)
		}
		raw, err := fs.ReadFile(manifestPath)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

func FuzzParseManifest(f *testing.F) {
	for _, raw := range withDamage("fuzz-manifest", fuzzManifests(f)...) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseManifest(raw)
		if err != nil {
			return
		}
		// An accepted manifest re-encodes to one that parses back to the
		// same generation and entries.
		again, err := ParseManifest(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded manifest does not parse: %v", err)
		}
		if again.Generation != m.Generation || again.Len() != m.Len() {
			t.Fatalf("round trip: generation %d/%d, %d/%d entries", again.Generation, m.Generation, again.Len(), m.Len())
		}
		for i, e := range m.Entries {
			if again.Entries[i] != e {
				t.Fatalf("entry %d round-trips as %+v, want %+v", i, again.Entries[i], e)
			}
		}
	})
}

// fuzzPutRecords writes a sweep journal through Put, row by row, and
// returns each record file with its name, read before the next Put
// supersedes and removes it.
func fuzzPutRecords(tb testing.TB) (names []string, images [][]byte) {
	tb.Helper()
	fs := NewMemFS(1)
	st := New(fs)
	stats, err := st.Sync(w1())
	if err != nil {
		tb.Fatal(err)
	}
	journal := []byte("config,params,status,attempts,detail\n")
	for i := 0; i < 32; i++ {
		journal = fmt.Appendf(journal, "%d,seed=%d,ok,1,%x\n", i, 1000+i, sha256.Sum256([]byte{byte(i)}))
		if err := st.Put("experiments/clover/sweep/journal.csv", bytes.Clone(journal)); err != nil {
			tb.Fatal(err)
		}
		name := putRecordPath(stats.Generation, i+1)
		raw, err := fs.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		names, images = append(names, name), append(images, raw)
	}
	paths, err := fs.List()
	if err != nil {
		tb.Fatal(err)
	}
	var rest []string
	for _, p := range paths {
		if isPutRecord(p) {
			rest = append(rest, p)
		}
	}
	if len(rest) != 1 || rest[0] != names[31] {
		tb.Fatalf("32 puts of one path left records %v, want only %s", rest, names[31])
	}
	return names, images
}

func FuzzDecodePutRecord(f *testing.F) {
	names, images := fuzzPutRecords(f)
	// The first, a middle and the last record, each under its own name
	// and under a neighbor's.
	for _, i := range []int{0, 15, 31} {
		for _, raw := range withDamage("fuzz-put", images[i]) {
			f.Add(names[i], raw)
		}
		f.Add(names[(i+1)%len(names)], images[i])
	}
	f.Fuzz(func(t *testing.T, name string, raw []byte) {
		rec, err := decodePutRecord(name, raw)
		if err != nil {
			return
		}
		// An accepted record is exactly the encoding of what it decodes
		// to, under its own name, for a tracked path.
		gen, seq, ok := parsePutName(name)
		if !ok || rec.seq != seq || rec.name != name || !Tracked(rec.path) {
			t.Fatalf("accepted record %q decodes to %+v", name, rec)
		}
		if sha256.Sum256(rec.data) != rec.hash {
			t.Fatal("accepted record's content does not match its digest")
		}
		if !bytes.Equal(encodePutRecord(gen, seq, rec.path, rec.data), raw) {
			t.Fatal("accepted record is not the canonical encoding of its content")
		}
	})
}
