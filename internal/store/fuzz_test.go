package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"popper/internal/cas"
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

// resealManifest gives raw's entry lines a fresh checksum: the bytes
// before its last "checksum " (all of raw when it has none), then a
// checksum line over them, so damage to the entry lines passes the
// checksum and reaches the scanner.
func resealManifest(raw []byte) []byte {
	body := raw
	if i := bytes.LastIndex(raw, []byte("checksum ")); i >= 0 {
		body = raw[:i]
	}
	sum := sha256.Sum256(body)
	return fmt.Appendf(bytes.Clone(body), "checksum %x\n", sum)
}

// checkManifestAgainstOracle requires ParseManifest and the oracle to
// accept raw with the same generation and entries, or to refuse it with
// the same message. The one exception: ParseManifest refuses an entry
// path that is not Tracked or repeats an earlier entry's, which the
// oracle accepts. Every path ParseManifest accepts is tracked and
// unique.
func checkManifestAgainstOracle(t *testing.T, raw []byte) {
	t.Helper()
	got, err := ParseManifest(raw)
	want, werr := parseManifestOracle(raw)
	if werr == nil && err != nil {
		seen := make(map[string]bool, len(want.Entries))
		for _, e := range want.Entries {
			if !Tracked(e.Path) || seen[e.Path] {
				if msg := err.Error(); !strings.Contains(msg, "is not a tracked path") && !strings.Contains(msg, "repeats an earlier entry") {
					t.Fatalf("ParseManifest refuses a manifest naming %q with %v, want the path refusal", e.Path, err)
				}
				return
			}
			seen[e.Path] = true
		}
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("ParseManifest: %v; the oracle: %v", err, werr)
	}
	if err != nil {
		return
	}
	if got.Generation != want.Generation || !slices.Equal(got.Entries, want.Entries) {
		t.Fatalf("ParseManifest: generation %d, %+v; the oracle: generation %d, %+v", got.Generation, got.Entries, want.Generation, want.Entries)
	}
	for i, e := range got.Entries {
		if !Tracked(e.Path) {
			t.Fatalf("accepted an untracked entry path %q", e.Path)
		}
		if got.byPath[e.Path] != i {
			t.Fatalf("accepted entry path %q twice", e.Path)
		}
	}
}

func FuzzParseManifest(f *testing.F) {
	for _, raw := range withDamage("fuzz-manifest", fuzzManifests(f)...) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkManifestAgainstOracle(t, raw)
		checkManifestAgainstOracle(t, resealManifest(raw))
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

// encodePutRecordV1 is the version-1 record encoder, kept as the
// reference for records an earlier version left at rest: a two-blob cas
// extent of a header naming the generation, sequence and path, then the
// full content.
func encodePutRecordV1(gen, seq int, path string, data []byte) []byte {
	header := fmt.Sprintf("%s%d %d %s", putHeaderV1, gen, seq, path)
	return cas.EncodeExtent([][]byte{[]byte(header), data})
}

// fuzzPutRecords writes a 32-row sweep journal through Put, the rows
// finishing out of order, commits it, then re-runs the sweep so its
// last Put writes a committed record. It returns each record as it was
// written — full, links that insert at the end and in the middle, the
// committed record — plus version-1 records of the same journals.
func fuzzPutRecords(tb testing.TB) (names []string, images [][]byte) {
	tb.Helper()
	fs := NewMemFS(1)
	st := New(fs)
	files := w1()
	if _, err := st.Sync(files); err != nil {
		tb.Fatal(err)
	}
	const path = "experiments/clover/sweep/journal.csv"
	order := rand.New(rand.NewSource(7)).Perm(32)
	for round := 0; round < 2; round++ {
		for k := range order {
			if err := st.Put(path, benchJournalOf(order[:k+1])); err != nil {
				tb.Fatal(err)
			}
			name := st.puts.live[path].name
			raw, err := fs.ReadFile(name)
			if err != nil {
				tb.Fatal(err)
			}
			names, images = append(names, name), append(images, raw)
		}
		files[path] = benchJournalOf(order)
		if _, err := st.Sync(files); err != nil {
			tb.Fatal(err)
		}
	}
	if last := images[len(images)-1]; last[len(putMagic)] != putCommitted {
		tb.Fatalf("the re-run's last Put wrote a %q record, want a committed one", last[len(putMagic)])
	}
	for _, n := range []int{1, 32} {
		names = append(names, putRecordPath(3, n))
		images = append(images, encodePutRecordV1(3, n, path, benchJournalOf(order[:n])))
	}
	return names, images
}

func FuzzDecodePutRecord(f *testing.F) {
	names, images := fuzzPutRecords(f)
	// A full record, an appending and a middle-inserting link, the
	// committed record and two version-1 records, each under its own name
	// and under a neighbor's.
	picks := []int{0, 1, 2, 31, 63, 64, 65}
	for _, i := range picks {
		for _, raw := range withDamage("fuzz-put", images[i]) {
			f.Add(names[i], raw)
		}
		f.Add(names[(i+1)%len(names)], images[i])
	}
	// A free slot, an emptied record, and a Put into a slot cut short:
	// none of them is a record.
	f.Add(names[2], []byte(putFree))
	f.Add(names[2], []byte{})
	f.Add(names[2], images[2][:len(images[2])/2])
	f.Fuzz(func(t *testing.T, name string, raw []byte) {
		rec, err := decodePutRecord(name, raw)
		if err != nil {
			return
		}
		// An accepted record is exactly the encoding of what it decodes
		// to, under its own name, for a tracked path, and under any other
		// name it fails.
		gen, seq, ok := parsePutName(name)
		if !ok || rec.seq != seq || rec.name != name || !Tracked(rec.path) {
			t.Fatalf("accepted record %q decodes to %+v", name, rec)
		}
		again := rec
		enc := again.encode()
		if rec.v1 {
			enc = encodePutRecordV1(gen, seq, rec.path, rec.data)
		} else if again.sum != rec.sum {
			t.Fatal("accepted record's checksum does not re-encode")
		}
		if !bytes.Equal(enc, raw) {
			t.Fatal("accepted record is not the canonical encoding of its content")
		}
		if _, err := decodePutRecord(putRecordPath(gen, seq+1), raw); err == nil {
			t.Fatalf("record %s also decodes under %s", name, putRecordPath(gen, seq+1))
		}
	})
}
