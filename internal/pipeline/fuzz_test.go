package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"popper/internal/cas"
)

// sweepStateImage saves the stage cache a sweep of configs
// configurations leaves, shaped like a `popper run` sidecar: per
// configuration, logOnly stages that only log (the same line in every
// configuration) and one stage that writes files, each file's content
// set by content(config, file) with an empty log.
func sweepStateImage(configs, logOnly int, files []string, content func(config, file int) []byte) []byte {
	c := NewCache()
	for i := 0; i < configs; i++ {
		for s := 0; s < logOnly; s++ {
			key := sha256.Sum256([]byte(fmt.Sprintf("config %d stage %d", i, s)))
			c.store(key, cacheEntry{log: fmt.Sprintf("stage %d: ok\n", s)}, -1)
		}
		set := make(map[string][]byte, len(files))
		for f, path := range files {
			set[path] = content(i, f)
		}
		c.store(sha256.Sum256([]byte(fmt.Sprintf("config %d outputs", i))), cacheEntry{set: set}, -1)
	}
	return c.SaveState()
}

// warmRerunImage is shaped like e2ebench's warm-rerun sidecar: a
// 32-configuration cloverleaf sweep, 96 entries, two of every three
// only logging and the third writing a shared figure.svg and a figure
// and results of its own.
func warmRerunImage() []byte {
	return sweepStateImage(32, 2, []string{
		"experiments/clover/figure.svg", "experiments/clover/figure.txt", "experiments/clover/results.csv",
	}, func(config, file int) []byte {
		if file == 0 {
			return bytes.Repeat([]byte("<svg/>"), 116)
		}
		return bytes.Repeat([]byte(fmt.Sprintf("%d,%d\n", config, file)), 300/(file*file))
	})
}

// replicatedScrubImage is shaped like replicated-scrub's: an
// 8-configuration torpor sweep whose file-writing stages each write
// several kilobytes of their own.
func replicatedScrubImage() []byte {
	return sweepStateImage(8, 2, []string{
		"experiments/tp/results.csv", "experiments/tp/figure.txt",
	}, func(config, file int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("stressor-%d,%d,%d\n", file, config, 1000+config)), 300)
	})
}

// spacedPathImage saves one entry that sets and deletes paths holding
// spaces, which strconv.Quote leaves as they are.
func spacedPathImage() []byte {
	c := NewCache()
	c.store(sha256.Sum256([]byte("spaced paths")), cacheEntry{
		set: map[string][]byte{"out/my results.csv": []byte("x,y\n1,2\n"), "plain.txt": []byte("p")},
		del: []string{"a  b.txt", "old draft.txt"},
		log: "wrote results\n",
	}, -1)
	return c.SaveState()
}

// extentPayloads reads raw's record payloads by their size headers
// alone, without checking digests, up to the first header that does
// not fit.
func extentPayloads(raw []byte) [][]byte {
	const magic = "popper-extent v1\n"
	if !bytes.HasPrefix(raw, []byte(magic)) {
		return nil
	}
	var blobs [][]byte
	for pos := len(magic); len(raw)-pos >= 8+sha256.Size; {
		start := pos + 8 + sha256.Size
		size := binary.BigEndian.Uint64(raw[pos:])
		if size > uint64(len(raw)-start) {
			break
		}
		blobs = append(blobs, raw[start:start+int(size)])
		pos = start + int(size)
	}
	return blobs
}

// withMeta returns img with its metadata record rewritten by edit and
// the image resealed, so the damage reaches the metadata scanner.
func withMeta(img []byte, edit func(meta []byte) []byte) []byte {
	blobs := extentPayloads(img)
	blobs[0] = edit(bytes.Clone(blobs[0]))
	return cas.EncodeExtent(blobs)
}

// withForgedChunk returns img with the payload of record i, a chunk,
// altered but still named by its old hash, and the image resealed: the
// extent's checksum holds, the chunk's own hash does not.
func withForgedChunk(img []byte, i int) []byte {
	recs, err := cas.ParseExtent(img)
	if err != nil {
		panic(err)
	}
	blobs := make([][]byte, len(recs))
	hashes := make([][sha256.Size]byte, len(recs))
	for j, r := range recs {
		blobs[j], hashes[j] = img[r.Offset:r.Offset+r.Size], r.Hash
	}
	blobs[i] = bytes.Clone(blobs[i])
	blobs[i][len(blobs[i])-1] ^= 0x20
	forged, _ := cas.EncodeHashedExtent(blobs, hashes)
	return forged
}

// fuzzStateImages is FuzzRestoreState's seed corpus: a warm-rerun- and
// a replicated-scrub-shaped image, each whole, torn, with a flipped hex
// digit in a ref, missing a chunk, with a log count that promises a
// ref the entry does not have, and with a forged chunk.
func fuzzStateImages() [][]byte {
	var out [][]byte
	for _, img := range [][]byte{warmRerunImage(), replicatedScrubImage()} {
		blobs := extentPayloads(img)
		out = append(out, img, img[:len(img)*2/3],
			withMeta(img, func(meta []byte) []byte {
				i := bytes.Index(meta, []byte("\nref ")) + len("\nref ")
				meta[i] ^= 1 // '0'↔'1', 'a'↔'`', ...: a different or an invalid digit
				return meta
			}),
			cas.EncodeExtent(append(slices.Clone(blobs[:1]), blobs[2:]...)),
			withMeta(img, func(meta []byte) []byte {
				return bytes.Replace(meta, []byte("\nlog 1\n"), []byte("\nlog 2\n"), 1)
			}),
			withForgedChunk(img, 1))
	}
	return out
}

// hugeRefCount reports whether any ref count in raw's metadata exceeds
// the metadata's own size. The oracle sizes a ref slice from the count
// before reading a line, so it would try to allocate one that big; no
// such image can be valid, and the scanner must refuse it.
func hugeRefCount(raw []byte) bool {
	blobs := extentPayloads(raw)
	if len(blobs) == 0 {
		return false
	}
	for _, line := range bytes.Split(blobs[0], []byte("\n")) {
		f := bytes.Fields(line)
		var count []byte
		switch {
		case len(f) == 4 && string(f[0]) == "set":
			count = f[3]
		case len(f) == 2 && string(f[0]) == "log":
			count = f[1]
		default:
			continue
		}
		if n, err := strconv.Atoi(string(count)); err == nil && n > len(blobs[0]) {
			return true
		}
	}
	return false
}

// spacedPath reports whether raw's metadata holds a set or del line
// whose first double-quoted string is a valid one holding white space:
// the old parser splits such a path and refuses the line, while
// RestoreState reads the quoted field whole.
func spacedPath(raw []byte) bool {
	blobs := extentPayloads(raw)
	if len(blobs) == 0 {
		return false
	}
	for _, line := range bytes.Split(blobs[0], []byte("\n")) {
		f := bytes.Fields(line)
		i := bytes.IndexByte(line, '"')
		if len(f) == 0 || string(f[0]) != "set" && string(f[0]) != "del" || i < 0 {
			continue
		}
		if q, err := strconv.QuotedPrefix(string(line[i:])); err == nil && len(bytes.Fields([]byte(q))) > 1 {
			return true
		}
	}
	return false
}

// entriesOf returns c's entries by key.
func entriesOf(c *Cache) map[[sha256.Size]byte]*stageEntry {
	all := make(map[[sha256.Size]byte]*stageEntry)
	for i := range c.shards {
		for key, ent := range c.shards[i].entries {
			all[key] = ent
		}
	}
	return all
}

// sameEntry reports whether two restored entries hold the same paths,
// sizes, refs, deletions and log, nil and empty lists alike.
func sameEntry(a, b *stageEntry) bool {
	if a.logLen != b.logLen || len(a.set) != len(b.set) || !slices.Equal(a.del, b.del) || !slices.Equal(a.logRefs, b.logRefs) {
		return false
	}
	for i := range a.set {
		x, y := a.set[i], b.set[i]
		if x.path != y.path || x.size != y.size || !slices.Equal(x.refs, y.refs) {
			return false
		}
	}
	return true
}

// checkRestoreAgainstOracle restores img into two empty caches, one by
// RestoreState and one by the oracle, and requires the same count, the
// same refusal message, the same entries and the same admitted chunks.
func checkRestoreAgainstOracle(t *testing.T, img []byte) {
	t.Helper()
	got := NewCache()
	n, err := got.RestoreState(img)
	if _, perr := cas.ParseExtent(img); perr != nil {
		// The oracle parses the image with the same ParseExtent.
		if err == nil || err.Error() != perr.Error() {
			t.Fatalf("RestoreState: %d, %v; ParseExtent refuses the image: %v", n, err, perr)
		}
		return
	}
	if hugeRefCount(img) {
		if err == nil {
			t.Fatalf("restored %d entries from an image whose ref count exceeds its size", n)
		}
		return
	}
	want := NewCache()
	wn, werr := restoreStateOracle(want, img)
	if spacedPath(img) {
		// The one decision the scanner does not share with the oracle:
		// a quoted path holding spaces, which the oracle cannot read.
		// Where the scanner restores such an image, saving what it
		// restored must give an image that restores the same entries.
		if werr == nil {
			t.Fatalf("the oracle restored %d entries from an image with a spaced path", wn)
		}
		if err != nil {
			return
		}
		again := NewCache()
		if an, aerr := again.RestoreState(got.SaveState()); aerr != nil || an != got.Len() {
			t.Fatalf("re-saved image restores %d entries (%v), want %d", an, aerr, got.Len())
		}
		saved := entriesOf(got)
		for key, ent := range entriesOf(again) {
			if !sameEntry(ent, saved[key]) {
				t.Fatalf("entry %x does not survive a save and restore", key[:4])
			}
		}
		return
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("RestoreState: %d, %v; the oracle: %d, %v", n, err, wn, werr)
	}
	if n != wn || got.Len() != want.Len() {
		t.Fatalf("restored %d entries (%d held), the oracle %d (%d)", n, got.Len(), wn, want.Len())
	}
	gotEntries := entriesOf(got)
	for key, we := range entriesOf(want) {
		if ge, ok := gotEntries[key]; !ok || !sameEntry(ge, we) {
			t.Fatalf("entry %x restores as %+v, the oracle's as %+v", key[:4], ge, we)
		}
	}
	if gs, ws := got.tier.Stats(), want.tier.Stats(); gs != ws {
		t.Fatalf("tier after restore %+v, the oracle's %+v", gs, ws)
	}
}

// FuzzRestoreState checks the sidecar's metadata scanner against the
// oracle, on each input as it is and resealed: its record payloads
// re-encoded as a fresh extent, so that damage inside the metadata
// passes the image checksum and reaches the scanner.
func FuzzRestoreState(f *testing.F) {
	for _, img := range fuzzStateImages() {
		f.Add(img)
	}
	f.Add(spacedPathImage())
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkRestoreAgainstOracle(t, raw)
		if blobs := extentPayloads(raw); len(blobs) > 0 {
			checkRestoreAgainstOracle(t, cas.EncodeExtent(blobs))
		}
	})
}

// TestRestoreStateShapedImages pins the seed images' shapes: each
// restores whole, and each damaged variant but the torn one passes the
// extent parser and is refused by RestoreState's own checks.
func TestRestoreStateShapedImages(t *testing.T) {
	for _, tc := range []struct {
		img     []byte
		entries int
	}{{warmRerunImage(), 96}, {replicatedScrubImage(), 24}} {
		if n, err := NewCache().RestoreState(tc.img); err != nil || n != tc.entries {
			t.Fatalf("shaped image restores %d entries (%v), want %d", n, err, tc.entries)
		}
	}
	for i, img := range fuzzStateImages() {
		n, err := NewCache().RestoreState(img)
		switch i % 6 {
		case 0:
			if err != nil {
				t.Errorf("seed %d: %v", i, err)
			}
		case 1:
			if err == nil {
				t.Errorf("seed %d (torn) restored %d entries", i, n)
			}
		default:
			if err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte("pipeline: cache state")) {
				t.Errorf("seed %d: %v, want RestoreState's own refusal", i, err)
			}
		}
	}
}
