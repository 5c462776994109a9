package cas_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"popper/internal/cas"
	"popper/internal/store"
)

// The second-chance fallback: a tier miss consults an external
// content-addressed source (the artifact store's object pool in
// production) and admits verified bytes instead of reporting the miss.

func TestFallbackRestoresUnadmittedObject(t *testing.T) {
	tier := cas.NewTier()
	content := []byte("provable content the tier never admitted")
	ref := cas.Sum(content)
	source := map[[sha256.Size]byte][]byte{ref.Hash: content}
	tier.SetFallback(func(h [sha256.Size]byte) ([]byte, bool) {
		data, ok := source[h]
		return data, ok
	})
	if tier.Contains(ref) {
		t.Fatal("object resident before any admission")
	}
	got, ok := tier.View(ref)
	if !ok || !bytes.Equal(got, content) {
		t.Fatalf("View of unadmitted content = %q, %v; want fallback restore", got, ok)
	}
	if !tier.Contains(ref) {
		t.Fatal("fallback hit must admit the object")
	}
	if st := tier.Stats(); st.FallbackHits != 1 || st.Misses != 1 {
		t.Fatalf("FallbackHits = %d, Misses = %d; want 1 and 1", st.FallbackHits, st.Misses)
	}
	// The admitted copy now serves hits without the source.
	tier.SetFallback(nil)
	if got, ok := tier.View(ref); !ok || !bytes.Equal(got, content) {
		t.Fatal("admitted object missing once the source is removed")
	}
}

func TestFallbackRejectsCorruptSource(t *testing.T) {
	tier := cas.NewTier()
	ref := cas.Sum([]byte("the real content"))
	// A source that serves wrong bytes for the address must not be
	// believed — hash verification guards admission.
	tier.SetFallback(func(h [sha256.Size]byte) ([]byte, bool) {
		return []byte("corrupted content!!"), true
	})
	if _, ok := tier.View(ref); ok {
		t.Fatal("corrupt fallback bytes must not satisfy a View")
	}
	if tier.Contains(ref) {
		t.Fatal("corrupt bytes must not be admitted")
	}
	if st := tier.Stats(); st.FallbackHits != 0 {
		t.Fatalf("FallbackHits = %d, want 0", st.FallbackHits)
	}
}

// TestStoreObjectPoolBacksTheTier folds the artifact store's objects
// into the tier lookup: content synced to the repository — packed into
// an extent (small) or loose under .popper/objects (large) — is
// restored on a tier miss through store.Object.
func TestStoreObjectPoolBacksTheTier(t *testing.T) {
	st := store.New(store.NewMemFS(1))
	small := []byte("small enough to be packed into a generation extent")
	large := bytes.Repeat([]byte("loose-object "), 1024) // > smallObjectMax
	if _, err := st.Sync(map[string][]byte{
		"exp/small.csv": small,
		"exp/large.bin": large,
	}); err != nil {
		t.Fatal(err)
	}
	tier := cas.NewTier()
	tier.SetFallback(st.Object)
	for _, tc := range []struct {
		name    string
		content []byte
	}{{"packed", small}, {"loose", large}} {
		ref := cas.Sum(tc.content)
		if tier.Contains(ref) {
			t.Fatalf("%s: object resident before any admission", tc.name)
		}
		got, ok := tier.View(ref)
		if !ok || !bytes.Equal(got, tc.content) {
			t.Fatalf("%s: store-backed View failed (ok=%v)", tc.name, ok)
		}
	}
	if st := tier.Stats(); st.FallbackHits != 2 {
		t.Fatalf("FallbackHits = %d, want 2", st.FallbackHits)
	}
	// Content the store does not hold stays a miss.
	if _, ok := tier.View(cas.Sum([]byte("never synced"))); ok {
		t.Fatal("unknown content must still miss")
	}
}

// TestConcurrentFallbackAdmission races many goroutines through the
// miss path for the same address: exactly one copy is admitted, every
// caller sees the right bytes (run under -race).
func TestConcurrentFallbackAdmission(t *testing.T) {
	tier := cas.NewTier()
	content := []byte("one admission, many readers")
	ref := cas.Sum(content)
	source := map[[sha256.Size]byte][]byte{ref.Hash: content}
	tier.SetFallback(func(h [sha256.Size]byte) ([]byte, bool) {
		data, ok := source[h]
		return data, ok
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ok := tier.View(ref)
			if !ok || !bytes.Equal(got, content) {
				errs <- fmt.Errorf("concurrent View failed (ok=%v)", ok)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tier.Len() != 1 {
		t.Fatalf("resident objects = %d, want exactly 1", tier.Len())
	}
}
