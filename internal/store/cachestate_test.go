package store

import (
	"errors"
	"os"
	"testing"

	"popper/internal/cas"
)

// TestCacheStateSidecarRoundTrip: the sidecar survives syncs and gc,
// loads back verbatim, and fsck treats an intact one as healthy.
func TestCacheStateSidecarRoundTrip(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())

	image := cas.EncodeExtent([][]byte{[]byte("meta"), []byte("chunk")})
	if err := st.SaveCacheState(image); err != nil {
		t.Fatalf("save: %v", err)
	}
	if got := st.LoadCacheState(); string(got) != string(image) {
		t.Fatalf("load returned %d bytes, want %d", len(got), len(image))
	}
	// Another sync (and its gc) must not disturb the sidecar.
	mustSync(t, st, w2())
	if got := st.LoadCacheState(); string(got) != string(image) {
		t.Fatal("sync disturbed the sidecar")
	}
	mustCleanVerify(t, st, "with healthy sidecar")

	// Saving empty state removes the sidecar.
	if err := st.SaveCacheState(nil); err != nil {
		t.Fatalf("save empty: %v", err)
	}
	if st.LoadCacheState() != nil {
		t.Fatal("empty save must remove the sidecar")
	}
	if _, err := fs.ReadFile(CacheStatePath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sidecar file should be gone, err=%v", err)
	}
	mustCleanVerify(t, st, "after sidecar removal")
}

// TestCacheStateSidecarDamage: a damaged sidecar is debris — fsck
// flags it and repair removes it. Loading returns the bytes as stored:
// the pipeline, which parses them, decides the cold start
// (TestCacheStateDamaged).
func TestCacheStateSidecarDamage(t *testing.T) {
	fs := NewMemFS(1)
	st := New(fs)
	mustSync(t, st, w1())
	image := cas.EncodeExtent([][]byte{[]byte("meta")})
	if err := st.SaveCacheState(image); err != nil {
		t.Fatal(err)
	}
	// Tear the file the way a crash mid-write would.
	if err := fs.WriteFile(CacheStatePath, image[:len(image)/2]); err != nil {
		t.Fatal(err)
	}
	if got := st.LoadCacheState(); string(got) != string(image[:len(image)/2]) {
		t.Fatalf("damaged sidecar loaded as %d bytes, want the %d torn bytes as stored", len(got), len(image)/2)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if f := findingAt(rep, CacheStatePath); f == nil || f.State != StateDebris {
		t.Fatalf("damaged sidecar not flagged as debris:\n%s", rep.Format())
	}
	mustRepair(t, st, nil)
	if _, err := fs.ReadFile(CacheStatePath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("repair should remove the damaged sidecar, err=%v", err)
	}
	mustCleanVerify(t, st, "after repairing damaged sidecar")
}
