package dataset

import (
	"strings"
	"testing"
	"testing/quick"
)

func publishSample(t *testing.T, s *Store) Ref {
	t.Helper()
	ref, err := s.Publish("air-temperature", "1.0.0", "NCEP/NCAR Reanalysis 1", "bigweatherweb.org",
		map[string][]byte{
			"air.csv":   []byte("time,lat,lon,temp\n0,0,0,288\n"),
			"README.md": []byte("reanalysis subset"),
			"grid.json": []byte(`{"res": 2.5}`),
		})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestPublishAndFetch(t *testing.T) {
	s := NewStore()
	ref := publishSample(t, s)
	if ref.ManifestHash == "" {
		t.Fatal("ref should carry manifest hash")
	}
	m, files, err := s.Fetch(ref)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "air-temperature" || len(m.Resources) != 3 {
		t.Fatalf("manifest = %+v", m)
	}
	if string(files["grid.json"]) != `{"res": 2.5}` {
		t.Fatalf("files = %v", files)
	}
}

func TestPublishValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Publish("", "1", "", "", map[string][]byte{"a": nil}); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := s.Publish("x", "latest", "", "", map[string][]byte{"a": nil}); err == nil {
		t.Fatal("version 'latest' is reserved")
	}
	if _, err := s.Publish("x", "1", "", "", nil); err == nil {
		t.Fatal("empty package should fail")
	}
}

func TestVersionImmutability(t *testing.T) {
	s := NewStore()
	publishSample(t, s)
	_, err := s.Publish("air-temperature", "1.0.0", "", "", map[string][]byte{"other": []byte("x")})
	if err == nil {
		t.Fatal("republishing a version must fail")
	}
}

func TestLatestResolution(t *testing.T) {
	s := NewStore()
	publishSample(t, s)
	s.Publish("air-temperature", "2.0.0", "", "", map[string][]byte{"air.csv": []byte("new")})
	pinned, m, err := s.Resolve(Ref{Name: "air-temperature", Version: "latest"})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != "2.0.0" || m.Version != "2.0.0" {
		t.Fatalf("latest = %+v", pinned)
	}
}

func TestPinnedHashMismatch(t *testing.T) {
	s := NewStore()
	ref := publishSample(t, s)
	bad := ref
	bad.ManifestHash = strings.Repeat("ab", 32)
	if _, _, err := s.Resolve(bad); err == nil {
		t.Fatal("manifest hash mismatch must fail")
	}
}

func TestUnknownPackage(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Resolve(Ref{Name: "nope", Version: "latest"}); err == nil {
		t.Fatal("unknown package should fail")
	}
	if _, _, err := s.Fetch(Ref{Name: "nope", Version: "1"}); err == nil {
		t.Fatal("unknown fetch should fail")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := NewStore()
	ref := publishSample(t, s)
	_, m, _ := s.Resolve(ref)
	if err := s.Corrupt(m.Resources[0].SHA256); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Fetch(ref); err == nil {
		t.Fatal("fetch of corrupted blob must fail")
	}
	if err := s.Corrupt("nope"); err == nil {
		t.Fatal("corrupting unknown blob should error")
	}
}

func TestRefRoundTrip(t *testing.T) {
	ref := Ref{Name: "air", Version: "1.0", ManifestHash: "abc"}
	back, err := DecodeRef(EncodeRef(ref))
	if err != nil || back != ref {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
	if _, err := DecodeRef([]byte("not json")); err == nil {
		t.Fatal("bad json should fail")
	}
	if _, err := DecodeRef([]byte("{}")); err == nil {
		t.Fatal("missing fields should fail")
	}
}

func TestParseRef(t *testing.T) {
	r, err := ParseRef("air-temperature@1.0.0")
	if err != nil || r.Name != "air-temperature" || r.Version != "1.0.0" {
		t.Fatalf("parse = %+v, %v", r, err)
	}
	r, err = ParseRef("air-temperature")
	if err != nil || r.Version != "latest" {
		t.Fatalf("default version = %+v", r)
	}
	for _, bad := range []string{"", "@1.0", "name@"} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) should fail", bad)
		}
	}
	if got := r.String(); got != "air-temperature@latest" {
		t.Fatalf("String = %q", got)
	}
}

func TestManagerInstallAndVerify(t *testing.T) {
	s := NewStore()
	publishSample(t, s)
	m := NewManager(s)
	ws := map[string][]byte{}
	pinned, err := m.Install(Ref{Name: "air-temperature", Version: "latest"}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != "1.0.0" {
		t.Fatalf("pinned = %+v", pinned)
	}
	if _, ok := ws["datasets/air-temperature/air.csv"]; !ok {
		t.Fatalf("workspace = %v", keys(ws))
	}
	if _, ok := ws["datasets/air-temperature/datapackage.json"]; !ok {
		t.Fatal("manifest not materialized")
	}
	if err := m.Verify("air-temperature", ws); err != nil {
		t.Fatal(err)
	}
}

func TestManagerVerifyFailures(t *testing.T) {
	s := NewStore()
	publishSample(t, s)
	m := NewManager(s)
	ws := map[string][]byte{}
	if _, err := m.Install(Ref{Name: "air-temperature", Version: "1.0.0"}, ws); err != nil {
		t.Fatal(err)
	}
	// tamper with a resource
	ws["datasets/air-temperature/air.csv"] = []byte("tampered but same lengt")
	if err := m.Verify("air-temperature", ws); err == nil {
		t.Fatal("verify must detect size change")
	}
	// same size, different bytes
	orig := []byte("time,lat,lon,temp\n0,0,0,288\n")
	tam := append([]byte(nil), orig...)
	tam[0] = 'X'
	ws["datasets/air-temperature/air.csv"] = tam
	if err := m.Verify("air-temperature", ws); err == nil {
		t.Fatal("verify must detect content change")
	}
	// delete a resource
	delete(ws, "datasets/air-temperature/air.csv")
	if err := m.Verify("air-temperature", ws); err == nil {
		t.Fatal("verify must detect missing resource")
	}
	if err := m.Verify("not-installed", ws); err == nil {
		t.Fatal("verify of uninstalled package must fail")
	}
	ws["datasets/bad/datapackage.json"] = []byte("not json")
	if err := m.Verify("bad", ws); err == nil {
		t.Fatal("corrupt manifest must fail")
	}
}

func TestManagerInstallUnknown(t *testing.T) {
	m := NewManager(NewStore())
	if _, err := m.Install(Ref{Name: "ghost", Version: "1.0"}, map[string][]byte{}); err == nil {
		t.Fatal("unknown install should fail")
	}
}

func TestListSorted(t *testing.T) {
	s := NewStore()
	s.Publish("zeta", "1", "", "", map[string][]byte{"a": {1}})
	s.Publish("alpha", "1", "", "", map[string][]byte{"a": {1}})
	got := s.List()
	if len(got) != 2 || got[0] != "alpha@1" || got[1] != "zeta@1" {
		t.Fatalf("list = %v", got)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Property: publish → fetch returns exactly the published bytes.
func TestQuickPublishFetchIdentity(t *testing.T) {
	counter := 0
	f := func(contents [][]byte) bool {
		counter++
		if len(contents) == 0 {
			return true
		}
		files := make(map[string][]byte, len(contents))
		for i, c := range contents {
			files[pathName(i)] = c
		}
		s := NewStore()
		ref, err := s.Publish("pkg", versionName(counter), "", "", files)
		if err != nil {
			return false
		}
		_, got, err := s.Fetch(ref)
		if err != nil || len(got) != len(files) {
			return false
		}
		for p, want := range files {
			if string(got[p]) != string(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption of any resource is detected by
// Verify after install.
func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	f := func(data []byte, flip uint8) bool {
		if len(data) == 0 {
			return true
		}
		s := NewStore()
		_, err := s.Publish("p", "1", "", "", map[string][]byte{"f": data})
		if err != nil {
			return false
		}
		m := NewManager(s)
		ws := map[string][]byte{}
		if _, err := m.Install(Ref{Name: "p", Version: "1"}, ws); err != nil {
			return false
		}
		buf := ws["datasets/p/f"]
		i := int(flip) % len(buf)
		buf[i] ^= 0x01
		return m.Verify("p", ws) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pathName(i int) string    { return "dir/file" + string(rune('a'+i%26)) + itoa(i) }
func versionName(i int) string { return "v" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
