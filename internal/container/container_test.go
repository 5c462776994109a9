package container

import (
	"strings"
	"testing"
	"testing/quick"
)

func newEngine() (*Engine, *Registry) {
	reg := NewRegistry()
	return NewEngine(reg), reg
}

func baseImage(t *testing.T, e *Engine) *Image {
	t.Helper()
	img, err := e.BuildAndPush(`
FROM scratch
COPY run.sh /exp/run.sh
ENV NODES 4
CMD echo ready
`, map[string][]byte{"run.sh": []byte("#!/bin/sh")}, "base", "v1")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestBuildFromScratch(t *testing.T) {
	e, _ := newEngine()
	img := baseImage(t, e)
	fs := img.RootFS()
	if string(fs["exp/run.sh"]) != "#!/bin/sh" {
		t.Fatalf("rootfs = %v", fs)
	}
	if img.Env["NODES"] != "4" {
		t.Fatalf("env = %v", img.Env)
	}
	if len(img.Cmd) != 2 || img.Cmd[0] != "echo" {
		t.Fatalf("cmd = %v", img.Cmd)
	}
	if img.ID() == "" || img.Ref() != "base:v1" {
		t.Fatal("identity broken")
	}
}

func TestBuildLayersPerInstruction(t *testing.T) {
	e, _ := newEngine()
	img, err := e.Build(`
FROM scratch
COPY a /a
COPY b /b
RUN touch /c
`, map[string][]byte{"a": []byte("A"), "b": []byte("B")}, "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(img.Layers))
	}
}

func TestBuildFromBase(t *testing.T) {
	e, _ := newEngine()
	baseImage(t, e)
	img, err := e.BuildAndPush(`
FROM base:v1
COPY extra /exp/extra
ENV NODES 8
`, map[string][]byte{"extra": []byte("x")}, "child", "v1")
	if err != nil {
		t.Fatal(err)
	}
	fs := img.RootFS()
	if _, ok := fs["exp/run.sh"]; !ok {
		t.Fatal("base layer lost")
	}
	if _, ok := fs["exp/extra"]; !ok {
		t.Fatal("child layer missing")
	}
	if img.Env["NODES"] != "8" {
		t.Fatalf("env override = %v", img.Env)
	}
}

func TestBuildDirectoryCopy(t *testing.T) {
	e, _ := newEngine()
	img, err := e.Build(`
FROM scratch
COPY src /app
`, map[string][]byte{"src/x.go": []byte("x"), "src/sub/y.go": []byte("y")}, "d", "1")
	if err != nil {
		t.Fatal(err)
	}
	fs := img.RootFS()
	if string(fs["app/x.go"]) != "x" || string(fs["app/sub/y.go"]) != "y" {
		t.Fatalf("rootfs = %v", keysOf(fs))
	}
}

func TestBuildErrors(t *testing.T) {
	e, _ := newEngine()
	cases := []string{
		"",                            // no FROM
		"COPY a b",                    // must start with FROM
		"FROM scratch\nFROM scratch",  // multiple FROM
		"FROM missing:img",            // unknown base
		"FROM scratch\nCOPY nope /x",  // not in context
		"FROM scratch\nRUN nosuchcmd", // unknown command
		"FROM scratch\nRUN false",     // failing command
		"FROM scratch\nBOGUS x",       // unknown instruction
		"FROM scratch\nCOPY a",        // wrong arity
		"FROM scratch\nENV A",         // wrong arity
	}
	for _, src := range cases {
		if _, err := e.Build(src, map[string][]byte{}, "x", "1"); err == nil {
			t.Errorf("Build(%q) should fail", src)
		}
	}
}

func TestParseBuildfileComments(t *testing.T) {
	bf, err := ParseBuildfile(`
# comment
FROM scratch

# another
CMD true
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Instructions) != 2 {
		t.Fatalf("instructions = %v", bf.Instructions)
	}
}

func TestRegistryPushPull(t *testing.T) {
	e, reg := newEngine()
	img := baseImage(t, e)
	// idempotent re-push
	if err := reg.Push(img); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Pull("base:v1")
	if err != nil || got.ID() != img.ID() {
		t.Fatalf("pull = %v, %v", got, err)
	}
	// pulled copy is isolated
	got.Env["NODES"] = "999"
	again, _ := reg.Pull("base:v1")
	if again.Env["NODES"] != "4" {
		t.Fatal("registry image mutated through pulled copy")
	}
	if _, err := reg.Pull("ghost"); err == nil {
		t.Fatal("unknown pull should fail")
	}
	// conflicting push rejected
	other := img.clone()
	other.Env["X"] = "y"
	if err := reg.Push(other); err == nil {
		t.Fatal("conflicting push must fail")
	}
	if err := reg.Push(&Image{}); err == nil {
		t.Fatal("unnamed image must fail")
	}
	if got := reg.List(); len(got) != 1 || got[0] != "base:v1" {
		t.Fatalf("list = %v", got)
	}
}

func TestPullDefaultsLatest(t *testing.T) {
	e, reg := newEngine()
	img, _ := e.Build("FROM scratch\nCMD true", nil, "tool", "latest")
	reg.Push(img)
	if _, err := reg.Pull("tool"); err != nil {
		t.Fatal(err)
	}
}

func TestRunContainer(t *testing.T) {
	e, _ := newEngine()
	baseImage(t, e)
	ctr, err := e.Run("base:v1") // default CMD echo ready
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Logs() != "ready\n" {
		t.Fatalf("logs = %q", ctr.Logs())
	}
	// explicit command
	ctr, err = e.Run("base:v1", "cat", "/exp/run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Logs() != "#!/bin/sh" {
		t.Fatalf("cat logs = %q", ctr.Logs())
	}
}

func TestRunErrors(t *testing.T) {
	e, _ := newEngine()
	baseImage(t, e)
	if _, err := e.Run("ghost:v0"); err == nil {
		t.Fatal("unknown image should fail")
	}
	if _, err := e.Run("base:v1", "unknown-binary"); err == nil {
		t.Fatal("unknown command should fail")
	}
	img, _ := e.Build("FROM scratch\nCOPY a /a", map[string][]byte{"a": nil}, "nocmd", "1")
	if _, err := e.RunImage(img); err == nil {
		t.Fatal("no command should fail")
	}
}

func TestImmutableInfrastructure(t *testing.T) {
	e, _ := newEngine()
	baseImage(t, e)
	// First container writes a file...
	ctr1, err := e.Run("base:v1", "touch", "/state/installed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctr1.ReadFile("/state/installed"); err != nil {
		t.Fatal("write should be visible inside the same container")
	}
	// ...but a fresh container from the same image does not see it.
	ctr2, _ := e.Run("base:v1", "true")
	if _, err := ctr2.ReadFile("/state/installed"); err == nil {
		t.Fatal("container changes must not persist across runs (immutable infrastructure)")
	}
}

func TestCommitPersistsChanges(t *testing.T) {
	e, reg := newEngine()
	baseImage(t, e)
	ctr, err := e.Run("base:v1", "touch", "/state/installed")
	if err != nil {
		t.Fatal(err)
	}
	newImg := ctr.Commit("base", "v2")
	if err := reg.Push(newImg); err != nil {
		t.Fatal(err)
	}
	ctr2, _ := e.Run("base:v2", "true")
	if _, err := ctr2.ReadFile("/state/installed"); err != nil {
		t.Fatal("committed change must persist in new image")
	}
}

func TestCommitCapturesDeletes(t *testing.T) {
	e, _ := newEngine()
	baseImage(t, e)
	ctr, err := e.Run("base:v1", "rm", "/exp/run.sh")
	if err != nil {
		t.Fatal(err)
	}
	img2 := ctr.Commit("base", "v3")
	if _, ok := img2.RootFS()["exp/run.sh"]; ok {
		t.Fatal("whiteout not applied")
	}
}

func TestFlattenEquivalence(t *testing.T) {
	e, _ := newEngine()
	img, err := e.Build(`
FROM scratch
COPY a /f
RUN rm /f
COPY b /g
COPY a /g
`, map[string][]byte{"a": []byte("AAAA"), "b": []byte("BBBBBBBB")}, "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	flat := img.Flatten()
	if len(flat.Layers) != 1 {
		t.Fatalf("flat layers = %d", len(flat.Layers))
	}
	a, b := img.RootFS(), flat.RootFS()
	if len(a) != len(b) {
		t.Fatalf("rootfs mismatch: %v vs %v", keysOf(a), keysOf(b))
	}
	for p, c := range a {
		if string(b[p]) != string(c) {
			t.Fatalf("file %s differs", p)
		}
	}
	if flat.Size() >= img.Size() {
		t.Fatalf("flat size %d should be < chained size %d (shadowed bytes dropped)",
			flat.Size(), img.Size())
	}
}

func TestCoreutils(t *testing.T) {
	e, reg := newEngine()
	img, _ := e.Build("FROM scratch\nCOPY f /f\nCMD true",
		map[string][]byte{"f": []byte("data")}, "c", "1")
	reg.Push(img)

	ctr, err := e.Run("c:1", "cp", "/f", "/f2")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ctr.ReadFile("/f2"); string(got) != "data" {
		t.Fatalf("cp result = %q", got)
	}
	if _, err := e.Run("c:1", "cp", "/only-one"); err == nil {
		t.Fatal("cp arity should fail")
	}
	if _, err := e.Run("c:1", "cp", "/nope", "/x"); err == nil {
		t.Fatal("cp missing source should fail")
	}
	if _, err := e.Run("c:1", "rm", "/nope"); err == nil {
		t.Fatal("rm missing should fail")
	}
	if _, err := e.Run("c:1", "cat", "/nope"); err == nil {
		t.Fatal("cat missing should fail")
	}
}

func TestWorkdirResolution(t *testing.T) {
	e, reg := newEngine()
	img, err := e.Build(`
FROM scratch
WORKDIR /exp
RUN touch data.csv
CMD true
`, nil, "w", "1")
	if err != nil {
		t.Fatal(err)
	}
	reg.Push(img)
	if _, ok := img.RootFS()["exp/data.csv"]; !ok {
		t.Fatalf("workdir-relative touch: %v", keysOf(img.RootFS()))
	}
}

func TestCustomCommand(t *testing.T) {
	e, reg := newEngine()
	e.RegisterCommand("experiment", func(c *ExecContext) error {
		c.FS["results.csv"] = []byte("nodes,time\n1,100\n")
		c.Printf("experiment done (NODES=%s)\n", c.Env["NODES"])
		return nil
	})
	img, _ := e.Build("FROM scratch\nENV NODES 4\nCMD experiment", nil, "exp", "1")
	reg.Push(img)
	ctr, err := e.Run("exp:1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ctr.Logs(), "NODES=4") {
		t.Fatalf("logs = %q", ctr.Logs())
	}
	if got, _ := ctr.ReadFile("results.csv"); !strings.HasPrefix(string(got), "nodes,time") {
		t.Fatalf("results = %q", got)
	}
}

func TestLayerID(t *testing.T) {
	l1 := NewLayer()
	l1.Files["a"] = []byte("x")
	l2 := NewLayer()
	l2.Files["a"] = []byte("x")
	if l1.ID() != l2.ID() {
		t.Fatal("identical layers must share IDs")
	}
	l2.Files["a"] = nil // whiteout differs from content
	if l1.ID() == l2.ID() {
		t.Fatal("whiteout must change layer ID")
	}
}

// Property: Flatten never changes the effective filesystem.
func TestQuickFlattenInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		img := &Image{Name: "q", Tag: "1", Env: map[string]string{}, Labels: map[string]string{}}
		// build a random layer stack: op encodes (path, add/delete)
		for _, op := range ops {
			l := NewLayer()
			path := string(rune('a' + op%8))
			if op%3 == 0 {
				l.Files[path] = nil
			} else {
				l.Files[path] = []byte{op}
			}
			img.Layers = append(img.Layers, l)
		}
		a, b := img.RootFS(), img.Flatten().RootFS()
		if len(a) != len(b) {
			return false
		}
		for p, c := range a {
			if string(b[p]) != string(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestCopyWholeContext(t *testing.T) {
	e, _ := newEngine()
	img, err := e.Build("FROM scratch\nCOPY . /app\nCMD true",
		map[string][]byte{"a": []byte("1"), "d/b": []byte("2")}, "ctx", "1")
	if err != nil {
		t.Fatal(err)
	}
	fs := img.RootFS()
	if string(fs["app/a"]) != "1" || string(fs["app/d/b"]) != "2" {
		t.Fatalf("rootfs = %v", keysOf(fs))
	}
}

func TestExportImport(t *testing.T) {
	e, _ := newEngine()
	img, err := e.Build(`
FROM scratch
COPY a /f
RUN rm /f
COPY a /g
ENV KEY value
LABEL who popper
WORKDIR /w
CMD echo hi
`, map[string][]byte{"a": []byte("payload")}, "exp", "v3")
	if err != nil {
		t.Fatal(err)
	}
	archive, err := img.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(archive)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != img.ID() {
		t.Fatalf("ids differ: %s vs %s", back.ID()[:8], img.ID()[:8])
	}
	if back.Env["KEY"] != "value" || back.Labels["who"] != "popper" || back.Workdir != "/w" {
		t.Fatalf("metadata lost: %+v", back)
	}
	// whiteouts survive
	fs := back.RootFS()
	if _, ok := fs["f"]; ok {
		t.Fatal("whiteout lost in export")
	}
	if string(fs["g"]) != "payload" {
		t.Fatalf("content lost: %v", keysOf(fs))
	}
}

func TestImportRejectsCorruption(t *testing.T) {
	e, _ := newEngine()
	img, _ := e.Build("FROM scratch\nCOPY a /f\nCMD true",
		map[string][]byte{"a": []byte("data")}, "x", "1")
	archive, _ := img.Export()
	if _, err := Import([]byte("not gzip")); err == nil {
		t.Fatal("garbage must fail")
	}
	// tamper inside: decompress, flip a byte of the payload, recompress
	// is complex; instead corrupt the gzip stream mid-way
	bad := append([]byte(nil), archive...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Import(bad); err == nil {
		t.Fatal("corrupted archive must fail")
	}
}
