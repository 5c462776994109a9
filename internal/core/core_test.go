package core

import (
	"strings"
	"testing"

	"popper/internal/container"
	"popper/internal/dataset"
	"popper/internal/weather"
)

func TestInitLayout(t *testing.T) {
	p := Init()
	for _, path := range []string{ConfigFile, "README.md", CIFile, "paper/build.sh", "paper/paper.tex"} {
		if _, ok := p.Files[path]; !ok {
			t.Errorf("init missing %s", path)
		}
	}
	if !Initialized(p.Files) {
		t.Fatal("Initialized should be true")
	}
	if len(p.Experiments()) != 0 {
		t.Fatalf("fresh repo has experiments: %v", p.Experiments())
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(nil); err == nil {
		t.Fatal("nil workspace must fail")
	}
	if _, err := Load(map[string][]byte{"README.md": nil}); err == nil {
		t.Fatal("uninitialized workspace must fail")
	}
	p := Init()
	if _, err := Load(p.Files); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateRegistryMatchesPaper(t *testing.T) {
	// Listing lst:poppercli names exactly these nine templates.
	paperList := []string{
		"ceph-rados", "proteustm", "mpi-comm-variability",
		"cloverleaf", "gassyfs", "zlog",
		"spark-standalone", "torpor", "malacology",
	}
	have := map[string]bool{}
	for _, n := range Templates() {
		have[n] = true
	}
	for _, want := range paperList {
		if !have[want] {
			t.Errorf("template %q from the paper's listing is missing", want)
		}
	}
	if !have["jupyter-bww"] {
		t.Error("jupyter-bww (Listing lst:bootstrap) is missing")
	}
	if _, err := TemplateByName("gassyfs"); err != nil {
		t.Fatal(err)
	}
	if _, err := TemplateByName("nope"); err == nil {
		t.Fatal("unknown template must fail")
	}
	listing := FormatTemplateList()
	if !strings.Contains(listing, "available templates") || !strings.Contains(listing, "gassyfs") {
		t.Fatalf("listing:\n%s", listing)
	}
}

func TestAddExperiment(t *testing.T) {
	p := Init()
	if err := p.AddExperiment("torpor", "myexp"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"run.sh", "setup.yml", "vars.yml", "validations.aver", "README.md"} {
		if _, ok := p.ExperimentFile("myexp", rel); !ok {
			t.Errorf("myexp missing %s", rel)
		}
	}
	if got := p.Experiments(); len(got) != 1 || got[0] != "myexp" {
		t.Fatalf("experiments = %v", got)
	}
	// errors
	if err := p.AddExperiment("torpor", "myexp"); err == nil {
		t.Fatal("duplicate must fail")
	}
	if err := p.AddExperiment("ghost", "x"); err == nil {
		t.Fatal("unknown template must fail")
	}
	for _, bad := range []string{"", "a/b", "a b"} {
		if err := p.AddExperiment("torpor", bad); err == nil {
			t.Errorf("name %q must fail", bad)
		}
	}
}

func TestParamsFlattening(t *testing.T) {
	p := Init()
	p.Files[expPath("e", "vars.yml")] = []byte(`
template: gassyfs
nodes: [1, 2, 4]
nested:
  key: value
flag: true
count: 7
`)
	params, err := p.Params("e")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"template": "gassyfs", "nodes": "1,2,4",
		"nested.key": "value", "flag": "true", "count": "7",
	}
	for k, v := range want {
		if params[k] != v {
			t.Errorf("param %s = %q, want %q", k, params[k], v)
		}
	}
	if _, err := p.Params("ghost"); err == nil {
		t.Fatal("missing vars.yml must fail")
	}
}

func TestSetParam(t *testing.T) {
	p := Init()
	p.AddExperiment("gassyfs", "e")
	if err := p.SetParam("e", "nodes", "1,2"); err != nil {
		t.Fatal(err)
	}
	params, _ := p.Params("e")
	if params["nodes"] != "1,2" {
		t.Fatalf("nodes = %q", params["nodes"])
	}
	// A value whose plain rendering would lose its trailing space.
	if err := p.SetParam("e", "note", ":0 "); err != nil {
		t.Fatal(err)
	}
	if params, _ := p.Params("e"); params["note"] != ":0 " {
		t.Fatalf("note = %q, want %q", params["note"], ":0 ")
	}
	if err := p.SetParam("ghost", "k", "v"); err == nil {
		t.Fatal("missing experiment must fail")
	}
}

func TestComplianceCheck(t *testing.T) {
	p := Init()
	p.AddExperiment("gassyfs", "scaling")
	rep := p.Check()
	if !rep.Compliant() {
		t.Fatalf("fresh template should be compliant:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "Popperized") {
		t.Fatalf("report:\n%s", rep.String())
	}
	// break it: remove the validation criteria
	delete(p.Files, expPath("scaling", "validations.aver"))
	rep = p.Check()
	if rep.Compliant() {
		t.Fatal("missing validations must break compliance")
	}
	found := false
	for _, e := range rep.Experiments {
		for _, m := range e.Missing() {
			if m == "validation criteria" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("missing element not reported:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "NOT compliant") {
		t.Fatalf("report:\n%s", rep.String())
	}
	// break repo-level items
	p2 := Init()
	delete(p2.Files, CIFile)
	if p2.Check().Compliant() {
		t.Fatal("missing CI config must break compliance")
	}
}

func TestPopperize(t *testing.T) {
	p := Init()
	adhoc := map[string][]byte{
		"measure.sh":    []byte("#!/bin/sh\nmpirun lulesh"),
		"analysis.xlsx": []byte("binary spreadsheet"),
		"run.sh":        []byte("#!/bin/sh\nexisting driver"),
	}
	created, err := p.Popperize("lulesh-study", adhoc)
	if err != nil {
		t.Fatal(err)
	}
	// run.sh existed; setup.yml, vars.yml, validations.aver, datasets/.gitkeep created
	if created != 4 {
		t.Fatalf("created = %d, want 4", created)
	}
	if b, ok := p.ExperimentFile("lulesh-study", "run.sh"); !ok || !strings.Contains(string(b), "existing driver") {
		t.Fatal("existing files must be preserved")
	}
	rep := p.Check()
	if !rep.Compliant() {
		t.Fatalf("popperized experiment should be compliant:\n%s", rep.String())
	}
	if _, err := p.Popperize("lulesh-study", nil); err == nil {
		t.Fatal("duplicate must fail")
	}
	if _, err := p.Popperize("bad name", nil); err == nil {
		t.Fatal("bad name must fail")
	}
}

func TestBuildPaper(t *testing.T) {
	p := Init()
	if err := p.BuildPaper(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Files["paper/paper.pdf"]; !ok {
		t.Fatal("pdf artifact missing")
	}
	// figures get referenced
	p.Files[expPath("e", "figure.svg")] = []byte("<svg/>")
	p.BuildPaper()
	if !strings.Contains(string(p.Files["paper/paper.pdf"]), "experiments/e/figure.svg") {
		t.Fatal("figure not embedded in paper manifest")
	}
	// errors
	p.Files["paper/paper.tex"] = []byte("not latex")
	if err := p.BuildPaper(); err == nil {
		t.Fatal("non-latex must fail")
	}
	p.Files["paper/paper.tex"] = []byte("\\documentclass{x}\n\\begin{document}")
	if err := p.BuildPaper(); err == nil {
		t.Fatal("unbalanced document must fail")
	}
	delete(p.Files, "paper/paper.tex")
	if err := p.BuildPaper(); err == nil {
		t.Fatal("missing source must fail")
	}
}

func TestDatasetRefs(t *testing.T) {
	p := Init()
	p.AddExperiment("jupyter-bww", "airtemp")
	ref := dataset.Ref{Name: "air-temperature", Version: "1.0", ManifestHash: "abc"}
	p.AddDatasetRef("airtemp", ref)
	refs, err := p.DatasetRefs("airtemp")
	if err != nil || len(refs) != 1 || refs[0] != ref {
		t.Fatalf("refs = %v, %v", refs, err)
	}
	// corrupt ref fails
	p.Files[expPath("airtemp", "datasets/bad.ref")] = []byte("junk")
	if _, err := p.DatasetRefs("airtemp"); err == nil {
		t.Fatal("corrupt ref must fail")
	}
}

// publishAirTemp puts a small weather dataset in a store.
func publishAirTemp(t *testing.T) (*dataset.Store, dataset.Ref) {
	t.Helper()
	arr, err := weather.Generate(weather.ReanalysisSpec{
		Days: 360, LatStep: 30, LonStep: 90, NoiseK: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := weather.EncodeCSV(arr)
	if err != nil {
		t.Fatal(err)
	}
	store := dataset.NewStore()
	ref, err := store.Publish("air-temperature", "1.0.0", "NCEP/NCAR-style reanalysis", "bigweatherweb.org",
		map[string][]byte{"air.csv": csv})
	if err != nil {
		t.Fatal(err)
	}
	return store, ref
}

func TestRunBWWWithInstalledDataset(t *testing.T) {
	store, ref := publishAirTemp(t)
	p := Init()
	p.AddExperiment("jupyter-bww", "airtemp")
	p.AddDatasetRef("airtemp", ref)

	res, err := p.RunExperiment("airtemp", &Env{Seed: 1, Store: store})
	if err != nil {
		t.Fatalf("%v\nlog:\n%s", err, res.Record.Log)
	}
	if !res.Passed() {
		t.Fatalf("run did not pass:\n%s", res.Record.Log)
	}
	if !strings.Contains(res.Record.Log, "installed dataset air-temperature@1.0.0") {
		t.Fatalf("dataset not installed:\n%s", res.Record.Log)
	}
	if _, ok := p.ExperimentFile("airtemp", "results.csv"); !ok {
		t.Fatal("results.csv missing")
	}
	if _, ok := p.ExperimentFile("airtemp", "figure.txt"); !ok {
		t.Fatal("figure.txt missing")
	}
	if _, ok := p.ExperimentFile("airtemp", "figure.svg"); !ok {
		t.Fatal("figure.svg missing")
	}
}

func TestRunWithDatasetRefButNoStore(t *testing.T) {
	_, ref := publishAirTemp(t)
	p := Init()
	p.AddExperiment("jupyter-bww", "airtemp")
	p.AddDatasetRef("airtemp", ref)
	if _, err := p.RunExperiment("airtemp", &Env{Seed: 1}); err == nil {
		t.Fatal("dataset ref without store must fail")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	p := Init()
	if _, err := p.RunExperiment("ghost", nil); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	// experiment without template record
	p.Files[expPath("e", "vars.yml")] = []byte("nodes: 2\n")
	if _, err := p.RunExperiment("e", nil); err == nil {
		t.Fatal("missing template must fail")
	}
}

func TestRunBadSetupYmlFails(t *testing.T) {
	p := Init()
	p.AddExperiment("torpor", "e")
	p.SetParam("e", "ops", "20")
	p.Files[expPath("e", "setup.yml")] = []byte("- hosts: all") // no tasks
	res, err := p.RunExperiment("e", &Env{Seed: 1})
	if err == nil {
		t.Fatalf("bad setup.yml must fail the setup stage:\n%s", res.Record.Log)
	}
}

func TestRunValidationFailureSurfaces(t *testing.T) {
	p := Init()
	p.AddExperiment("torpor", "e")
	p.SetParam("e", "ops", "20")
	// impossible criteria
	p.Files[expPath("e", "validations.aver")] = []byte("expect speedup > 1000\n")
	res, err := p.RunExperiment("e", &Env{Seed: 1})
	if err == nil {
		t.Fatal("validation failure must fail the run")
	}
	if res.Passed() {
		t.Fatal("result must not pass")
	}
	if len(res.Validation) == 0 {
		t.Fatal("validation results must be captured")
	}
}

func TestPackageAndUnpackExperiment(t *testing.T) {
	p := Init()
	p.AddExperiment("zlog", "log")
	reg := container.NewRegistry()
	eng := container.NewEngine(reg)
	img, err := PackageExperiment(p, "log", eng, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if img.Labels["popper.experiment"] != "log" || img.Labels["popper.template"] != "zlog" {
		t.Fatalf("labels = %v", img.Labels)
	}
	// running the image prints the parametrization (the self-describing
	// deploy of the reader workflow)
	ctr, err := eng.Run(img.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ctr.Logs(), "template: zlog") {
		t.Fatalf("logs = %q", ctr.Logs())
	}
	// a reader unpacks it into a fresh repository and runs it
	reader := Init()
	name, err := UnpackExperiment(reader, img)
	if err != nil || name != "log" {
		t.Fatalf("unpack = %q, %v", name, err)
	}
	if !reader.Check().Compliant() {
		t.Fatalf("unpacked repo not compliant:\n%s", reader.Check().String())
	}
	res, err := reader.RunExperiment("log", &Env{Seed: 1})
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Record.Log)
	}
	// duplicate unpack refused
	if _, err := UnpackExperiment(reader, img); err == nil {
		t.Fatal("duplicate unpack must fail")
	}
}

func TestPackageExperimentErrors(t *testing.T) {
	p := Init()
	p.AddExperiment("zlog", "log")
	if _, err := PackageExperiment(p, "log", nil, "v1"); err == nil {
		t.Fatal("nil engine must fail")
	}
	reg := container.NewRegistry()
	eng := container.NewEngine(reg)
	if _, err := PackageExperiment(p, "ghost", eng, "v1"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	// unlabeled image refused on unpack
	img, _ := eng.Build("FROM scratch\nCOPY f /experiment/f\nCMD true",
		map[string][]byte{"f": []byte("x")}, "raw", "1")
	if _, err := UnpackExperiment(p, img); err == nil {
		t.Fatal("unlabeled image must fail")
	}
}

func TestBuiltPDFIsNotManuscriptSource(t *testing.T) {
	p := Init()
	if err := p.BuildPaper(); err != nil {
		t.Fatal(err)
	}
	delete(p.Files, "paper/paper.tex")
	if p.Check().HasPaper {
		t.Fatal("a built paper.pdf must not satisfy the manuscript requirement")
	}
	// a markdown manuscript does
	p.Files["paper/paper.md"] = []byte("# title")
	if !p.Check().HasPaper {
		t.Fatal("paper.md should satisfy the manuscript requirement")
	}
}

func TestPaperTemplates(t *testing.T) {
	names := PaperTemplates()
	if len(names) < 3 {
		t.Fatalf("paper templates = %v", names)
	}
	listing := FormatPaperTemplateList()
	for _, n := range []string{"article", "bams", "sigplanconf"} {
		if !strings.Contains(listing, n) {
			t.Errorf("listing missing %s:\n%s", n, listing)
		}
	}
	p := Init()
	if err := p.AddPaper("bams"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(p.Files["paper/paper.tex"]), "Data-Centric") {
		t.Fatal("bams template not applied")
	}
	// every paper template must build
	for _, n := range names {
		p2 := Init()
		if err := p2.AddPaper(n); err != nil {
			t.Fatal(err)
		}
		if err := p2.BuildPaper(); err != nil {
			t.Errorf("template %s does not build: %v", n, err)
		}
	}
	if err := p.AddPaper("ghost"); err == nil {
		t.Fatal("unknown paper template must fail")
	}
}

func TestReport(t *testing.T) {
	p := Init()
	p.AddExperiment("zlog", "log")
	p.SetParam("log", "appends", "64")
	// before running: placeholder
	out, err := p.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "No results yet") {
		t.Fatalf("pre-run report:\n%s", out)
	}
	if _, err := p.RunExperiment("log", &Env{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out, err = p.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"compliant", "experiments/log", "<svg", "PASS",
		"appends_per_sec", "increasing(batch, appends_per_sec)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// a failing validation shows up as FAIL
	p.Files[expPath("log", "validations.aver")] = []byte("expect max(appends_per_sec) < 0\n")
	out, _ = p.Report()
	if !strings.Contains(out, "FAIL") {
		t.Fatal("failing assertion must render as FAIL")
	}
	// corrupt results surface an inline error, not a crash
	p.Files[expPath("log", "results.csv")] = []byte("")
	if _, err := p.Report(); err == nil {
		t.Fatal("corrupt results.csv must error")
	}
}
