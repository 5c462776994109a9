package popper

import (
	"strings"
	"testing"

	"popper/internal/aver"
	"popper/internal/ci"
	"popper/internal/container"
	"popper/internal/core"
	"popper/internal/dataset"
	"popper/internal/pipeline"
	"popper/internal/vcs"
	"popper/internal/weather"
)

// TestFullPopperLifecycle drives the entire reproduction end to end the
// way the paper's reader/reviewer/collaborator workflow describes it:
// an author popperizes an exploration, CI guards every commit, a
// collaborator builds on the author's latest commit with an experiment
// of their own, a regression turns CI red, and the journal proves
// bit-for-bit re-execution.
func TestFullPopperLifecycle(t *testing.T) {
	// --- the author bootstraps the repository -------------------------
	store, ref := publishWeather(t)
	proj := core.Init()
	if err := proj.AddExperiment("jupyter-bww", "airtemp"); err != nil {
		t.Fatal(err)
	}
	proj.AddDatasetRef("airtemp", ref)
	proj.Files[core.CIFile] = []byte(
		"language: popper\nscript:\n  - popper check\n  - popper lint\n  - ./paper/build.sh\n")

	repo := vcs.NewRepository()
	env := &core.Env{Seed: 1, Store: store}
	svc, err := ci.NewService(repo, core.CIRunner(env))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := repo.Commit(proj.Files, "author", "bootstrap exploration")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := svc.LatestFor(c1.Hash); b.Status != ci.StatusPassed {
		t.Fatalf("bootstrap CI: %s\n%s", b.Status, b.Log)
	}

	// --- the author runs the analysis; results land in the repo -------
	journal := pipeline.NewJournal()
	res, err := proj.RunExperiment("airtemp", env)
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Record.Log)
	}
	journal.Append(res.Record, "initial analysis")
	c2, _ := repo.Commit(proj.Files, "author", "analysis results")
	if b, _ := svc.LatestFor(c2.Hash); b.Status != ci.StatusPassed {
		t.Fatalf("results CI: %s\n%s", b.Status, b.Log)
	}

	// --- the author tweaks the paper ------------------------------------
	author, _ := core.Load(mustCheckout(t, repo))
	author.Files["paper/paper.tex"] = []byte(
		"\\documentclass{article}\n\\begin{document}\nNow with a shared-log study.\n\\end{document}\n")
	repo.Commit(author.Files, "author", "revise prose")

	// --- a collaborator adds a systems experiment; CI builds it -------
	collab, err := core.Load(mustCheckout(t, repo))
	if err != nil {
		t.Fatal(err)
	}
	if err := collab.AddExperiment("zlog", "shared-log"); err != nil {
		t.Fatal(err)
	}
	collab.SetParam("shared-log", "appends", "128")
	c3, err := repo.Commit(collab.Files, "collaborator", "add zlog experiment")
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := svc.LatestFor(c3.Hash); !ok || b.Status != ci.StatusPassed {
		t.Fatalf("collaborator CI: %+v\n%s", b.Status, b.Log)
	}
	sharedTree := mustCheckout(t, repo)
	sharedProj, _ := core.Load(sharedTree)
	exps := sharedProj.Experiments()
	if len(exps) != 2 {
		t.Fatalf("shared experiments = %v", exps)
	}
	if !strings.Contains(string(sharedTree["paper/paper.tex"]), "shared-log study") {
		t.Fatal("author's prose lost")
	}

	// --- the collaborator's experiment runs and validates -------------
	runRes, err := sharedProj.RunExperiment("shared-log", env)
	if err != nil {
		t.Fatalf("%v\n%s", err, runRes.Record.Log)
	}
	if !runRes.Passed() {
		t.Fatalf("zlog validations failed:\n%s", aver.FormatResults(runRes.Validation))
	}

	// --- a regression turns CI red -------------------------------------
	sharedProj.Files[core.CIFile] = []byte(
		"script:\n  - popper check\n  - ./experiments/shared-log/run.sh\n")
	repo.Commit(sharedProj.Files, "author", "gate the experiment in CI")
	if b, _ := svc.Latest(); b.Status != ci.StatusPassed {
		t.Fatalf("gated CI should pass first: %s\n%s", b.Status, b.Log)
	}
	// someone makes batching pointless, breaking the increasing() claim
	sharedProj.SetParam("shared-log", "batches", "8,8,8")
	repo.Commit(sharedProj.Files, "author", "accidental regression")
	if b, _ := svc.Latest(); b.Status != ci.StatusFailed {
		t.Fatalf("regression must fail CI: %s\n%s", b.Status, b.Log)
	}

	// --- bit-for-bit re-execution (the convention's promise) ----------
	proj2, _ := core.Load(mustCheckoutAt(t, repo, c2.Hash))
	res2, err := proj2.RunExperiment("airtemp", env)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := proj.ExperimentFile("airtemp", "results.csv")
	r2, _ := proj2.ExperimentFile("airtemp", "results.csv")
	if string(r1) != string(r2) {
		t.Fatal("re-execution from the committed tree must reproduce results.csv bit-for-bit")
	}
	_ = res2
}

func publishWeather(t *testing.T) (*dataset.Store, dataset.Ref) {
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
	ref, err := store.Publish("air-temperature", "1.0.0", "synthetic reanalysis", "bww", map[string][]byte{"air.csv": csv})
	if err != nil {
		t.Fatal(err)
	}
	return store, ref
}

func mustCheckout(t *testing.T, repo *vcs.Repository) map[string][]byte {
	t.Helper()
	files, err := repo.CheckoutHead()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func mustCheckoutAt(t *testing.T, repo *vcs.Repository, h vcs.Hash) map[string][]byte {
	t.Helper()
	files, err := repo.Checkout(h)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestImageThroughArtifactStore ships a packaged experiment image
// through the dataset store: the author exports it as an artifact, the
// reader fetches by reference, imports, unpacks, and runs — binaries as
// immutable, referenced assets.
func TestImageThroughArtifactStore(t *testing.T) {
	// author side
	author := core.Init()
	if err := author.AddExperiment("proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	reg := container.NewRegistry()
	eng := container.NewEngine(reg)
	img, err := core.PackageExperiment(author, "stm", eng, "v1")
	if err != nil {
		t.Fatal(err)
	}
	archive, err := img.Export()
	if err != nil {
		t.Fatal(err)
	}
	store := dataset.NewStore()
	ref, err := store.Publish("stm-image", "1.0.0", "packaged experiment", "popper",
		map[string][]byte{"image.tar.gz": archive})
	if err != nil {
		t.Fatal(err)
	}

	// reader side: fetch by reference, verify, import, unpack, run
	_, files, err := store.Fetch(ref)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := container.Import(files["image.tar.gz"])
	if err != nil {
		t.Fatal(err)
	}
	reader := core.Init()
	name, err := core.UnpackExperiment(reader, imported)
	if err != nil || name != "stm" {
		t.Fatalf("unpack = %q, %v", name, err)
	}
	res, err := reader.RunExperiment("stm", &core.Env{Seed: 1})
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Record.Log)
	}
	if !res.Passed() {
		t.Fatal("unpacked experiment must validate")
	}

	// tampering with the stored artifact is detected end to end
	_, manifest, _ := store.Resolve(ref)
	store.Corrupt(manifest.Resources[0].SHA256)
	if _, _, err := store.Fetch(ref); err == nil {
		t.Fatal("store corruption must be detected")
	}
}
