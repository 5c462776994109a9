package popper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// uncalledKeep lists the exported functions and methods under internal/
// that no non-test file names and no other package's tests name, with
// the reason each stays. Keys are "<package>.<Recv>.<Name>", or
// "<package>.<Name>" for a function.
var uncalledKeep = map[string]string{
	"aver.StreamEvaluator.Violations": "oracle: the streaming tests read a provisional aggregate violation, and its recovery, through it",
	"core.SweepResult.Pending":        "oracle: the chaos resume tests count the configurations an interrupted sweep left",
	"gassyfs.FS.Fsck":                 "oracle: the invariant check of the gassyfs concurrency and random-op tests",
	"metrics.Registry.Observations":   "oracle: the registry tests read back what was recorded",
	"metrics.Registry.StreamInto":     "waits for the in-program trace ROADMAP.md plans: the trace gives it a caller, or it goes",
	"plot.Histogram.Total":            "oracle: the binning tests check that every value lands in a bucket",
	"repl.Group.Restart":              "oracle: the split tests bring a crashed replica back through it and check it catches up by anti-entropy",
}

// unsetKeep lists the exported fields of internal/ option structs that
// no non-test file sets, with the reason each stays. Keys are
// "<package>.<Type>.<Field>".
var unsetKeep = map[string]string{
	"aver.StreamOptions.RecheckEvery":  "benchmark knob: the streaming benchmarks turn automatic rechecks off to time incremental validation alone",
	"core.SweepOptions.Limit":          "test hook: the resume tests interrupt a sweep after N configurations; a crash-disk rule in faults.yml could do it instead",
	"gassyfs.Options.Registry":         "waits for the in-program trace ROADMAP.md plans, like metrics.Registry.StreamInto; only the gassyfs metrics test sets it",
	"sched.ClusterOptions.NoSpeculate": "ablation: the scheduler tests and benchmarks isolate stealing from speculation with it",
	"sched.ClusterOptions.NoSteal":     "ablation: BENCH_sched.json's straggler-nosteal baseline and the stealing tests turn stealing off with it",
}

// TestOptionFieldsHaveSetters keeps option structs free of settings
// nothing sets. It covers every exported field of an exported struct
// type under internal/ named Options or ending in Options or Opts. A
// field passes when a non-test Go file anywhere in the repository
// (cmd/, examples/ and e2ebench/ included) sets it: as a composite-
// literal key, or as the selector on the left of an assignment. A key
// that only forwards the same field of another value (X: opts.X) is not
// a set. Anything else must be on unsetKeep with its reason, and every
// unsetKeep entry must still exist and still need listing. Like
// TestInternalExportsHaveCallers, it matches field names as
// identifiers, not resolved to their types, so a name another option
// type's setter uses passes.
func TestOptionFieldsHaveSetters(t *testing.T) {
	files := parseRepoGoFiles(t)
	declared := map[string]bool{}
	for _, gf := range files {
		if gf.test || !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Opts")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							declared[gf.f.Name.Name+"."+name+"."+id.Name] = true
						}
					}
				}
			}
		}
	}

	// Field names set in a composite literal or on the left of an
	// assignment, by any non-test file.
	set := map[string]bool{}
	for _, gf := range files {
		if gf.test {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				key, ok := n.Key.(*ast.Ident)
				if !ok {
					return true
				}
				if sel, ok := n.Value.(*ast.SelectorExpr); !ok || sel.Sel.Name != key.Name {
					set[key.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}

	unset := map[string]bool{}
	for key := range declared {
		if set[key[strings.LastIndexByte(key, '.')+1:]] {
			continue
		}
		unset[key] = true
		if _, ok := unsetKeep[key]; !ok {
			t.Errorf("%s is a setting no non-test file sets: make it a constant, delete it, or list it in unsetKeep with the reason it stays", key)
		}
	}
	for key := range unsetKeep {
		switch {
		case !declared[key]:
			t.Errorf("unsetKeep lists %s, which no longer exists", key)
		case !unset[key]:
			t.Errorf("unsetKeep lists %s, which now has a setter: drop it from the list", key)
		}
	}
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	dir  string // slash-separated, relative to the repository root
	test bool
	f    *ast.File
}

// TestInternalExportsHaveCallers keeps the internal/ packages free of
// API nothing runs. An exported function or method declared in a
// non-test file under internal/ passes when its name appears in a
// non-test Go file anywhere in the repository (cmd/, examples/ and
// e2ebench/ included) or in a test file outside its own package's
// directory. Anything else must be on uncalledKeep with its reason, and
// every uncalledKeep entry must still exist and still need listing.
// Names are matched as identifiers, not resolved, so a name shared with
// another declaration passes; the compiler settles those when the
// declaration is deleted.
func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseRepoGoFiles(t)
	usedNonTest := map[string]bool{}
	usedByTestDir := map[string]map[string]bool{}
	for _, gf := range files {
		decls := map[*ast.Ident]bool{}
		for _, d := range gf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name] = true
			}
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || decls[id] {
				return true
			}
			if !gf.test {
				usedNonTest[id.Name] = true
			} else {
				if usedByTestDir[id.Name] == nil {
					usedByTestDir[id.Name] = map[string]bool{}
				}
				usedByTestDir[id.Name][gf.dir] = true
			}
			return true
		})
	}

	declared := map[string]bool{}
	uncalled := map[string]bool{}
	for _, gf := range files {
		if gf.test || !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := gf.f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = gf.f.Name.Name + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[key] = true
			name := fd.Name.Name
			if usedNonTest[name] {
				continue
			}
			calledFromOtherTests := false
			for dir := range usedByTestDir[name] {
				if dir != gf.dir {
					calledFromOtherTests = true
				}
			}
			if !calledFromOtherTests {
				uncalled[key] = true
				if _, ok := uncalledKeep[key]; !ok {
					t.Errorf("%s in %s is exported but nothing outside its own tests calls it: delete it, or list it in uncalledKeep with the reason it stays", key, gf.dir)
				}
			}
		}
	}
	for key := range uncalledKeep {
		switch {
		case !declared[key]:
			t.Errorf("uncalledKeep lists %s, which no longer exists", key)
		case !uncalled[key]:
			t.Errorf("uncalledKeep lists %s, which now has a caller: drop it from the list", key)
		}
	}
}

// receiverName is the type name of a method receiver.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// parseRepoGoFiles parses every Go file under the repository root,
// skipping testdata and dot directories.
func parseRepoGoFiles(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
			f:    f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
