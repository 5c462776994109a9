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
