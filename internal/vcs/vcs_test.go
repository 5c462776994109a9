package vcs

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func files(kv ...string) map[string][]byte {
	m := make(map[string][]byte, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = []byte(kv[i+1])
	}
	return m
}

func TestCommitAndCheckout(t *testing.T) {
	r := NewRepository()
	in := files(
		"README.md", "hello",
		"experiments/gassyfs/run.sh", "#!/bin/sh\n",
		"experiments/gassyfs/vars.yml", "nodes: 4\n",
		"paper/paper.tex", "\\documentclass{article}",
	)
	c, err := r.Commit(in, "ivo", "initial import")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Checkout(c.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("checkout has %d files, want %d", len(out), len(in))
	}
	for p, want := range in {
		if string(out[p]) != string(want) {
			t.Errorf("file %s = %q, want %q", p, out[p], want)
		}
	}
}

func TestEmptyRepoHead(t *testing.T) {
	r := NewRepository()
	if _, ok := r.Head(); ok {
		t.Fatal("empty repo should have no head")
	}
	out, err := r.CheckoutHead()
	if err != nil || len(out) != 0 {
		t.Fatalf("CheckoutHead on empty repo: %v %v", out, err)
	}
	log, err := r.Log()
	if err != nil || log != nil {
		t.Fatalf("Log on empty repo: %v %v", log, err)
	}
}

func TestHistoryAndLog(t *testing.T) {
	r := NewRepository()
	c1, _ := r.Commit(files("a", "1"), "x", "first")
	c2, _ := r.Commit(files("a", "2"), "x", "second\nbody")
	log, err := r.Log()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].Hash != c2.Hash || log[1].Hash != c1.Hash {
		t.Fatalf("log = %v", log)
	}
	if len(log[0].Parents) != 1 || log[0].Parents[0] != c1.Hash {
		t.Fatalf("parents = %v", log[0].Parents)
	}
	if log[0].Seq <= log[1].Seq {
		t.Fatalf("seq not increasing: %d then %d", log[1].Seq, log[0].Seq)
	}
	text, err := r.FormatLog()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(text, "second") || contains(text, "body") {
		t.Fatalf("FormatLog:\n%s", text)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestContentAddressing(t *testing.T) {
	r := NewRepository()
	r.Commit(files("a", "same", "b", "same"), "x", "c1")
	n1 := len(r.objects)
	// identical content in new path should add tree+commit but reuse blob
	r.Commit(files("a", "same", "b", "same", "c", "same"), "x", "c2")
	n2 := len(r.objects)
	if n2-n1 != 2 { // one new tree, one new commit; blob deduped
		t.Fatalf("object growth = %d, want 2 (blob must dedup)", n2-n1)
	}
}

func TestDeterministicTreeHash(t *testing.T) {
	r1 := NewRepository()
	r2 := NewRepository()
	c1, _ := r1.Commit(files("x/a", "1", "x/b", "2", "y", "3"), "a", "m")
	c2, _ := r2.Commit(files("y", "3", "x/b", "2", "x/a", "1"), "a", "m")
	if c1.Tree != c2.Tree {
		t.Fatalf("tree hashes differ for same content: %s vs %s", c1.Tree, c2.Tree)
	}
}

func TestBranches(t *testing.T) {
	r := NewRepository()
	c1, _ := r.Commit(files("f", "main1"), "x", "m1")
	if err := r.CreateBranch("exp", true); err != nil {
		t.Fatal(err)
	}
	if r.CurrentBranch() != "exp" {
		t.Fatalf("branch = %s", r.CurrentBranch())
	}
	c2, _ := r.Commit(files("f", "exp1"), "x", "e1")
	if got := r.refs["master"]; got != c1.Hash {
		t.Fatalf("master head = %s, want %s", got.Short(), c1.Hash.Short())
	}
	head, _ := r.Head()
	if head.Hash != c2.Hash {
		t.Fatalf("exp head = %s", head.Hash.Short())
	}
	if got := r.Branches(); !reflect.DeepEqual(got, []string{"exp", "master"}) {
		t.Fatalf("branches = %v", got)
	}
	if err := r.CreateBranch("exp", false); err == nil {
		t.Fatal("duplicate branch should fail")
	}
	if err := r.CreateBranch("", false); err == nil {
		t.Fatal("empty branch name should fail")
	}
}

func TestTags(t *testing.T) {
	r := NewRepository()
	c, _ := r.Commit(files("f", "v"), "x", "m")
	if err := r.Tag("asplos17", c.Hash); err != nil {
		t.Fatal(err)
	}
	if got := r.tags["asplos17"]; got != c.Hash {
		t.Fatalf("tag = %v, want %v", got, c.Hash)
	}
	if err := r.Tag("asplos17", c.Hash); err == nil {
		t.Fatal("tags must be immutable")
	}
	if err := r.Tag("x", "deadbeef"); err == nil {
		t.Fatal("tagging unknown commit should fail")
	}
}

func TestReadFile(t *testing.T) {
	r := NewRepository()
	c, _ := r.Commit(files("experiments/e/run.sh", "#!run"), "x", "m")
	b, err := r.ReadFile(c.Hash, "experiments/e/run.sh")
	if err != nil || string(b) != "#!run" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if _, err := r.ReadFile(c.Hash, "nope"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestInvalidPaths(t *testing.T) {
	r := NewRepository()
	for _, p := range []string{"", "/abs", "trail/", "a//b", "a/./b", "a/../b", ".."} {
		if _, err := r.Commit(map[string][]byte{p: nil}, "x", "m"); err == nil {
			t.Errorf("path %q should be rejected", p)
		}
	}
}

func TestCommitHook(t *testing.T) {
	r := NewRepository()
	var got []string
	r.OnCommit(func(c Commit) { got = append(got, c.Message) })
	r.Commit(files("a", "1"), "x", "one")
	r.Commit(files("a", "2"), "x", "two")
	if !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Fatalf("hook calls = %v", got)
	}
}

func TestLookupErrors(t *testing.T) {
	r := NewRepository()
	if _, err := r.LookupCommit("absent"); err == nil {
		t.Fatal("absent commit should fail")
	}
	c, _ := r.Commit(files("a", "1"), "x", "m")
	// a tree hash is not a commit
	if _, err := r.LookupCommit(c.Tree); err == nil {
		t.Fatal("kind mismatch should fail")
	}
	if _, err := r.Checkout("absent"); err == nil {
		t.Fatal("checkout of absent should fail")
	}
}

func TestCheckoutIsolation(t *testing.T) {
	r := NewRepository()
	c, _ := r.Commit(files("a", "orig"), "x", "m")
	out, _ := r.Checkout(c.Hash)
	out["a"][0] = 'X' // mutate returned buffer
	again, _ := r.Checkout(c.Hash)
	if string(again["a"]) != "orig" {
		t.Fatal("checkout buffers must be copies")
	}
}

// Property: commit → checkout is the identity on arbitrary file maps.
func TestQuickCommitCheckoutIdentity(t *testing.T) {
	f := func(names []uint16, contents [][]byte) bool {
		in := make(map[string][]byte)
		n := len(names)
		if len(contents) < n {
			n = len(contents)
		}
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("d%d/f%d", names[i]%7, names[i])
			in[path] = contents[i]
		}
		r := NewRepository()
		c, err := r.Commit(in, "q", "quick")
		if err != nil {
			return false
		}
		out, err := r.Checkout(c.Hash)
		if err != nil || len(out) != len(in) {
			return false
		}
		for p, v := range in {
			if string(out[p]) != string(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: same content always hashes identically; different content
// (added file) never collides.
func TestQuickHashStability(t *testing.T) {
	f := func(content []byte) bool {
		r := NewRepository()
		c1, _ := r.Commit(map[string][]byte{"f": content}, "a", "m")
		r2 := NewRepository()
		c2, _ := r2.Commit(map[string][]byte{"f": content}, "a", "m")
		if c1.Tree != c2.Tree {
			return false
		}
		c3, _ := r2.Commit(map[string][]byte{"f": content, "g": {1}}, "a", "m")
		return c3.Tree != c1.Tree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
