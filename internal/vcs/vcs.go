// Package vcs implements the version-control substrate of the Popper
// convention: a content-addressed object store with blobs, trees, commits,
// branches and tags, in the style of git.
//
// The paper's premise is that every artifact of an exploration lives in a
// single source-code repository and is referenced by an immutable
// identifier. This package provides exactly those semantics: snapshots of
// a file map become tree objects, commits form a DAG, and any object is
// addressed by the SHA-256 of its canonical encoding. The CI service
// (internal/ci) subscribes to commit events, and the Popper core uses
// checkouts to rebuild experiment state at any point in history — the
// "lab notebook" of Figure 1.
package vcs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Hash identifies an object in the store (hex-encoded SHA-256).
type Hash string

// Short returns the abbreviated hash used in logs.
func (h Hash) Short() string {
	if len(h) < 8 {
		return string(h)
	}
	return string(h[:8])
}

type objKind byte

const (
	kindBlob   objKind = 'b'
	kindTree   objKind = 't'
	kindCommit objKind = 'c'
)

// Commit is the metadata of one recorded snapshot.
type Commit struct {
	Hash    Hash
	Tree    Hash
	Parents []Hash
	Author  string
	Message string
	// Seq is a logical timestamp assigned by the repository; it replaces
	// wall-clock time so repositories are deterministic under test.
	Seq int64
	// When records wall-clock time for human-facing logs.
	When time.Time
}

// Repository is an in-memory content-addressed store. It is safe for
// concurrent use.
type Repository struct {
	mu      sync.Mutex
	objects map[Hash][]byte
	refs    map[string]Hash // branch name -> commit
	tags    map[string]Hash
	head    string // current branch name
	seq     int64
	hooks   []func(Commit)
}

// NewRepository creates an empty repository with a "master" branch.
func NewRepository() *Repository {
	return &Repository{
		objects: make(map[Hash][]byte),
		refs:    map[string]Hash{"master": ""},
		tags:    make(map[string]Hash),
		head:    "master",
	}
}

func hashOf(kind objKind, payload []byte) Hash {
	h := sha256.New()
	h.Write([]byte{byte(kind), ':'})
	h.Write(payload)
	return Hash(hex.EncodeToString(h.Sum(nil)))
}

// put stores an object and returns its hash (idempotent).
func (r *Repository) put(kind objKind, payload []byte) Hash {
	h := hashOf(kind, payload)
	if _, ok := r.objects[h]; !ok {
		cp := make([]byte, 1+len(payload))
		cp[0] = byte(kind)
		copy(cp[1:], payload)
		r.objects[h] = cp
	}
	return h
}

func (r *Repository) get(h Hash, want objKind) ([]byte, error) {
	raw, ok := r.objects[h]
	if !ok {
		return nil, fmt.Errorf("vcs: object %s not found", h.Short())
	}
	if objKind(raw[0]) != want {
		return nil, fmt.Errorf("vcs: object %s is %q, want %q", h.Short(), raw[0], want)
	}
	return raw[1:], nil
}

// treeEntry is one name in a tree object.
type treeEntry struct {
	name  string
	isDir bool
	hash  Hash
}

func encodeTree(entries []treeEntry) []byte {
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var sb strings.Builder
	for _, e := range entries {
		kind := "f"
		if e.isDir {
			kind = "d"
		}
		fmt.Fprintf(&sb, "%s %s %s\n", kind, e.hash, e.name)
	}
	return []byte(sb.String())
}

func decodeTree(raw []byte) ([]treeEntry, error) {
	var out []treeEntry
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("vcs: corrupt tree entry %q", line)
		}
		out = append(out, treeEntry{
			name: parts[2], isDir: parts[0] == "d", hash: Hash(parts[1]),
		})
	}
	return out, nil
}

// storeTree recursively builds tree objects from a flat path->content map.
func (r *Repository) storeTree(files map[string][]byte, prefix string) Hash {
	dirs := make(map[string]map[string][]byte)
	var entries []treeEntry
	for path, content := range files {
		if i := strings.IndexByte(path, '/'); i >= 0 {
			d := path[:i]
			if dirs[d] == nil {
				dirs[d] = make(map[string][]byte)
			}
			dirs[d][path[i+1:]] = content
			continue
		}
		entries = append(entries, treeEntry{name: path, hash: r.put(kindBlob, content)})
	}
	dirNames := make([]string, 0, len(dirs))
	for d := range dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)
	for _, d := range dirNames {
		entries = append(entries, treeEntry{
			name: d, isDir: true, hash: r.storeTree(dirs[d], prefix+d+"/"),
		})
	}
	return r.put(kindTree, encodeTree(entries))
}

// loadTree flattens a tree object back into a path->content map.
func (r *Repository) loadTree(tree Hash, prefix string, into map[string][]byte) error {
	raw, err := r.get(tree, kindTree)
	if err != nil {
		return err
	}
	entries, err := decodeTree(raw)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.isDir {
			if err := r.loadTree(e.hash, prefix+e.name+"/", into); err != nil {
				return err
			}
			continue
		}
		blob, err := r.get(e.hash, kindBlob)
		if err != nil {
			return err
		}
		into[prefix+e.name] = append([]byte(nil), blob...)
	}
	return nil
}

func encodeCommit(c Commit) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tree %s\n", c.Tree)
	for _, p := range c.Parents {
		fmt.Fprintf(&sb, "parent %s\n", p)
	}
	fmt.Fprintf(&sb, "author %s\n", c.Author)
	fmt.Fprintf(&sb, "seq %d\n", c.Seq)
	fmt.Fprintf(&sb, "\n%s", c.Message)
	return []byte(sb.String())
}

func decodeCommit(h Hash, raw []byte) (Commit, error) {
	c := Commit{Hash: h}
	head, msg, found := strings.Cut(string(raw), "\n\n")
	if found {
		c.Message = msg
	}
	for _, line := range strings.Split(head, "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch key {
		case "tree":
			c.Tree = Hash(val)
		case "parent":
			c.Parents = append(c.Parents, Hash(val))
		case "author":
			c.Author = val
		case "seq":
			fmt.Sscanf(val, "%d", &c.Seq)
		}
	}
	if c.Tree == "" {
		return c, fmt.Errorf("vcs: commit %s has no tree", h.Short())
	}
	return c, nil
}

// OnCommit registers a hook invoked (synchronously) after every commit —
// the integration point for the CI service.
func (r *Repository) OnCommit(hook func(Commit)) {
	r.mu.Lock()
	r.hooks = append(r.hooks, hook)
	r.mu.Unlock()
}

// Commit snapshots the given file map onto the current branch.
// Paths use '/' separators; empty paths or paths with "." / ".." segments
// are rejected.
func (r *Repository) Commit(files map[string][]byte, author, message string) (Commit, error) {
	for path := range files {
		if err := validatePath(path); err != nil {
			return Commit{}, err
		}
	}
	r.mu.Lock()
	tree := r.storeTree(files, "")
	r.seq++
	c := Commit{
		Tree:   tree,
		Author: author, Message: message,
		Seq:  r.seq,
		When: time.Now(),
	}
	if parent := r.refs[r.head]; parent != "" {
		c.Parents = []Hash{parent}
	}
	c.Hash = r.put(kindCommit, encodeCommit(c))
	r.refs[r.head] = c.Hash
	hooks := append([]func(Commit){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h(c)
	}
	return c, nil
}

func validatePath(path string) error {
	if path == "" || strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return fmt.Errorf("vcs: invalid path %q", path)
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("vcs: invalid path %q", path)
		}
	}
	return nil
}

// Head returns the commit at the tip of the current branch.
func (r *Repository) Head() (Commit, bool) {
	r.mu.Lock()
	h := r.refs[r.head]
	r.mu.Unlock()
	if h == "" {
		return Commit{}, false
	}
	c, err := r.LookupCommit(h)
	return c, err == nil
}

// CurrentBranch returns the checked-out branch name.
func (r *Repository) CurrentBranch() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Branches lists branch names, sorted.
func (r *Repository) Branches() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.refs))
	for b := range r.refs {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// CreateBranch makes a new branch at the current head and optionally
// switches to it.
func (r *Repository) CreateBranch(name string, checkout bool) error {
	if name == "" {
		return fmt.Errorf("vcs: empty branch name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.refs[name]; exists {
		return fmt.Errorf("vcs: branch %q already exists", name)
	}
	r.refs[name] = r.refs[r.head]
	if checkout {
		r.head = name
	}
	return nil
}

// Tag names a commit immutably ("the asset id" the convention references).
func (r *Repository) Tag(name string, commit Hash) error {
	if name == "" {
		return fmt.Errorf("vcs: empty tag name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.tags[name]; exists {
		return fmt.Errorf("vcs: tag %q already exists", name)
	}
	if _, ok := r.objects[commit]; !ok {
		return fmt.Errorf("vcs: commit %s not found", commit.Short())
	}
	r.tags[name] = commit
	return nil
}

// LookupCommit loads commit metadata by hash.
func (r *Repository) LookupCommit(h Hash) (Commit, error) {
	r.mu.Lock()
	raw, err := r.get(h, kindCommit)
	r.mu.Unlock()
	if err != nil {
		return Commit{}, err
	}
	return decodeCommit(h, raw)
}

// Checkout materializes the file map of a commit.
func (r *Repository) Checkout(h Hash) (map[string][]byte, error) {
	c, err := r.LookupCommit(h)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.loadTree(c.Tree, "", out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckoutHead materializes the current branch tip (empty map before the
// first commit).
func (r *Repository) CheckoutHead() (map[string][]byte, error) {
	head, ok := r.Head()
	if !ok {
		return map[string][]byte{}, nil
	}
	return r.Checkout(head.Hash)
}

// ReadFile returns one file from a commit.
func (r *Repository) ReadFile(commit Hash, path string) ([]byte, error) {
	files, err := r.Checkout(commit)
	if err != nil {
		return nil, err
	}
	content, ok := files[path]
	if !ok {
		return nil, fmt.Errorf("vcs: %s: no file %q", commit.Short(), path)
	}
	return content, nil
}

// Log returns the first-parent history from the current head, newest first.
func (r *Repository) Log() ([]Commit, error) {
	head, ok := r.Head()
	if !ok {
		return nil, nil
	}
	var out []Commit
	cur := head
	for {
		out = append(out, cur)
		if len(cur.Parents) == 0 {
			return out, nil
		}
		next, err := r.LookupCommit(cur.Parents[0])
		if err != nil {
			return nil, err
		}
		cur = next
	}
}

// FormatLog renders a compact one-line-per-commit history.
func (r *Repository) FormatLog() (string, error) {
	log, err := r.Log()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, c := range log {
		first, _, _ := strings.Cut(c.Message, "\n")
		fmt.Fprintf(&sb, "%s  %-12s  %s\n", c.Hash.Short(), c.Author, first)
	}
	return sb.String(), nil
}
