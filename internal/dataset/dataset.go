// Package dataset implements the dataset-management substrate of the
// Popper convention (the role of git-lfs, datapackages, Artifactory or
// Archiva in the paper).
//
// Large data dependencies must not live inside the paper repository;
// instead the repository stores a small *reference* (name, version,
// content hash) and a dataset manager resolves the reference against an
// artifact store at experiment-setup time — `dpm install
// datapackages/air-temperature` in the paper's BWW use case. The store is
// content-addressed, so a reference pins the exact bytes an experiment
// consumed, and installation verifies integrity before the experiment is
// allowed to run.
package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Resource is one file inside a data package.
type Resource struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Manifest is the datapackage.json equivalent: metadata plus the resource
// list with integrity hashes.
type Manifest struct {
	Name      string     `json:"name"`
	Version   string     `json:"version"`
	Title     string     `json:"title,omitempty"`
	Source    string     `json:"source,omitempty"`
	Resources []Resource `json:"resources"`
}

// Ref is the small token a Popper repository commits in place of data:
// it pins a package by name, version and manifest hash.
type Ref struct {
	Name         string `json:"name"`
	Version      string `json:"version"`
	ManifestHash string `json:"manifest_sha256"`
}

// String renders the reference in the "name@version" form used by CLIs.
func (r Ref) String() string { return r.Name + "@" + r.Version }

// ParseRef parses "name@version" (version defaults to "latest").
func ParseRef(s string) (Ref, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Ref{}, fmt.Errorf("dataset: empty reference")
	}
	name, version, ok := strings.Cut(s, "@")
	if !ok {
		version = "latest"
	}
	if name == "" || version == "" {
		return Ref{}, fmt.Errorf("dataset: malformed reference %q", s)
	}
	return Ref{Name: name, Version: version}, nil
}

// EncodeRef renders a reference as the JSON blob committed to the repo.
func EncodeRef(r Ref) []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// DecodeRef parses a committed reference blob.
func DecodeRef(b []byte) (Ref, error) {
	var r Ref
	if err := json.Unmarshal(b, &r); err != nil {
		return Ref{}, fmt.Errorf("dataset: decoding reference: %w", err)
	}
	if r.Name == "" || r.Version == "" {
		return Ref{}, fmt.Errorf("dataset: reference missing name or version")
	}
	return r, nil
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashManifest produces the canonical hash of a manifest.
func hashManifest(m Manifest) string {
	cp := m
	cp.Resources = append([]Resource(nil), m.Resources...)
	sort.Slice(cp.Resources, func(i, j int) bool { return cp.Resources[i].Path < cp.Resources[j].Path })
	b, _ := json.Marshal(cp)
	return hashBytes(b)
}

// Store is a content-addressed artifact repository. It is safe for
// concurrent use.
type Store struct {
	mu        sync.Mutex
	blobs     map[string][]byte   // sha256 -> content
	manifests map[string]Manifest // "name@version" -> manifest
	latest    map[string]string   // name -> latest version key
}

// NewStore creates an empty artifact store.
func NewStore() *Store {
	return &Store{
		blobs:     make(map[string][]byte),
		manifests: make(map[string]Manifest),
		latest:    make(map[string]string),
	}
}

// Publish uploads a package version; versions are immutable.
// Returns the reference to commit into a Popper repository.
func (s *Store) Publish(name, version, title, source string, files map[string][]byte) (Ref, error) {
	if name == "" || version == "" || version == "latest" {
		return Ref{}, fmt.Errorf("dataset: invalid package identity %q@%q", name, version)
	}
	if len(files) == 0 {
		return Ref{}, fmt.Errorf("dataset: package %s@%s has no resources", name, version)
	}
	key := name + "@" + version
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.manifests[key]; exists {
		return Ref{}, fmt.Errorf("dataset: %s already published (versions are immutable)", key)
	}
	m := Manifest{Name: name, Version: version, Title: title, Source: source}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		content := files[p]
		h := hashBytes(content)
		if _, ok := s.blobs[h]; !ok {
			s.blobs[h] = append([]byte(nil), content...)
		}
		m.Resources = append(m.Resources, Resource{Path: p, SHA256: h, Size: int64(len(content))})
	}
	s.manifests[key] = m
	s.latest[name] = version
	return Ref{Name: name, Version: version, ManifestHash: hashManifest(m)}, nil
}

// Resolve turns a (possibly "latest") reference into a pinned one and
// returns the manifest.
func (s *Store) Resolve(r Ref) (Ref, Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	version := r.Version
	if version == "latest" || version == "" {
		v, ok := s.latest[r.Name]
		if !ok {
			return Ref{}, Manifest{}, fmt.Errorf("dataset: no package %q in store", r.Name)
		}
		version = v
	}
	key := r.Name + "@" + version
	m, ok := s.manifests[key]
	if !ok {
		return Ref{}, Manifest{}, fmt.Errorf("dataset: no package %q in store", key)
	}
	pinned := Ref{Name: r.Name, Version: version, ManifestHash: hashManifest(m)}
	if r.ManifestHash != "" && r.ManifestHash != pinned.ManifestHash {
		return Ref{}, Manifest{}, fmt.Errorf(
			"dataset: %s manifest hash mismatch: repo pins %s, store has %s",
			key, r.ManifestHash[:8], pinned.ManifestHash[:8])
	}
	return pinned, m, nil
}

// Fetch returns the files of a package after verifying every resource
// against its manifest hash.
func (s *Store) Fetch(r Ref) (Manifest, map[string][]byte, error) {
	pinned, m, err := s.Resolve(r)
	if err != nil {
		return Manifest{}, nil, err
	}
	_ = pinned
	files := make(map[string][]byte, len(m.Resources))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, res := range m.Resources {
		blob, ok := s.blobs[res.SHA256]
		if !ok {
			return Manifest{}, nil, fmt.Errorf("dataset: %s: blob %s missing from store",
				r, res.SHA256[:8])
		}
		if hashBytes(blob) != res.SHA256 {
			return Manifest{}, nil, fmt.Errorf("dataset: %s: blob %s corrupted in store",
				r, res.SHA256[:8])
		}
		files[res.Path] = append([]byte(nil), blob...)
	}
	return m, files, nil
}

// List returns all published "name@version" keys, sorted.
func (s *Store) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.manifests))
	for k := range s.manifests {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Corrupt flips a byte in a stored blob — a fault-injection hook used by
// tests to prove that integrity checking actually fires.
func (s *Store) Corrupt(sha string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[sha]
	if !ok {
		return fmt.Errorf("dataset: no blob %s", sha)
	}
	if len(blob) == 0 {
		s.blobs[sha] = []byte{0xFF}
		return nil
	}
	blob[0] ^= 0xFF
	return nil
}

// Manager resolves dataset references for a Popper experiment workspace
// (the `dpm` CLI of the paper's BWW use case).
type Manager struct {
	store *Store
}

// NewManager creates a manager bound to an artifact store.
func NewManager(store *Store) *Manager { return &Manager{store: store} }

// Install fetches a package and materializes its resources into the
// workspace under datasets/<name>/; returns the pinned reference so the
// caller can commit it.
func (m *Manager) Install(ref Ref, workspace map[string][]byte) (Ref, error) {
	pinned, manifest, err := m.store.Resolve(ref)
	if err != nil {
		return Ref{}, err
	}
	_, files, err := m.store.Fetch(pinned)
	if err != nil {
		return Ref{}, err
	}
	prefix := "datasets/" + manifest.Name + "/"
	for p, content := range files {
		workspace[prefix+p] = content
	}
	workspace[prefix+"datapackage.json"] = marshalManifest(manifest)
	return pinned, nil
}

// Verify checks every installed resource of a package against the
// manifest in the workspace; it is the pre-run integrity gate.
func (m *Manager) Verify(name string, workspace map[string][]byte) error {
	prefix := "datasets/" + name + "/"
	raw, ok := workspace[prefix+"datapackage.json"]
	if !ok {
		return fmt.Errorf("dataset: %s not installed (no %sdatapackage.json)", name, prefix)
	}
	var manifest Manifest
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return fmt.Errorf("dataset: corrupt manifest for %s: %w", name, err)
	}
	for _, res := range manifest.Resources {
		content, ok := workspace[prefix+res.Path]
		if !ok {
			return fmt.Errorf("dataset: %s: resource %s missing", name, res.Path)
		}
		if int64(len(content)) != res.Size {
			return fmt.Errorf("dataset: %s: resource %s size %d, manifest says %d",
				name, res.Path, len(content), res.Size)
		}
		if hashBytes(content) != res.SHA256 {
			return fmt.Errorf("dataset: %s: resource %s fails integrity check", name, res.Path)
		}
	}
	return nil
}

func marshalManifest(m Manifest) []byte {
	b, _ := json.MarshalIndent(m, "", "  ")
	return append(b, '\n')
}
