package main

import (
	"crypto/sha256"
	"fmt"

	"popper/internal/core"
	"popper/internal/repl"
	"popper/internal/store"
)

// repo is the store surface `popper run` drives: the plain artifact
// store or, with -replicas N, the quorum-replicated group.
type repo interface {
	Load() (map[string][]byte, error)
	Sync(files map[string][]byte) (store.SyncStats, error)
	Put(path string, data []byte) error
	LoadCacheState() []byte
	SaveCacheState(data []byte) error
	Object(hash [sha256.Size]byte) ([]byte, bool)
}

// repository is one benchmark repository: a memory-backed filesystem
// per replica (replica 0 is the repository itself), each wrapped in a
// counting VFS with its own counters.
type repository struct {
	fss []store.VFS
	io  []*ioCounters
}

func newRepository(replicas int) *repository {
	r := &repository{}
	for range replicas {
		c := &ioCounters{}
		r.fss = append(r.fss, countingFS{VFS: newMemFS(), c: c})
		r.io = append(r.io, c)
	}
	return r
}

// snapshot sums the I/O counts over replicas. Commits are replica 0's
// alone: one per commit that changed the tree, not one per copy.
func (r *repository) snapshot() ioCounts {
	var sum ioCounts
	for id, c := range r.io {
		s := c.snapshot()
		if id > 0 {
			s.Commits = 0
		}
		sum = sum.add(s)
	}
	return sum
}

// open mirrors the CLI's openRepo: a plain store over one replica, or
// a replica group seeded with the run's -seed value.
func (r *repository) open(seed int64) (repo, *repl.Group, error) {
	if len(r.fss) == 1 {
		return store.New(r.fss[0]), nil, nil
	}
	g, err := repl.New(repl.Options{Replicas: len(r.fss), Seed: seed},
		func(id int) store.VFS { return r.fss[id] })
	if err != nil {
		return nil, nil, err
	}
	return g, g, nil
}

// spaceAmp is the bytes every replica holds (tracked files, .popper
// metadata, the cache sidecar) over the bytes of one tracked tree.
func (r *repository) spaceAmp() (float64, error) {
	var all, tracked int64
	for id, v := range r.fss {
		a, t, err := diskUsage(v)
		if err != nil {
			return 0, err
		}
		all += a
		if id == 0 {
			tracked = t
		}
	}
	if tracked == 0 {
		return 0, fmt.Errorf("repository tracks no bytes")
	}
	return float64(all) / float64(tracked), nil
}

// createRepository replays `popper init`, `popper [-replicas N] add
// <template> <name>` and the user writing sweep.yml into the tree.
func createRepository(replicas int, template, name string, sweepYAML []byte, seed int64) (*repository, error) {
	r := newRepository(replicas)
	// popper init always writes a plain store in the repository itself.
	st := store.New(r.fss[0])
	files, err := st.Load()
	if err != nil {
		return nil, err
	}
	p := core.Init()
	for path, content := range files {
		if _, ok := p.Files[path]; !ok {
			p.Files[path] = content
		}
	}
	if _, err := st.Sync(p.Files); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	h, _, err := r.open(seed)
	if err != nil {
		return nil, err
	}
	if files, err = h.Load(); err != nil {
		return nil, err
	}
	if p, err = core.Load(files); err != nil {
		return nil, err
	}
	if err := p.AddExperiment(template, name); err != nil {
		return nil, err
	}
	if _, err := h.Sync(p.Files); err != nil {
		return nil, fmt.Errorf("add: %w", err)
	}
	path := core.ExperimentDir + "/" + name + "/" + core.SweepFile
	if err := r.fss[0].WriteFile(path, sweepYAML); err != nil {
		return nil, err
	}
	return r, nil
}
