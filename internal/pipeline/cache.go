package pipeline

import (
	"bytes"
	"crypto/sha256"
	"hash"
	"sort"
	"sync"
	"sync/atomic"

	"popper/internal/cas"
	"popper/internal/metrics"
)

// Cache is a content-addressed store of stage executions — the memoized
// half of the paper's run → fix → re-parameterize → re-run loop. A
// stage's key is the SHA-256 digest of everything that may influence
// its behavior: the stage name, its declared code identity, the
// parameters it depends on, the (filtered) workspace it reads, and the
// pipeline's cache salt. The stored value is the workspace delta the
// stage produced plus its log output, so an unchanged stage is replayed
// byte-identically without re-executing.
//
// Entry *content* lives in a shared cas.Tier: every workspace file and
// log is chunked by SHA-256, so identical outputs across
// configurations, sweeps, and tenants are stored once. The Cache itself
// holds only metadata — path names and chunk refs — sharded across
// striped locks so concurrent sweep workers looking up and storing
// entries never serialize on one mutex. Optionally a cas.Federation is attached (Federate): hits then
// also consult the per-host index and charge a peer transfer to the
// simulated host's virtual clock when the entry's bytes live elsewhere.
//
// A Cache is safe for concurrent use; a parallel sweep shares one cache
// across all of its workers. Entries assume stages are deterministic
// functions of their key material: stages that read state outside the
// filtered workspace (clocks, RNGs not derived from params/salt,
// external stores) must not be marked cacheable.
type Cache struct {
	tier *cas.Tier
	fed  *cas.Federation // optional; set before concurrent use

	// fedRetired accumulates the counters of federations detached by
	// later Federate calls (each sweep attaches a fresh fleet), so a
	// cache shared across sweeps reports cumulative peer traffic.
	fedRetired cas.FedStats

	// warm counts entries restored from CacheOptions.State at
	// construction (diagnostics only; set before concurrent use).
	warm int
	// image is the CacheOptions.State the cache restored in full;
	// SaveState returns it while changes stands at imageChanges.
	image        []byte
	imageChanges int64
	// changes counts entries added.
	changes atomic.Int64

	shards [cacheShards]cacheShard
}

// cacheShards is the lock-stripe count of the entry map. 64 stripes
// keep -jobs 16..64 sweep workers contention-free (see
// BenchmarkCacheContention).
const cacheShards = 64

type cacheShard struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*stageEntry
	hits    int64
	misses  int64
}

// pathDelta is one workspace path a stage wrote, with its content as
// tier chunk refs.
type pathDelta struct {
	path string
	size int64
	refs []cas.Ref
}

// stageEntry is the replayable outcome of one stage execution: the
// workspace paths it wrote (as chunk refs into the tier), the paths it
// removed, and its log output (chunked too, so overlapping logs dedup).
type stageEntry struct {
	set     []pathDelta // sorted by path
	del     []string    // sorted
	logRefs []cas.Ref
	logLen  int64
}

// cacheEntry is the raw in-memory delta a stage produced, before it is
// chunked into the tier (diffWorkspace's output).
type cacheEntry struct {
	set map[string][]byte
	del []string
	log string
}

// CacheOptions configures a new cache.
type CacheOptions struct {
	// State is a previously SaveState-serialized entry index. A
	// non-empty value warm-starts the cache: entries and their chunks
	// are restored before the first lookup, so a second process replays
	// stages the first one executed. Damaged state is ignored (cold
	// start) — the sidecar is advisory, never authoritative.
	State []byte
}

// NewCache creates an empty stage cache.
func NewCache() *Cache { return NewCacheOpts(CacheOptions{}) }

// NewCacheOpts creates a stage cache, warm-started from opts.State.
func NewCacheOpts(opts CacheOptions) *Cache {
	c := &Cache{tier: cas.NewTier()}
	for i := range c.shards {
		c.shards[i].entries = make(map[[sha256.Size]byte]*stageEntry)
	}
	if len(opts.State) > 0 {
		var err error
		if c.warm, err = c.RestoreState(opts.State); err == nil && c.warm > 0 {
			c.image, c.imageChanges = opts.State, c.changes.Load()
		}
	}
	return c
}

// WarmEntries reports how many entries NewCacheOpts restored from
// CacheOptions.State (0 after a cold start).
func (c *Cache) WarmEntries() int { return c.warm }

// Tier exposes the backing content-addressed tier (shared with the
// artifact store and the federation).
func (c *Cache) Tier() *cas.Tier { return c.tier }

// Federate attaches a peer-to-peer federation: stage hits will consult
// the per-host index and account peer transfers on the simulated
// hosts' virtual clocks, and stores will publish entries to the
// executing host. Attach before the cache is shared across goroutines.
// Re-federating (each sweep brings its own fleet) retires the previous
// federation's counters into the cache so Stats stays cumulative.
func (c *Cache) Federate(f *cas.Federation) {
	if c.fed != nil {
		fs := c.fed.Stats()
		c.fedRetired.Publishes += fs.Publishes
		c.fedRetired.LocalHits += fs.LocalHits
		c.fedRetired.RemoteFetches += fs.RemoteFetches
		c.fedRetired.Misses += fs.Misses
		c.fedRetired.RemoteBytes += fs.RemoteBytes
		c.fedRetired.FetchSeconds += fs.FetchSeconds
	}
	c.fed = f
}

// Federated reports whether a federation is attached.
func (c *Cache) Federated() bool { return c.fed != nil }

// CacheStats aggregates the cache's counters: entry hit/miss, the
// backing tier's dedup accounting, and the federation's
// peer-fetch counters (zero when not federated).
type CacheStats struct {
	Hits    int64 // stage lookups replayed from cache
	Misses  int64 // stage lookups that had to execute
	Entries int64 // live stage entries

	Objects      int64 // resident tier objects (chunks)
	BytesAdded   int64 // bytes stored (first copy); the tier drops none
	BytesDeduped int64 // bytes NOT stored because content was resident

	LocalPeerHits int64   // federated hits served by the host's own copy
	RemoteFetches int64   // federated hits transferred from a peer
	RemoteBytes   int64   // bytes moved over the peer fetch path
	FetchSeconds  float64 // virtual seconds spent in peer transfers
}

// Stats returns a point-in-time aggregate.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	ts := c.tier.Stats()
	st.Objects = ts.Objects
	st.BytesAdded = ts.BytesAdded
	st.BytesDeduped = ts.BytesDeduped
	st.LocalPeerHits = c.fedRetired.LocalHits
	st.RemoteFetches = c.fedRetired.RemoteFetches
	st.RemoteBytes = c.fedRetired.RemoteBytes
	st.FetchSeconds = c.fedRetired.FetchSeconds
	if c.fed != nil {
		fs := c.fed.Stats()
		st.LocalPeerHits += fs.LocalHits
		st.RemoteFetches += fs.RemoteFetches
		st.RemoteBytes += fs.RemoteBytes
		st.FetchSeconds += fs.FetchSeconds
	}
	return st
}

// Record publishes the cache counters into a metrics registry as
// cache_* gauges, so a report can chart the tier alongside the other
// runtime metrics. Pipeline.Run does not call it: a core run records
// into its registry only when RunOptions.RecordMetrics is set, the
// registry's one reader.
func (c *Cache) Record(reg *metrics.Registry) {
	st := c.Stats()
	reg.Set("cache_hits", float64(st.Hits))
	reg.Set("cache_misses", float64(st.Misses))
	reg.Set("cache_entries", float64(st.Entries))
	reg.Set("cache_bytes_added", float64(st.BytesAdded))
	reg.Set("cache_bytes_deduped", float64(st.BytesDeduped))
	reg.Set("cache_remote_fetches", float64(st.RemoteFetches))
	reg.Set("cache_remote_bytes", float64(st.RemoteBytes))
	reg.Set("cache_fetch_vseconds", st.FetchSeconds)
}

// Len returns the number of stored stage outcomes.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// shardFor stripes the entry map by the leading key bytes (the key is
// a SHA-256 digest, so any byte indexes uniformly).
func (c *Cache) shardFor(key [sha256.Size]byte) *cacheShard {
	return &c.shards[key[0]&(cacheShards-1)]
}

// lookup fetches an entry and bumps the hit/miss counters. An entry is
// recorded only after its chunks are admitted to the tier, and the tier
// never drops a chunk, so a hit is always replayable.
//
// host is the simulated host performing the lookup (federated
// accounting); pass a negative host to skip federation entirely.
func (c *Cache) lookup(key [sha256.Size]byte, host int) (*stageEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	ent, ok := s.entries[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if c.fed != nil && host >= 0 {
		// Locate the bytes in the federation: free if this host holds
		// them, a virtual-clock-accounted gasnet transfer from the
		// cheapest peer otherwise. Content is unaffected either way
		// (the determinism argument in docs/CACHE.md), so transfer
		// errors — injected partitions included — degrade to a plain
		// local replay rather than failing the stage.
		_, _ = c.fed.Fetch(host, key)
	}
	return ent, true
}

// chunkLost reports a replay that found a chunk missing, which the
// cache's invariant rules out: entries are recorded only over admitted
// chunks, and the tier never drops one.
const chunkLost = "pipeline: cache entry names a chunk the tier does not hold (entries are recorded only over admitted chunks, and the tier drops none)"

// replay applies the entry's workspace delta and returns its log text.
// Single-chunk paths are applied zero-copy: the workspace aliases
// tier-owned bytes, which is safe because stages replace workspace
// entries rather than mutating them in place (the Context contract) and
// the tier never mutates or drops a chunk.
func (c *Cache) replay(ent *stageEntry, ws map[string][]byte) string {
	for _, d := range ent.set {
		if len(d.refs) == 1 {
			data, ok := c.tier.View(d.refs[0])
			if !ok {
				panic(chunkLost)
			}
			ws[d.path] = data
			continue
		}
		buf := make([]byte, 0, d.size)
		for _, ref := range d.refs {
			data, ok := c.tier.View(ref)
			if !ok {
				panic(chunkLost)
			}
			buf = append(buf, data...)
		}
		ws[d.path] = buf
	}
	for _, p := range ent.del {
		delete(ws, p)
	}
	if ent.logLen == 0 {
		return ""
	}
	if len(ent.logRefs) == 1 {
		data, ok := c.tier.View(ent.logRefs[0])
		if !ok {
			panic(chunkLost)
		}
		return string(data)
	}
	buf := make([]byte, 0, ent.logLen)
	for _, ref := range ent.logRefs {
		data, ok := c.tier.View(ref)
		if !ok {
			panic(chunkLost)
		}
		buf = append(buf, data...)
	}
	return string(buf)
}

// store chunks a stage outcome into the tier and records the entry.
// When federated, the entry is published to the executing host so
// peers can fetch it instead of recomputing.
func (c *Cache) store(key [sha256.Size]byte, ent cacheEntry, host int) {
	paths := make([]string, 0, len(ent.set))
	for p := range ent.set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	se := &stageEntry{del: ent.del, logLen: int64(len(ent.log))}
	var flat []cas.Ref
	for _, p := range paths {
		content := ent.set[p]
		refs := c.tier.PutChunked(content)
		se.set = append(se.set, pathDelta{path: p, size: int64(len(content)), refs: refs})
		flat = append(flat, refs...)
	}
	se.logRefs = c.tier.PutChunked([]byte(ent.log))
	flat = append(flat, se.logRefs...)

	s := c.shardFor(key)
	s.mu.Lock()
	s.entries[key] = se
	s.mu.Unlock()
	c.changes.Add(1)

	if c.fed != nil && host >= 0 {
		// Best-effort: a failed publish (segment full) just means peers
		// recompute instead of fetching.
		_ = c.fed.Publish(host, key, flat)
	}
}

// snapshotRefs captures the workspace as a path -> content reference
// map. Stages replace entries rather than mutating content in place
// (that contract is documented on Context.Workspace), so references
// suffice for diffing.
func snapshotRefs(ws map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(ws))
	for p, b := range ws {
		out[p] = b
	}
	return out
}

// diffWorkspace computes the delta a stage produced: paths added or
// changed (with their new content) and paths deleted.
func diffWorkspace(before, after map[string][]byte) cacheEntry {
	ent := cacheEntry{set: make(map[string][]byte)}
	for p, b := range after {
		if old, ok := before[p]; !ok || !bytes.Equal(old, b) {
			ent.set[p] = b
		}
	}
	for p := range before {
		if _, ok := after[p]; !ok {
			ent.del = append(ent.del, p)
		}
	}
	sort.Strings(ent.del)
	return ent
}

// stageKeys carries what one pipeline run's stage keys share: the
// sorted list of workspace paths the cache filter admits, the
// parameter names, and one scratch buffer every string is staged in.
// The path list is made at the first key and made again only once
// listed is cleared — after a stage executes, or after a replay sets or
// deletes an admitted path — so a key's bytes are exactly those of
// listing the workspace afresh.
type stageKeys struct {
	paths  []string
	listed bool
	params []string
	buf    []byte
	h      hash.Hash
}

// replayMovesKeyPaths reports whether replaying ent sets or deletes a
// path the cache filter admits, which may change the key path list.
func (p *Pipeline) replayMovesKeyPaths(ent *stageEntry) bool {
	for _, d := range ent.set {
		if p.CacheFilter == nil || p.CacheFilter(d.path) {
			return true
		}
	}
	for _, path := range ent.del {
		if p.CacheFilter == nil || p.CacheFilter(path) {
			return true
		}
	}
	return false
}

// cacheKey digests everything that may influence a cacheable stage:
// each string NUL-terminated, then every admitted workspace path with
// its content in path order.
func (p *Pipeline) cacheKey(stage, id string, ctx *Context, k *stageKeys) [sha256.Size]byte {
	if k.h == nil {
		k.h = sha256.New()
	}
	h := k.h
	h.Reset()
	buf := k.buf[:0]
	put := func(s string) { buf = append(append(buf, s...), 0) }
	put("popper-stage-cache/v1")
	put(p.CacheSalt)
	put(stage)
	put(id)

	// Parameter material: the stage's declared dependencies, or every
	// parameter when none were declared (nil deps).
	deps := p.cacheDeps[stage]
	keys := k.params[:0]
	if deps == nil {
		for name := range ctx.Params {
			keys = append(keys, name)
		}
	} else {
		keys = append(keys, deps...)
	}
	sort.Strings(keys)
	k.params = keys
	put("params")
	for _, name := range keys {
		v, ok := ctx.Params[name]
		put(name)
		if ok {
			put(v)
		} else {
			put("\x01absent")
		}
	}

	// Workspace material: every path the filter admits, with content.
	put("workspace")
	h.Write(buf)
	if !k.listed {
		k.paths = k.paths[:0]
		for path := range ctx.Workspace {
			if p.CacheFilter == nil || p.CacheFilter(path) {
				k.paths = append(k.paths, path)
			}
		}
		sort.Strings(k.paths)
		k.listed = true
	}
	for _, path := range k.paths {
		buf = writeEntry(h, buf, path, ctx.Workspace[path])
	}
	k.buf = buf
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
