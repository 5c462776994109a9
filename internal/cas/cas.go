// Package cas is the federated content-addressed cache tier: one
// SHA-256-addressed object pool shared by the stage cache, the artifact
// store and the peer-to-peer fetch path. Identical content — across
// configurations, sweeps and tenants — is stored once and found by its
// digest (the Collective Knowledge framing: reproducible experiments as
// a shared, reusable artifact ecosystem).
//
// The tier is built like the other hot layers of this repo: striped
// locks (a power-of-two shard array indexed by the leading hash byte,
// the gasnet chunk-lock idiom) and a zero-alloc read path (View)
// enforced by allocation-bound tests like the store's clean-sync fast
// path.
//
// The tier never drops an object it admitted, so a view handed out
// stays valid and an entry recorded over admitted chunks stays
// replayable for the tier's lifetime.
package cas

import (
	"crypto/sha256"
	"sync"
)

// Ref names one immutable object by content digest plus size. The size
// rides along so cost models (peer-fetch vs recompute) and byte
// accounting never need to load the bytes.
type Ref struct {
	Hash [sha256.Size]byte
	Size int64
}

// Sum computes the Ref of a byte slice without storing it.
func Sum(data []byte) Ref {
	return Ref{Hash: sha256.Sum256(data), Size: int64(len(data))}
}

// tierShards is the lock-stripe count, a power of two so shard
// selection is a mask.
const tierShards = 64

// shard is one lock stripe: a hash-keyed map of resident bytes. The
// bytes are immutable once inserted; all fields are guarded by mu.
type shard struct {
	mu      sync.Mutex
	objects map[[sha256.Size]byte][]byte

	hits         int64
	misses       int64
	bytesAdded   int64 // bytes inserted (first copy of content)
	bytesDeduped int64 // bytes of Puts satisfied by an existing object
	fallbackHits int64 // misses satisfied by the second-chance source
}

// admitLocked stores a private copy of data under hash and returns it.
// Caller holds s.mu and has checked the hash is not resident.
func (s *shard) admitLocked(hash [sha256.Size]byte, data []byte) []byte {
	own := append([]byte(nil), data...)
	s.objects[hash] = own
	s.bytesAdded += int64(len(own))
	return own
}

// Tier is the shared content-addressed cache. Safe for concurrent use.
type Tier struct {
	shards [tierShards]shard

	fallbackMu sync.RWMutex
	fallback   func(hash [sha256.Size]byte) ([]byte, bool)
}

// SetFallback installs a second-chance source consulted when View
// misses — typically the artifact store's own object pool (loose
// .popper/objects plus packed extents), so content the repository
// proves it holds is found without recomputing it. Returned bytes are
// admitted only after verifying they hash to the requested address, so
// a corrupt or stale source can never poison the cache. Pass nil to
// remove the source.
func (t *Tier) SetFallback(fn func(hash [sha256.Size]byte) ([]byte, bool)) {
	t.fallbackMu.Lock()
	t.fallback = fn
	t.fallbackMu.Unlock()
}

// NewTier creates an empty tier.
func NewTier() *Tier {
	t := &Tier{}
	for i := range t.shards {
		t.shards[i].objects = make(map[[sha256.Size]byte][]byte)
	}
	return t
}

// shardFor picks the stripe from the leading hash byte. SHA-256 output
// is uniform, so any byte indexes evenly.
func (t *Tier) shardFor(hash [sha256.Size]byte) *shard {
	return &t.shards[hash[0]&(tierShards-1)]
}

// Put stores content and returns its Ref. The bytes are copied in, so
// the caller's buffer stays caller-owned. Storing content that is
// already resident is a dedup hit: no copy.
func (t *Tier) Put(data []byte) Ref {
	ref := Sum(data)
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	if _, ok := s.objects[ref.Hash]; ok {
		s.bytesDeduped += ref.Size
	} else {
		s.admitLocked(ref.Hash, data)
	}
	s.mu.Unlock()
	return ref
}

// View returns the resident bytes of ref without copying. The slice is
// owned by the tier and must be treated as immutable. The hit path is
// zero-alloc.
func (t *Tier) View(ref Ref) ([]byte, bool) {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	data, ok := s.objects[ref.Hash]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return t.fromFallback(ref)
	}
	s.hits++
	s.mu.Unlock()
	return data, true
}

// fromFallback consults the second-chance source for a missed ref and
// admits the bytes after verifying the digest.
func (t *Tier) fromFallback(ref Ref) ([]byte, bool) {
	t.fallbackMu.RLock()
	fn := t.fallback
	t.fallbackMu.RUnlock()
	if fn == nil {
		return nil, false
	}
	data, ok := fn(ref.Hash)
	if !ok || int64(len(data)) != ref.Size || sha256.Sum256(data) != ref.Hash {
		return nil, false
	}
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	resident, ok := s.objects[ref.Hash]
	if !ok {
		// A concurrent Put may have raced the fallback read; admit only
		// the first copy.
		resident = s.admitLocked(ref.Hash, data)
	}
	s.fallbackHits++
	s.mu.Unlock()
	return resident, true
}

// Contains reports residency without touching the counters.
func (t *Tier) Contains(ref Ref) bool {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	_, ok := s.objects[ref.Hash]
	s.mu.Unlock()
	return ok
}

// Stats is a point-in-time aggregate across shards.
type Stats struct {
	Hits         int64 // View found the object
	Misses       int64 // View missed
	Objects      int64 // resident object count
	BytesAdded   int64 // bytes copied in by first-time Puts, all still resident
	BytesDeduped int64 // bytes NOT copied because content was resident
	FallbackHits int64 // misses satisfied by the second-chance source
}

// Stats sums the per-shard counters.
func (t *Tier) Stats() Stats {
	var st Stats
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Objects += int64(len(s.objects))
		st.BytesAdded += s.bytesAdded
		st.BytesDeduped += s.bytesDeduped
		st.FallbackHits += s.fallbackHits
		s.mu.Unlock()
	}
	return st
}

// Len returns the resident object count.
func (t *Tier) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.objects)
		s.mu.Unlock()
	}
	return n
}
