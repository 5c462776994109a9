// Package cas is the federated content-addressed cache tier: one
// SHA-256-addressed object pool shared by the stage cache, the artifact
// store and the peer-to-peer fetch path. Identical content — across
// configurations, sweeps and tenants — is stored once and found by its
// digest (the Collective Knowledge framing: reproducible experiments as
// a shared, reusable artifact ecosystem).
//
// The tier is built like the other hot layers of this repo: striped
// locks (a power-of-two shard array indexed by the leading hash bytes,
// the gasnet chunk-lock idiom), an intrusive LRU list per shard (the
// gassyfs block-cache idiom) so eviction bookkeeping never allocates,
// and a zero-alloc read path (View) enforced by allocation-bound tests
// like the store's clean-sync fast path.
//
// Eviction is size-bounded and pin-aware: objects a consumer is
// replaying from (a stage-cache hit mid-apply) are pinned and skipped
// by the evictor, so a view handed out under a pin can never be
// invalidated by a concurrent Put pushing the shard over budget.
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Ref names one immutable object by content digest plus size. The size
// rides along so cost models (peer-fetch vs recompute) and budget
// accounting never need to load the bytes.
type Ref struct {
	Hash [sha256.Size]byte
	Size int64
}

// Sum computes the Ref of a byte slice without storing it.
func Sum(data []byte) Ref {
	return Ref{Hash: sha256.Sum256(data), Size: int64(len(data))}
}

// Options configures a Tier.
type Options struct {
	// MaxBytes bounds resident object bytes; 0 means unbounded. The
	// bound is split evenly across shards and enforced per shard, so
	// the global ceiling is soft by at most one object per shard.
	MaxBytes int64
	// Shards is the lock-stripe count (rounded up to a power of two);
	// 0 means the default of 64.
	Shards int
}

const defaultShards = 64

// object is one resident blob plus its intrusive LRU links. prev/next
// are owned by the shard lock; data is immutable once inserted.
type object struct {
	hash [sha256.Size]byte
	data []byte
	pins int
	prev *object // toward MRU
	next *object // toward LRU
}

// shard is one lock stripe: a hash-keyed map plus an intrusive LRU
// list (head = most recent). All fields are guarded by mu.
type shard struct {
	mu      sync.Mutex
	objects map[[sha256.Size]byte]*object
	head    *object
	tail    *object
	bytes   int64

	hits         int64
	misses       int64
	added        int64 // objects inserted (first copy of content)
	bytesAdded   int64
	deduped      int64 // Puts satisfied by an existing object
	bytesDeduped int64
	evicted      int64
	bytesEvicted int64
	fallbackHits int64 // misses satisfied by the second-chance source
}

// Tier is the shared content-addressed cache. Safe for concurrent use.
type Tier struct {
	shards   []shard
	mask     uint32
	perShard int64 // byte budget per shard; 0 = unbounded

	fallbackMu sync.RWMutex
	fallback   func(hash [sha256.Size]byte) ([]byte, bool)
}

// SetFallback installs a second-chance source consulted when View or
// Pin miss — typically the artifact store's own object pool (loose
// .popper/objects plus packed extents): content the repository proves
// it holds is never worth recomputing just because the in-memory tier
// evicted it. Returned bytes are admitted only after verifying they
// hash to the requested address, so a corrupt or stale source can
// never poison the cache. Pass nil to remove the source.
func (t *Tier) SetFallback(fn func(hash [sha256.Size]byte) ([]byte, bool)) {
	t.fallbackMu.Lock()
	t.fallback = fn
	t.fallbackMu.Unlock()
}

// NewTier creates a tier. The zero Options value gives an unbounded
// 64-way tier.
func NewTier(opts Options) *Tier {
	n := opts.Shards
	if n <= 0 {
		n = defaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	t := &Tier{shards: make([]shard, p), mask: uint32(p - 1)}
	if opts.MaxBytes > 0 {
		t.perShard = opts.MaxBytes / int64(p)
		if t.perShard <= 0 {
			t.perShard = 1
		}
	}
	for i := range t.shards {
		t.shards[i].objects = make(map[[sha256.Size]byte]*object)
	}
	return t
}

// shardFor picks the stripe from the leading hash bytes. SHA-256
// output is uniform, so any four bytes index evenly.
func (t *Tier) shardFor(hash [sha256.Size]byte) *shard {
	return &t.shards[binary.BigEndian.Uint32(hash[:4])&t.mask]
}

// moveFront makes obj the shard's MRU. Caller holds s.mu.
func (s *shard) moveFront(obj *object) {
	if s.head == obj {
		return
	}
	s.unlink(obj)
	obj.next = s.head
	if s.head != nil {
		s.head.prev = obj
	}
	s.head = obj
	if s.tail == nil {
		s.tail = obj
	}
}

// unlink removes obj from the LRU list. Caller holds s.mu.
func (s *shard) unlink(obj *object) {
	if obj.prev != nil {
		obj.prev.next = obj.next
	} else if s.head == obj {
		s.head = obj.next
	}
	if obj.next != nil {
		obj.next.prev = obj.prev
	} else if s.tail == obj {
		s.tail = obj.prev
	}
	obj.prev, obj.next = nil, nil
}

// evictLocked trims the shard to its byte budget, walking from the LRU
// tail and skipping pinned objects and keep (the object just
// inserted — evicting what the caller is about to reference would make
// every over-budget Put a miss). Caller holds s.mu.
func (s *shard) evictLocked(budget int64, keep *object) {
	if budget <= 0 {
		return
	}
	victim := s.tail
	for s.bytes > budget && victim != nil {
		prev := victim.prev
		if victim.pins == 0 && victim != keep {
			s.unlink(victim)
			delete(s.objects, victim.hash)
			s.bytes -= int64(len(victim.data))
			s.evicted++
			s.bytesEvicted += int64(len(victim.data))
		}
		victim = prev
	}
}

// Put stores content and returns its Ref. The bytes are copied in, so
// the caller's buffer stays caller-owned. Storing content that is
// already resident is a dedup hit: no copy, the existing object is
// touched to MRU.
func (t *Tier) Put(data []byte) Ref {
	ref := Sum(data)
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	if obj, ok := s.objects[ref.Hash]; ok {
		s.deduped++
		s.bytesDeduped += int64(len(obj.data))
		s.moveFront(obj)
		s.mu.Unlock()
		return ref
	}
	obj := &object{hash: ref.Hash, data: append([]byte(nil), data...)}
	s.objects[ref.Hash] = obj
	s.bytes += int64(len(obj.data))
	s.added++
	s.bytesAdded += int64(len(obj.data))
	s.moveFront(obj)
	s.evictLocked(t.perShard, obj)
	s.mu.Unlock()
	return ref
}

// View returns the resident bytes of ref without copying. The slice is
// owned by the tier and must be treated as immutable; it stays valid
// even if the object is later evicted (eviction drops the tier's
// reference, the Go runtime keeps the bytes alive for outstanding
// views). Consumers that must replay a multi-object entry atomically
// against eviction should Pin first. The hit path is zero-alloc.
func (t *Tier) View(ref Ref) ([]byte, bool) {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	obj, ok := s.objects[ref.Hash]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return t.fromFallback(ref, false)
	}
	s.hits++
	s.moveFront(obj)
	data := obj.data
	s.mu.Unlock()
	return data, true
}

// fromFallback consults the second-chance source for a missed ref and
// admits the bytes after verifying the digest. With pin set the
// admitted object is pinned before the shard lock drops, so the
// caller's replay window is eviction-safe — exactly like a Pin that
// found the object resident.
func (t *Tier) fromFallback(ref Ref, pin bool) ([]byte, bool) {
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
	obj, resident := s.objects[ref.Hash]
	if !resident {
		// A concurrent Put may have raced the fallback read; admit only
		// the first copy.
		obj = &object{hash: ref.Hash, data: append([]byte(nil), data...)}
		s.objects[ref.Hash] = obj
		s.bytes += int64(len(obj.data))
		s.added++
		s.bytesAdded += int64(len(obj.data))
	}
	s.fallbackHits++
	if pin {
		obj.pins++
	}
	s.moveFront(obj)
	s.evictLocked(t.perShard, obj)
	data = obj.data
	s.mu.Unlock()
	return data, true
}

// Contains reports residency without touching LRU order or counters.
func (t *Tier) Contains(ref Ref) bool {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	_, ok := s.objects[ref.Hash]
	s.mu.Unlock()
	return ok
}

// Pin marks ref ineligible for eviction. Returns false (and pins
// nothing) if the object is not resident. Pins nest; each successful
// Pin needs one Unpin.
func (t *Tier) Pin(ref Ref) bool {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	obj, ok := s.objects[ref.Hash]
	if ok {
		obj.pins++
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	_, ok = t.fromFallback(ref, true)
	return ok
}

// Unpin releases one pin. Unpinning a non-resident or unpinned object
// is a no-op (the object may have been evicted between the caller's
// rollback bookkeeping and this call).
func (t *Tier) Unpin(ref Ref) {
	s := t.shardFor(ref.Hash)
	s.mu.Lock()
	if obj, ok := s.objects[ref.Hash]; ok && obj.pins > 0 {
		obj.pins--
	}
	s.mu.Unlock()
}

// Stats is a point-in-time aggregate across shards.
type Stats struct {
	Hits          int64 // View found the object
	Misses        int64 // View missed
	Objects       int64 // resident object count
	BytesResident int64 // resident object bytes
	BytesAdded    int64 // bytes copied in by first-time Puts
	BytesDeduped  int64 // bytes NOT copied because content was resident
	Evictions     int64 // objects evicted by the byte bound
	BytesEvicted  int64
	Pinned        int64 // currently pinned objects
	FallbackHits  int64 // misses satisfied by the second-chance source
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
		st.BytesResident += s.bytes
		st.BytesAdded += s.bytesAdded
		st.BytesDeduped += s.bytesDeduped
		st.Evictions += s.evicted
		st.BytesEvicted += s.bytesEvicted
		st.FallbackHits += s.fallbackHits
		for _, obj := range s.objects {
			if obj.pins > 0 {
				st.Pinned++
			}
		}
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

// Bytes returns the resident byte total.
func (t *Tier) Bytes() int64 {
	var b int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		b += s.bytes
		s.mu.Unlock()
	}
	return b
}
