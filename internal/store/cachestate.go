package store

// The stage-cache sidecar: a single advisory file under .popper holding
// the pipeline cache's serialized entry index (a cas extent image, see
// pipeline.SaveState). It lives outside the manifest on purpose — its
// content is execution-history-dependent (hit counters aside, which
// entries exist depends on what ran), so tracking it would make
// otherwise byte-identical repositories diverge. Sync and gc never
// touch it; fsck verifies it is an intact extent and lets --repair
// remove a damaged one. Loading hands over the bytes as stored: the
// pipeline parses them and alone decides whether they warm the cache or
// it starts cold, which is always correct.
//
// The store remembers the bytes it last read from or wrote to the
// sidecar, so saving an unchanged image writes nothing; any other write,
// rename or remove of the sidecar (a repair removing a damaged one)
// makes it forget them. Rot that strikes the sidecar at rest in between
// is left in place, which costs the next process a cold start.

import "bytes"

// CacheStatePath is where the stage-cache sidecar lives.
const CacheStatePath = popperDir + "/cache.extent"

// SaveCacheState durably writes the sidecar with the store's atomic
// write protocol (temp → fsync → rename → dir fsync), unless it already
// holds exactly data as this store last read or wrote it. Empty data
// removes the sidecar instead — an empty cache warms nothing. The store
// keeps data, so the caller must not modify it afterwards.
func (s *Store) SaveCacheState(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if len(data) == 0 {
		if err := s.remove(CacheStatePath); err != nil {
			return err
		}
		return s.syncDir(popperDir)
	}
	if s.sidecar != nil && bytes.Equal(s.sidecar, data) {
		return nil
	}
	if err := s.writeFileAtomic(CacheStatePath, data); err != nil {
		return err
	}
	s.sidecar = data
	return nil
}

// LoadCacheState returns the sidecar bytes as stored, or nil when it is
// absent; it does not check them (pipeline.RestoreState does). The
// store keeps the bytes it returns, so the caller must not modify them.
func (s *Store) LoadCacheState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := s.read(CacheStatePath)
	if err != nil {
		return nil
	}
	s.sidecar = raw
	return raw
}
