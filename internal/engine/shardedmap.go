// Package engine is the shared parallel state-space exploration engine
// behind both the simplified-semantics fixpoint (internal/simplified) and
// the concrete RA instance explorer (internal/ra).
//
// It offers two drivers:
//
//   - Explore: a free-order batched frontier with work sharing between N
//     goroutines over a sharded, lock-striped canonical-state hash set.
//     Verdicts are deterministic (a violation is found iff one is
//     reachable) and the first violation reported wins, after which the
//     workers drain; witness paths may differ between runs.
//   - Layered: a deterministic batched-BFS driver. Each frontier layer is
//     expanded in parallel, but expansion results are committed strictly in
//     frontier order, so verdicts, witnesses, and all order-sensitive
//     bookkeeping are bit-identical for every worker count. Its visited set
//     is a plain map: the sequential commit is its only writer. Expansion
//     results go to one output slot per frontier position, reused from
//     layer to layer.
//
// Both own their workers: each worker gets one caller-made scratch value for
// the run, handed to every expansion it runs. Both honor context
// cancellation and deadlines, cap the number of admitted states, merge
// per-worker statistics, and report progress via an optional callback.
// Each, the worker loop under Layered, and Tick, the drivers' progress
// ticker, also serve callers that only need independent items evaluated in
// parallel.
package engine

import (
	"sync"
)

// shardCount is the number of lock stripes in a sharded map. Must be a
// power of two. 64 stripes keep contention negligible for dozens of
// workers while staying cache-friendly.
const shardCount = 64

// fnv1a hashes a key for shard selection (FNV-1a, 32-bit, over the key's
// length and its last hashWindow bytes). Shard choice only affects stripe
// balance, never semantics, so hashing a bounded window keeps the per-probe
// cost flat in the key length; the suffix is the high-entropy end of state
// keys (env fingerprints, view sections). The generic constraint lets string
// and []byte keys hash identically, so the byte-key fast paths land in the
// same shard as their interned string twins.
func fnv1a[T ~string | ~[]byte](s T) uint32 {
	const hashWindow = 24
	h := uint32(2166136261)
	h ^= uint32(len(s))
	h *= 16777619
	i := 0
	if len(s) > hashWindow {
		i = len(s) - hashWindow
	}
	for ; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]V
	_  [40]byte // pad to a cache line to avoid false sharing between stripes
}

// ShardedMap is a lock-striped hash map from canonical state keys to
// caller-defined values (e.g. predecessor edges for witness
// reconstruction). TryPut is the dedup primitive: it inserts the key iff it
// is absent and reports whether it did.
type ShardedMap[V any] struct {
	shards [shardCount]shard[V]
}

// NewShardedMap returns an empty map.
func NewShardedMap[V any]() *ShardedMap[V] {
	sm := &ShardedMap[V]{}
	for i := range sm.shards {
		sm.shards[i].m = make(map[string]V)
	}
	return sm
}

func (sm *ShardedMap[V]) shardFor(key string) *shard[V] {
	return &sm.shards[fnv1a(key)&(shardCount-1)]
}

// TryPut inserts (key, val) iff key is absent; it reports whether the key
// was new. Safe for concurrent use.
func (sm *ShardedMap[V]) TryPut(key string, val V) bool {
	s := sm.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return false
	}
	s.m[key] = val
	return true
}

// Get returns the value stored under key.
func (sm *ShardedMap[V]) Get(key string) (V, bool) {
	s := sm.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// HasBytes reports whether key is present, without converting it to a
// string (the map lookup by string(key) compiles to an allocation-free
// probe). Because the map is grow-only, a true answer is stable; a false
// answer may race with a concurrent insert and callers must re-check via
// TryPut before admitting.
func (sm *ShardedMap[V]) HasBytes(key []byte) bool {
	s := &sm.shards[fnv1a(key)&(shardCount-1)]
	s.mu.Lock()
	_, ok := s.m[string(key)]
	s.mu.Unlock()
	return ok
}

// Len returns the number of keys across all shards.
func (sm *ShardedMap[V]) Len() int {
	n := 0
	for i := range sm.shards {
		sm.shards[i].mu.Lock()
		n += len(sm.shards[i].m)
		sm.shards[i].mu.Unlock()
	}
	return n
}

// ShardStats reports occupancy balance for observability: the size of the
// largest shard and the number of non-empty shards. A max far above
// len/shardCount (with many empty shards) indicates key-hash skew.
func (sm *ShardedMap[V]) ShardStats() (maxLen, nonEmpty int) {
	for i := range sm.shards {
		sm.shards[i].mu.Lock()
		n := len(sm.shards[i].m)
		sm.shards[i].mu.Unlock()
		if n > maxLen {
			maxLen = n
		}
		if n > 0 {
			nonEmpty++
		}
	}
	return maxLen, nonEmpty
}
