package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"paramra/internal/lang"
	"paramra/internal/obs"
)

// Verdict is the cacheable core of a verification result: everything a
// repeat request needs, and nothing tied to the run that produced it (no
// stats, no dependency graph). Witness steps and the class refer to the
// canonical form of the system, so hits and misses render identically.
type Verdict struct {
	Unsafe         bool             `json:"unsafe"`
	Complete       bool             `json:"complete"`
	Class          lang.SystemClass `json:"class"`
	Underapprox    bool             `json:"underapprox,omitempty"`
	EnvThreadBound int64            `json:"envThreadBound"`
	Witness        []string         `json:"witness,omitempty"`
	DecidedBy      string           `json:"decidedBy,omitempty"`
	PrepassReason  string           `json:"prepassReason,omitempty"`
}

// Outcome says how Do satisfied a request.
type Outcome uint8

const (
	// Miss: this caller ran its own compute.
	Miss Outcome = iota
	// Hit: served from the in-memory store (or read through from disk).
	Hit
	// Shared: another in-flight caller computed the verdict and this
	// caller received it without computing (single-flight).
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// Options configures New.
type Options struct {
	// MaxEntries caps the in-memory LRU (default 4096).
	MaxEntries int
	// Dir, when non-empty, enables the persistent on-disk layer: every
	// stored verdict is also written as a checksummed JSON file under Dir,
	// and in-memory misses read through it. Corrupt or truncated files are
	// detected, counted, removed, and treated as misses.
	Dir string
	// DiskMaxBytes caps the total size of the persistent layer. When a
	// store pushes the total over the cap, the least-recently-used entries
	// (file mtime, bumped on read-through) are removed until it fits. 0
	// selects the 256 MiB default; a negative value removes the bound.
	DiskMaxBytes int64
	// Metrics, when non-nil, registers paramra_cache_* counters.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Shared        int64
	Stores        int64
	Evictions     int64
	DiskHits      int64
	DiskCorrupt   int64
	DiskEvictions int64
	Entries       int
}

// Cache is a content-addressed verdict cache: an LRU in-memory store with
// single-flight computation and an optional checksummed disk layer. All
// methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
	disk    *diskStore

	hits, misses, shared, stores, evictions atomic.Int64
	diskHits, diskCorrupt, diskEvictions    atomic.Int64

	mHits, mMisses, mShared, mStores, mEvict *obs.Counter
	mDiskHits, mDiskCorrupt, mDiskEvict      *obs.Counter
	mEntries                                 *obs.Gauge
}

type lruEntry struct {
	key string
	v   Verdict
}

// flight is one in-progress computation. done is closed when the leader
// finishes; ok reports whether v carries a storable verdict.
type flight struct {
	done chan struct{}
	v    Verdict
	ok   bool
}

// New builds a cache. A nil *Cache is a valid "caching disabled" value for
// Options.Cache in paramra; New never returns nil.
func New(o Options) *Cache {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	c := &Cache{
		max:     o.MaxEntries,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
	if o.Dir != "" {
		c.disk = newDiskStore(o.Dir, o.DiskMaxBytes)
	}
	if m := o.Metrics; m != nil {
		c.mHits = m.Counter("paramra_cache_hits_total", "verdict-cache hits (memory or disk)")
		c.mMisses = m.Counter("paramra_cache_misses_total", "verdict-cache misses that ran a verification")
		c.mShared = m.Counter("paramra_cache_shared_total", "verdict-cache requests served by a concurrent in-flight computation")
		c.mStores = m.Counter("paramra_cache_stores_total", "verdicts stored into the cache")
		c.mEvict = m.Counter("paramra_cache_evictions_total", "verdicts evicted from the in-memory LRU")
		c.mDiskHits = m.Counter("paramra_cache_disk_hits_total", "verdict-cache hits read through from the persistent layer")
		c.mDiskCorrupt = m.Counter("paramra_cache_disk_corrupt_total", "persistent-cache entries rejected by checksum or decode failure")
		c.mDiskEvict = m.Counter("paramra_cache_disk_evictions_total", "persistent-cache entries removed by the size bound")
		c.mEntries = m.Gauge("paramra_cache_entries", "verdicts currently resident in the in-memory LRU")
	}
	return c
}

// Key combines the canonical system hash with the verdict-affecting options
// fingerprint into the final cache key.
func Key(canonicalHash, optionsFingerprint string) string {
	sum := sha256.Sum256([]byte(canonicalHash + "\x00" + optionsFingerprint))
	return hex.EncodeToString(sum[:])
}

// Do returns the verdict for key, computing it at most once across
// concurrent callers. compute reports (verdict, storable, err); the verdict
// is cached only when storable is true and err is nil. Waiters whose
// leader's computation turns out unstorable (error, incomplete) fall back
// to their own compute rather than caching a bad result or failing
// spuriously. A caller whose ctx ends while waiting gets ctx.Err() without
// computing.
func (c *Cache) Do(ctx context.Context, key string, compute func() (Verdict, bool, error)) (Verdict, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*lruEntry).v
		c.mu.Unlock()
		c.countHit()
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return Verdict{}, Miss, ctx.Err()
		case <-f.done:
		}
		if f.ok {
			c.shared.Add(1)
			inc(c.mShared)
			return f.v, Shared, nil
		}
		// The leader failed or produced an unstorable verdict; compute
		// independently (correctness over dedup — the leader's error may
		// have been its own budget, not a property of the system).
		return c.computeAndStore(key, nil, compute)
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	if c.disk != nil {
		if v, ok, corrupt := c.disk.get(key); corrupt {
			c.diskCorrupt.Add(1)
			inc(c.mDiskCorrupt)
		} else if ok {
			c.diskHits.Add(1)
			c.hits.Add(1)
			inc(c.mDiskHits)
			inc(c.mHits)
			c.putMemory(key, v)
			f.v, f.ok = v, true
			c.endFlight(key, f)
			return v, Hit, nil
		}
	}
	return c.computeAndStore(key, f, compute)
}

// computeAndStore runs compute, stores a storable verdict, and (when f is
// non-nil) resolves the flight so waiters wake even if compute panics.
func (c *Cache) computeAndStore(key string, f *flight, compute func() (Verdict, bool, error)) (v Verdict, _ Outcome, err error) {
	c.misses.Add(1)
	inc(c.mMisses)
	if f != nil {
		defer func() { c.endFlight(key, f) }()
	}
	var storable bool
	v, storable, err = compute()
	if err == nil && storable {
		c.Put(key, v)
		if f != nil {
			f.v, f.ok = v, true
		}
	}
	return v, Miss, err
}

func (c *Cache) endFlight(key string, f *flight) {
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	close(f.done)
}

// Get looks key up in memory, then on disk, without computing. It does not
// touch the hit/miss counters (it exists for tests and introspection).
func (c *Cache) Get(key string) (Verdict, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*lruEntry).v
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	if c.disk != nil {
		if v, ok, corrupt := c.disk.get(key); corrupt {
			c.diskCorrupt.Add(1)
			inc(c.mDiskCorrupt)
		} else if ok {
			c.putMemory(key, v)
			return v, true
		}
	}
	return Verdict{}, false
}

// Put stores a verdict under key in memory and, when configured, on disk.
func (c *Cache) Put(key string, v Verdict) {
	c.stores.Add(1)
	inc(c.mStores)
	c.putMemory(key, v)
	if c.disk != nil {
		if n := c.disk.put(key, v); n > 0 {
			c.diskEvictions.Add(int64(n))
			if c.mDiskEvict != nil {
				c.mDiskEvict.Add(int64(n))
			}
		}
	}
}

func (c *Cache) putMemory(key string, v Verdict) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).v = v
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, v: v})
		for c.ll.Len() > c.max {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*lruEntry).key)
			c.evictions.Add(1)
			inc(c.mEvict)
		}
	}
	if c.mEntries != nil {
		c.mEntries.Set(int64(len(c.items)))
	}
	c.mu.Unlock()
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Stores:        c.stores.Load(),
		Evictions:     c.evictions.Load(),
		DiskHits:      c.diskHits.Load(),
		DiskCorrupt:   c.diskCorrupt.Load(),
		DiskEvictions: c.diskEvictions.Load(),
		Entries:       c.Len(),
	}
}

func (c *Cache) countHit() {
	c.hits.Add(1)
	inc(c.mHits)
}

func inc(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}
