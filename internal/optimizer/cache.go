package optimizer

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a bounded cache from a string key to a shared read-only value: one
// table, one insert mutex. It knows nothing of staleness; a value that can go
// stale carries its own stamp (StampedPlan), and whoever reads it compares.
//
// The serving path holds one: the engine's statement cache (raw SQL → parsed
// statement and latest StampedPlan, whose epoch the engine compares and
// replaces in place). The instance behind Optimizer.Cache (StampedPlans by
// canonical statement text) is what tests and the benchmark's per-layer rows
// plan through; the engine builds its Optimizer without one.
//
// The hit path takes no lock: entries sit in a fixed table of hash buckets
// whose chains are linked through atomic pointers, and recency is a CLOCK
// access bit (an atomic.Bool set on hit, checked first so repeated hits on a
// hot entry do not even dirty the cache line). The mutex serializes only
// inserts, each of which relinks at most two chains — O(1), however full the
// cache is. Stats reads atomics, so scrapes never block lookups.
//
// Cached values are shared across callers and must be treated as immutable;
// every consumer in this repo only reads them.
type Cache[V any] struct {
	cap  int
	seed maphash.Seed
	// buckets is the read view: a power-of-two table of chain heads sized at
	// construction (about two buckets per entry at capacity), never resized.
	// Readers walk a chain with atomic loads only; Put holds mu and publishes
	// every link with an atomic store. An unlinked entry keeps its next
	// pointer, so a reader standing on it still reaches the rest of the chain,
	// and an entry is never linked in twice.
	buckets []atomic.Pointer[cacheEntry[V]]
	size    atomic.Int64
	evicted atomic.Uint64

	mu   sync.Mutex
	ring []*cacheEntry[V] // CLOCK ring, one slot per resident entry
	hand int
}

// StampedPlan is a plan and the Epoch read before it was built. A lookup at
// another epoch re-plans and replaces the pair, so every catalog, link and
// model change invalidates implicitly and removes nothing; a plan built while
// the epoch moved is stale on its next lookup, which is why either of two
// racing re-plans may land.
type StampedPlan struct {
	Plan  *Plan
	Epoch uint64
}

// PlanCache is the cache of stamped plans behind Optimizer.Cache.
type PlanCache = Cache[StampedPlan]

// cacheEntry is immutable once published except for the CLOCK access bit and
// the chain link (both lock-free) and the ring slot index (guarded by the
// mutex). Put replaces an entry wholesale rather than mutating it in place, so
// readers always see a consistent (key, value) pair.
type cacheEntry[V any] struct {
	key    string
	val    V
	bucket uint64
	slot   int
	ref    atomic.Bool
	next   atomic.Pointer[cacheEntry[V]]
}

// NewPlanCache builds a plan cache bounded to capacity entries (see NewCache).
func NewPlanCache(capacity int) *PlanCache { return NewCache[StampedPlan](capacity) }

// NewCache builds a cache bounded to capacity entries. Capacity ≤ 0 selects
// the default of 256.
func NewCache[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 256
	}
	buckets := 1
	for buckets < 2*capacity {
		buckets *= 2
	}
	return &Cache[V]{cap: capacity, seed: maphash.MakeSeed(), buckets: make([]atomic.Pointer[cacheEntry[V]], buckets)}
}

// bucket maps a key to its chain.
func (c *Cache[V]) bucket(key string) uint64 {
	return maphash.String(c.seed, key) & uint64(len(c.buckets)-1)
}

// find walks a chain for key.
func (c *Cache[V]) find(bucket uint64, key string) *cacheEntry[V] {
	for e := c.buckets[bucket].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			return e
		}
	}
	return nil
}

// Get returns the cached value for key when present. It performs no locking
// and no shared-structure mutation beyond (at most) one access-bit store.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	ent := c.find(c.bucket(key), key)
	if ent == nil {
		return v, false
	}
	if !ent.ref.Load() { // check-then-set: hot entries stop dirtying the line
		ent.ref.Store(true)
	}
	return ent.val, true
}

// relink replaces old in its chain by with (old's successor when with is
// nil). Callers hold c.mu.
func (c *Cache[V]) relink(old, with *cacheEntry[V]) {
	link := &c.buckets[old.bucket]
	for e := link.Load(); e != nil; e = link.Load() {
		if e == old {
			if with == nil {
				with = old.next.Load()
			} else {
				with.next.Store(old.next.Load())
			}
			link.Store(with)
			return
		}
		link = &e.next
	}
}

// Put installs a value, evicting via CLOCK second-chance when the cache is
// full: the hand skips (and clears) entries whose access bit is set, evicting
// the first cold entry it finds — the MoveToFront-free analogue of LRU
// eviction.
func (c *Cache[V]) Put(key string, v V) {
	ne := &cacheEntry[V]{key: key, val: v, bucket: c.bucket(key)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.find(ne.bucket, key); old != nil {
		// Replace in place: reuse the ring slot, publish a fresh entry so
		// concurrent readers never see a half-updated value.
		ne.slot = old.slot
		ne.ref.Store(old.ref.Load())
		c.ring[old.slot] = ne
		c.relink(old, ne)
		return
	}
	if len(c.ring) < c.cap {
		ne.slot = len(c.ring)
		c.ring = append(c.ring, ne)
		c.size.Add(1)
	} else {
		// CLOCK sweep: terminates within two passes — the first pass clears
		// every set access bit, so the second pass must find a victim.
		for c.ring[c.hand].ref.Load() {
			c.ring[c.hand].ref.Store(false)
			c.hand = (c.hand + 1) % len(c.ring)
		}
		c.relink(c.ring[c.hand], nil)
		c.evicted.Add(1)
		ne.slot = c.hand
		c.ring[c.hand] = ne
		c.hand = (c.hand + 1) % len(c.ring)
	}
	head := &c.buckets[ne.bucket]
	ne.next.Store(head.Load())
	head.Store(ne)
}

// CacheStats is a point-in-time snapshot of a cache's occupancy. Hits and
// misses are verdicts of whoever compares the values' stamps, so they are
// counted there.
type CacheStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Evicted  uint64 `json:"evicted"`
}

// Stats reports the cache's occupancy without taking its lock.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{Size: int(c.size.Load()), Capacity: c.cap, Evicted: c.evicted.Load()}
}
