package optimizer

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a sharded, generation-stamped, bounded cache from a string key to a
// shared read-only value. Each entry records the generation it was stored at;
// a lookup whose current generation differs treats the entry as stale and
// evicts it. The stamp must never return to an earlier value, or a new lookup
// would match an old entry.
//
// The serving path holds one: the engine's statement cache (raw SQL → parsed
// statement and latest plan), at a generation that never moves — a parse
// cannot go stale, and the plan inside the entry carries its own
// Optimizer.Epoch stamp, compared and replaced in place by the engine. The
// instance behind Optimizer.Cache (finished plans by canonical statement
// text, stamped with Epoch, so every catalog, link and model change
// invalidates implicitly) is what tests and the benchmark's per-layer rows
// plan through; the engine builds its Optimizer without one.
//
// The warm hit path is contention-free: the key is hashed to one of up to
// cacheMaxShards shards, each shard indexes its entries in a fixed table
// of hash buckets whose chains are linked through atomic pointers, and
// recency is a CLOCK access bit (an atomic.Bool set on hit, checked first so
// repeated hits on a hot entry do not even dirty the cache line). No lock is
// taken and no shared list is mutated on a hit; the per-shard mutex
// serializes only inserts and stale evictions, each of which relinks one
// chain — O(1), however full the shard is. Stats is likewise lock-free
// (per-shard atomic counters), so admin/metrics scrapes never block lookups.
//
// Cached values are shared across callers and must be treated as immutable;
// every consumer in this repo only reads them.
type Cache[V any] struct {
	cap    int // total capacity across shards
	mask   uint64
	seed   maphash.Seed // bucket hash; shard choice stays deterministic
	shards []cacheShard[V]
}

// PlanCache is the cache of finished plans behind Optimizer.Cache.
type PlanCache = Cache[*Plan]

const (
	// cacheMaxShards bounds the shard fan-out. 16 shards is enough to
	// spread inserts across the core counts this repo targets while keeping
	// Stats cheap.
	cacheMaxShards = 16
	// cacheMinPerShard keeps shards from becoming so small that the
	// CLOCK ring degenerates to direct-mapped behaviour; small caches stay
	// single-sharded, which also preserves the exact whole-cache eviction
	// order the eviction tests pin.
	cacheMinPerShard = 16
)

// cacheShard is one independent slice of the cache. Counters are per-shard
// atomics summed by Stats; the trailing pad keeps one shard's hot counters
// off its neighbour's cache lines.
type cacheShard[V any] struct {
	// buckets is the read view: a power-of-two table of chain heads sized at
	// construction (about two buckets per entry at capacity), never resized.
	// Readers walk a chain with atomic loads only; writers hold mu and
	// publish every link with an atomic store. An unlinked entry keeps its
	// next pointer, so a reader standing on it still reaches the rest of the
	// chain, and an entry is never linked in twice.
	buckets []atomic.Pointer[cacheEntry[V]]
	size    atomic.Int64

	hits    atomic.Uint64
	misses  atomic.Uint64
	stale   atomic.Uint64
	evicted atomic.Uint64

	mu    sync.Mutex
	cap   int
	ring  []*cacheEntry[V] // CLOCK ring; holes (nil) left by stale eviction
	holes []int            // free ring slots
	hand  int

	_ [64]byte
}

// cacheEntry is immutable once published except for the CLOCK access bit and
// the chain link (both lock-free) and the ring slot index (guarded by the
// shard mutex). Put replaces an entry wholesale rather than mutating it in
// place, so readers always see a consistent (key, gen, value) triple.
type cacheEntry[V any] struct {
	key    string
	gen    uint64
	val    V
	bucket uint64
	slot   int
	ref    atomic.Bool
	next   atomic.Pointer[cacheEntry[V]]
}

// NewPlanCache builds a plan cache bounded to capacity entries (see NewCache).
func NewPlanCache(capacity int) *PlanCache { return NewCache[*Plan](capacity) }

// NewCache builds a cache bounded to capacity entries. Capacity ≤ 0
// selects the default of 256. The shard count is the largest power of two
// ≤ cacheMaxShards that still leaves every shard cacheMinPerShard
// entries, so tiny caches (and the eviction-order tests that exercise them)
// run single-sharded.
func NewCache[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 256
	}
	n := 1
	for n*2 <= cacheMaxShards && capacity/(n*2) >= cacheMinPerShard {
		n *= 2
	}
	c := &Cache[V]{cap: capacity, mask: uint64(n - 1), seed: maphash.MakeSeed(), shards: make([]cacheShard[V], n)}
	per := (capacity + n - 1) / n
	buckets := 1
	for buckets < 2*per {
		buckets *= 2
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = per
		sh.buckets = make([]atomic.Pointer[cacheEntry[V]], buckets)
	}
	return c
}

// shard maps a key to its shard. The hash only has to spread statements
// across ≤16 shards (a skewed spread costs eviction balance, never
// correctness), so instead of hashing the whole key it FNV-mixes the length
// with 16 bytes sampled at a stride — normalized SQL texts differ in table
// names, predicates, and limits scattered through the string, which the
// stride picks up at a fraction of a full-string hash's cost on the hit
// path.
func (c *Cache[V]) shard(key string) *cacheShard[V] {
	if c.mask == 0 {
		return &c.shards[0]
	}
	h := uint64(14695981039346656037) ^ uint64(len(key))
	step := len(key)/16 + 1
	for i := 0; i < len(key); i += step {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &c.shards[(h^h>>32)&c.mask]
}

// bucket maps a key to its chain within sh.
func (c *Cache[V]) bucket(sh *cacheShard[V], key string) uint64 {
	return maphash.String(c.seed, key) & uint64(len(sh.buckets)-1)
}

// find walks a chain for key.
func (sh *cacheShard[V]) find(bucket uint64, key string) *cacheEntry[V] {
	for e := sh.buckets[bucket].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			return e
		}
	}
	return nil
}

// Get returns the cached value for key when present and stored at the current
// generation. Stale entries are evicted on sight. The hit path performs no
// locking and no shared-structure mutation beyond (at most) one access-bit
// store.
func (c *Cache[V]) Get(key string, gen uint64) (v V, ok bool) {
	sh := c.shard(key)
	ent := sh.find(c.bucket(sh, key), key)
	if ent == nil {
		sh.misses.Add(1)
		return v, false
	}
	if ent.gen != gen {
		sh.dropStale(ent)
		sh.stale.Add(1)
		sh.misses.Add(1)
		return v, false
	}
	if !ent.ref.Load() { // check-then-set: hot entries stop dirtying the line
		ent.ref.Store(true)
	}
	sh.hits.Add(1)
	return ent.val, true
}

// relink replaces old in its chain by with (old's successor when with is
// nil), reporting whether old was still linked. Callers hold sh.mu.
func (sh *cacheShard[V]) relink(old, with *cacheEntry[V]) bool {
	link := &sh.buckets[old.bucket]
	for e := link.Load(); e != nil; e = link.Load() {
		if e == old {
			if with == nil {
				with = old.next.Load()
			} else {
				with.next.Store(old.next.Load())
			}
			link.Store(with)
			return true
		}
		link = &e.next
	}
	return false
}

// dropStale removes ent from the shard if it is still the published entry
// for its key. Racing callers may both observe the same stale entry; only
// the first removal mutates the shard, so counters stay exact per lookup.
func (sh *cacheShard[V]) dropStale(ent *cacheEntry[V]) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.relink(ent, nil) {
		return // already replaced or removed by a racing put/evict
	}
	sh.size.Add(-1)
	sh.ring[ent.slot] = nil
	sh.holes = append(sh.holes, ent.slot)
}

// Put installs a value stored at the given generation, evicting via CLOCK
// second-chance when the shard is full: the hand skips (and clears) entries
// whose access bit is set, evicting the first cold entry it finds — the
// MoveToFront-free analogue of LRU eviction.
func (c *Cache[V]) Put(key string, gen uint64, v V) {
	sh := c.shard(key)
	ne := &cacheEntry[V]{key: key, gen: gen, val: v, bucket: c.bucket(sh, key)}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old := sh.find(ne.bucket, key); old != nil {
		// Replace in place: reuse the ring slot, publish a fresh entry so
		// concurrent readers never see a half-updated (gen, value) pair.
		ne.slot = old.slot
		ne.ref.Store(old.ref.Load())
		sh.ring[old.slot] = ne
		sh.relink(old, ne)
		return
	}
	switch {
	case len(sh.holes) > 0:
		ne.slot = sh.holes[len(sh.holes)-1]
		sh.holes = sh.holes[:len(sh.holes)-1]
		sh.ring[ne.slot] = ne
	case len(sh.ring) < sh.cap:
		ne.slot = len(sh.ring)
		sh.ring = append(sh.ring, ne)
	default:
		// CLOCK sweep: terminates within two passes — the first pass clears
		// every set access bit, so the second pass must find a victim.
		for sh.ring[sh.hand].ref.Load() {
			sh.ring[sh.hand].ref.Store(false)
			sh.hand = (sh.hand + 1) % len(sh.ring)
		}
		sh.relink(sh.ring[sh.hand], nil)
		sh.size.Add(-1)
		sh.evicted.Add(1)
		ne.slot = sh.hand
		sh.ring[sh.hand] = ne
		sh.hand = (sh.hand + 1) % len(sh.ring)
	}
	head := &sh.buckets[ne.bucket]
	ne.next.Store(head.Load())
	head.Store(ne)
	sh.size.Add(1)
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Stale    uint64 `json:"stale"`
	Evicted  uint64 `json:"evicted"`
}

// Stats reports the cache counters. It is lock-free: sizes and counters are
// per-shard atomics, so scrapes never block the hot path. Concurrent mutation can skew Size by in-flight
// operations, but the counters themselves are exact (every lookup increments
// exactly one of hits/misses).
func (c *Cache[V]) Stats() CacheStats {
	s := CacheStats{Capacity: c.cap}
	for i := range c.shards {
		sh := &c.shards[i]
		s.Size += int(sh.size.Load())
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Stale += sh.stale.Load()
		s.Evicted += sh.evicted.Load()
	}
	return s
}
