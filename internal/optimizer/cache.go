package optimizer

import "sync"

// Cache is a bounded cache from a string key to a shared read-only value: one
// map, one CLOCK ring, one mutex. It knows nothing of staleness; a value that
// can go stale carries its own stamp (StampedPlan), and whoever reads it
// compares.
//
// The serving path holds one: the engine's statement cache (raw SQL → parsed
// statement and latest StampedPlan, whose epoch the engine compares and
// replaces in place). The instance behind Optimizer.Cache (StampedPlans by
// canonical statement text) is what tests and the benchmark's per-layer rows
// plan through; the engine builds its Optimizer without one.
//
// Every call takes the mutex. The server runs on one P (bench/pin.go), where
// the uncontended lock adds about 20 ns to a statement's tens of microseconds
// (DESIGN.md §15 measures it against the lock-free table it replaced).
// Recency is a CLOCK access bit per ring slot, set on hit; a full cache evicts
// the first slot the sweeping hand finds cold.
//
// Cached values are shared across callers and must be treated as immutable;
// every consumer in this repo only reads them.
type Cache[V any] struct {
	mu      sync.Mutex
	index   map[string]int // key → its slot in ring
	ring    []cacheSlot[V] // one slot per resident entry, at most cap
	cap     int
	hand    int
	evicted uint64
}

// cacheSlot is one resident entry and its CLOCK access bit.
type cacheSlot[V any] struct {
	key string
	val V
	ref bool
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

// NewPlanCache builds a plan cache bounded to capacity entries (see NewCache).
func NewPlanCache(capacity int) *PlanCache { return NewCache[StampedPlan](capacity) }

// NewCache builds a cache bounded to capacity entries. Capacity ≤ 0 selects
// the default of 256.
func NewCache[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 256
	}
	return &Cache[V]{cap: capacity, index: make(map[string]int, capacity), ring: make([]cacheSlot[V], 0, capacity)}
}

// Get returns the cached value for key when present and marks it recently
// used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	i, ok := c.index[key]
	if ok {
		c.ring[i].ref = true
		v = c.ring[i].val
	}
	c.mu.Unlock()
	return v, ok
}

// Put installs a value. A resident key keeps its slot and its access bit. A
// new key into a full cache evicts via CLOCK second-chance: the hand skips
// (and clears) slots whose access bit is set and takes the first cold one —
// the MoveToFront-free analogue of LRU eviction.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.ring[i].val = v
		return
	}
	if len(c.ring) < c.cap {
		c.index[key] = len(c.ring)
		c.ring = append(c.ring, cacheSlot[V]{key: key, val: v})
		return
	}
	// The sweep ends within two passes: the first clears every set bit.
	for c.ring[c.hand].ref {
		c.ring[c.hand].ref = false
		c.hand = (c.hand + 1) % len(c.ring)
	}
	delete(c.index, c.ring[c.hand].key)
	c.evicted++
	c.index[key] = c.hand
	c.ring[c.hand] = cacheSlot[V]{key: key, val: v}
	c.hand = (c.hand + 1) % len(c.ring)
}

// CacheStats is a point-in-time snapshot of a cache's occupancy. Hits and
// misses are verdicts of whoever compares the values' stamps, so they are
// counted there.
type CacheStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Evicted  uint64 `json:"evicted"`
}

// Stats reports the cache's occupancy.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Size: len(c.ring), Capacity: c.cap, Evicted: c.evicted}
}
