package optimizer

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/remote"
	"intellisphere/internal/sqlparse"
)

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	pa, pb, pc := &Plan{}, &Plan{}, &Plan{}
	c.Put("a", 1, pa)
	c.Put("b", 1, pb)
	// Touch "a" so "b" becomes the LRU victim.
	if got, ok := c.Get("a", 1); !ok || got != pa {
		t.Fatalf("get(a) = %v, %v", got, ok)
	}
	c.Put("c", 1, pc)
	if _, ok := c.Get("b", 1); ok {
		t.Error("LRU entry b survived eviction")
	}
	if got, ok := c.Get("a", 1); !ok || got != pa {
		t.Errorf("get(a) after eviction = %v, %v", got, ok)
	}
	if got, ok := c.Get("c", 1); !ok || got != pc {
		t.Errorf("get(c) = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Size != 2 || s.Capacity != 2 || s.Evicted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPlanCacheStaleGeneration(t *testing.T) {
	c := NewPlanCache(4)
	c.Put("q", 7, &Plan{})
	if _, ok := c.Get("q", 8); ok {
		t.Fatal("stale-generation entry served")
	}
	// The stale entry is evicted on sight, so even the old generation now
	// misses.
	if _, ok := c.Get("q", 7); ok {
		t.Error("stale entry not evicted")
	}
	s := c.Stats()
	if s.Stale != 1 || s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPlanCachePutReplaces(t *testing.T) {
	c := NewPlanCache(4)
	p1, p2 := &Plan{}, &Plan{}
	c.Put("q", 1, p1)
	c.Put("q", 2, p2)
	if got, ok := c.Get("q", 2); !ok || got != p2 {
		t.Errorf("replaced entry = %v, %v", got, ok)
	}
	if s := c.Stats(); s.Size != 1 {
		t.Errorf("size after replace = %d", s.Size)
	}
}

func TestPlanCacheDefaultCapacity(t *testing.T) {
	if c := NewPlanCache(0); c.cap != 256 {
		t.Errorf("default capacity = %d", c.cap)
	}
	if c := NewPlanCache(-3); c.cap != 256 {
		t.Errorf("capacity(-3) = %d", c.cap)
	}
}

// TestOptimizerPlanCaching covers the cache end to end through Plan():
// identical statements share one *Plan, a catalog mutation invalidates, and a
// cache-disabled optimizer still plans.
func TestOptimizerPlanCaching(t *testing.T) {
	f := newFixture(t)
	f.opt.Cache = NewPlanCache(16)
	const sql = "SELECT r.a1 FROM t1000000_100 r JOIN s_items s ON r.a1 = s.a1"
	p1 := f.plan(t, sql)
	p2 := f.plan(t, sql)
	if p1 != p2 {
		t.Error("identical statement replanned instead of hitting the cache")
	}
	// The parser normalizes formatting, so a differently spelled but
	// equivalent statement hits too.
	p3 := f.plan(t, "SELECT  r.a1  FROM t1000000_100 r JOIN s_items s ON r.a1 = s.a1")
	if p3 != p1 {
		t.Error("normalized-equivalent statement missed the cache")
	}
	s := f.opt.Cache.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}

	// A catalog mutation bumps the generation: the next lookup is stale.
	tb, err := f.cat.Lookup("t10000_40")
	if err != nil {
		t.Fatal(err)
	}
	clone := *tb
	clone.Name = "t10000_40_copy"
	if err := f.cat.Register(&clone); err != nil {
		t.Fatal(err)
	}
	p4 := f.plan(t, sql)
	if p4 == p1 {
		t.Error("catalog mutation did not invalidate the cached plan")
	}
	if s := f.opt.Cache.Stats(); s.Stale != 1 {
		t.Errorf("stats after invalidation = %+v", s)
	}

	// Explain output of a cache hit is byte-identical (same plan object).
	p5 := f.plan(t, sql)
	if p5.Explain() != p4.Explain() {
		t.Error("cached Explain differs from cold Explain")
	}

	// Cache disabled: planning still works, every call is cold.
	f.opt.Cache = nil
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.opt.Plan(stmt); err != nil {
		t.Fatalf("Plan without cache: %v", err)
	}
}

// TestPlanCacheShardSizing pins the shard-count policy: small caches stay
// single-sharded (preserving whole-cache eviction order), the default 256
// fans out to the maximum, and total capacity is preserved across shards.
func TestPlanCacheShardSizing(t *testing.T) {
	cases := []struct {
		capacity, shards int
	}{
		{2, 1}, {16, 1}, {31, 1}, {32, 2}, {64, 4}, {128, 8}, {256, 16}, {10000, 16},
	}
	for _, tc := range cases {
		c := NewPlanCache(tc.capacity)
		if len(c.shards) != tc.shards {
			t.Errorf("capacity %d: %d shards, want %d", tc.capacity, len(c.shards), tc.shards)
		}
		var total int
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total < tc.capacity {
			t.Errorf("capacity %d: shard caps sum to %d", tc.capacity, total)
		}
	}
}

// TestPlanCacheShardedCounters fills a multi-shard cache past capacity and
// checks the summed counters stay exact: every lookup lands in exactly one of
// hits/misses, size never exceeds capacity, and eviction happens per shard.
func TestPlanCacheShardedCounters(t *testing.T) {
	c := NewPlanCache(64) // 4 shards x 16
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("stmt-%d", i)
		c.Put(keys[i], 1, &Plan{})
	}
	var lookups uint64
	for _, k := range keys {
		c.Get(k, 1)
		lookups++
	}
	s := c.Stats()
	if s.Hits+s.Misses != lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, lookups)
	}
	if s.Size > 64 {
		t.Errorf("size %d exceeds capacity", s.Size)
	}
	if s.Evicted == 0 {
		t.Error("no evictions after 200 inserts into 64 slots")
	}
	if s.Size+int(s.Evicted) != len(keys) {
		t.Errorf("size %d + evicted %d != %d inserts", s.Size, s.Evicted, len(keys))
	}
}

// TestPlanCacheConcurrent hammers one sharded cache from many goroutines
// mixing hits, misses, stale lookups, inserts, and stat scrapes; the
// race detector checks the lock-free paths and the final counters must
// reconcile (hits+misses == lookups).
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(128)
	plans := make([]*Plan, 32)
	for i := range plans {
		plans[i] = &Plan{}
		c.Put(fmt.Sprintf("k%d", i), 1, plans[i])
	}
	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%48) // 32 present, 16 missing
				gen := uint64(1 + (i%2)*(g%2))      // mix of current and stale gens
				if p, ok := c.Get(k, gen); ok && p == nil {
					t.Error("hit returned nil plan")
				}
				lookups.Add(1)
				if i%37 == 0 {
					c.Put(k, 1, plans[i%len(plans)])
				}
				if i%501 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != lookups.Load() {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, lookups.Load())
	}
}

// TestPlanCacheChainsStayConsistent drives one small shard (8 entries over 16
// buckets, 40 keys, so chains collide and every kind of relink happens in
// the middle of one) through a seeded run of inserts, replacements, stale
// drops and evictions. After every operation the bucket chains must
// hold exactly the ring's live entries, once each and in their own bucket;
// a hit must return the plan last stored under that key; and a key is
// findable right after its put and gone right after its stale drop.
func TestPlanCacheChainsStayConsistent(t *testing.T) {
	c := NewPlanCache(8)
	sh := &c.shards[0]
	if len(c.shards) != 1 || len(sh.buckets) != 16 {
		t.Fatalf("%d shards, %d buckets", len(c.shards), len(sh.buckets))
	}
	latest := map[string]*Plan{} // the plan last put under a key
	check := func(op string) {
		t.Helper()
		chained := map[*cacheEntry[*Plan]]bool{}
		for b := range sh.buckets {
			for e := sh.buckets[b].Load(); e != nil; e = e.next.Load() {
				if chained[e] || e.bucket != uint64(b) || sh.ring[e.slot] != e || e.val != latest[e.key] {
					t.Fatalf("after %s: entry %q (bucket %d, slot %d) is chained twice, misplaced, or stale", op, e.key, e.bucket, e.slot)
				}
				chained[e] = true
			}
		}
		live := 0
		for _, e := range sh.ring {
			if e != nil {
				live++
			}
		}
		if live != len(chained) || live != c.Stats().Size || live > 8 || live+len(sh.holes) != len(sh.ring) {
			t.Fatalf("after %s: %d live ring entries, %d chained, size %d, %d holes in a ring of %d",
				op, live, len(chained), c.Stats().Size, len(sh.holes), len(sh.ring))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("stmt-%d", rng.Intn(40))
		switch r := rng.Intn(100); {
		case r < 45:
			p := &Plan{}
			latest[key] = p
			c.Put(key, 1, p)
			check("put " + key)
			if got, ok := c.Get(key, 1); !ok || got != p {
				t.Fatalf("get(%s) right after put = %v, %v", key, got, ok)
			}
		case r < 85:
			if got, ok := c.Get(key, 1); ok && got != latest[key] {
				t.Fatalf("get(%s) returned a plan that was replaced", key)
			}
		default:
			if _, ok := c.Get(key, 2); ok {
				t.Fatalf("get(%s) served a stale generation", key)
			}
			check("stale get " + key)
			if sh.find(c.bucket(sh, key), key) != nil {
				t.Fatalf("%s still chained after its stale drop", key)
			}
		}
	}
	if s := c.Stats(); s.Evicted == 0 || s.Stale == 0 || s.Hits == 0 {
		t.Errorf("the run never exercised a path: %+v", s)
	}
}

// hybridSubOp trains a sub-op costing profile for "hive" on the given cluster
// shape and wraps it the way the engine registers a remote: a hybrid
// estimator whose in-place changes bump the registry it is stored in.
func hybridSubOp(t *testing.T, f *fixture, cfg cluster.Config) *hybrid.Estimator {
	t.Helper()
	sys, err := remote.NewHive("hive", cfg, remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := subop.Train(sys, subop.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := hybrid.NewEstimator(&hybrid.Profile{
		SystemName: "hive", Engine: remote.EngineHive, Active: core.SubOp,
		Policy: subop.InHouseComparable, SubOpModels: ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	est.OnChange(f.opt.Estimators.Bump)
	return est
}

// TestReplacingChangedEstimatorInvalidates is the regression test for the
// stamp that was a sum over per-estimator counters: an estimator that had
// changed in place exactly once took its 1 out of the sum when it was
// replaced, the registry's +1 put it back, and the plan priced by the old
// model kept being served. After any number of in-place changes a
// replacement must yield the plan an uncached optimizer builds, and the stamp
// must never repeat.
func TestReplacingChangedEstimatorInvalidates(t *testing.T) {
	const sql = "SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"
	slow := cluster.DefaultHive()
	slow.CoresPerNode = 1
	for inPlace := 0; inPlace <= 3; inPlace++ {
		f := newFixture(t)
		f.opt.Cache = NewPlanCache(16)
		seen := map[uint64]bool{f.opt.Epoch(): true}
		moved := func(what string) {
			t.Helper()
			g := f.opt.Epoch()
			if seen[g] {
				t.Errorf("%d in-place changes: stamp %d after %s was seen before", inPlace, g, what)
			}
			seen[g] = true
		}
		old := hybridSubOp(t, f, cluster.DefaultHive())
		f.opt.Estimators.Set("hive", old)
		moved("install")
		before := f.plan(t, sql)
		for i := 0; i < inPlace; i++ {
			if err := old.Switch(core.SubOp); err != nil {
				t.Fatal(err)
			}
			moved("Switch")
			before = f.plan(t, sql)
		}
		f.opt.Estimators.Set("hive", hybridSubOp(t, f, slow))
		moved("replacement")

		served := f.plan(t, sql)
		uncached := *f.opt
		uncached.Cache = nil
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := uncached.Plan(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Explain() == before.Explain() {
			t.Fatal("the replacement model prices the statement like the old one: the test cannot tell them apart")
		}
		if served.Explain() != fresh.Explain() {
			t.Errorf("%d in-place changes, then replaced: served the old model's plan (%.3f s), uncached replan costs %.3f s",
				inPlace, served.EstimatedSec, fresh.EstimatedSec)
		}
	}
}
