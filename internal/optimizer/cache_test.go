package optimizer

import (
	"fmt"
	"hash/fnv"
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
	c := NewCache[*Plan](2)
	pa, pb, pc := &Plan{}, &Plan{}, &Plan{}
	c.Put("a", pa)
	c.Put("b", pb)
	// Touch "a" so "b" becomes the LRU victim.
	if got, ok := c.Get("a"); !ok || got != pa {
		t.Fatalf("get(a) = %v, %v", got, ok)
	}
	c.Put("c", pc)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if got, ok := c.Get("a"); !ok || got != pa {
		t.Errorf("get(a) after eviction = %v, %v", got, ok)
	}
	if got, ok := c.Get("c"); !ok || got != pc {
		t.Errorf("get(c) = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Size != 2 || s.Capacity != 2 || s.Evicted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPlanCachePutReplaces(t *testing.T) {
	c := NewCache[*Plan](4)
	p1, p2 := &Plan{}, &Plan{}
	c.Put("q", p1)
	c.Put("q", p2)
	if got, ok := c.Get("q"); !ok || got != p2 {
		t.Errorf("replaced entry = %v, %v", got, ok)
	}
	if s := c.Stats(); s.Size != 1 || s.Evicted != 0 {
		t.Errorf("stats after replace = %+v", s)
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

// TestCacheHoldsOneTemplate: statements of one template that differ only in a
// short literal are as many keys as any others. 128 of a GROUP BY template and
// 128 of a join template, each into a cache of 256, must all stay resident. A
// cache that picked a shard from bytes sampled at a stride put every one of
// them in one 16-entry shard: 16 resident, 112 evicted.
func TestCacheHoldsOneTemplate(t *testing.T) {
	for _, template := range []string{
		"SELECT a100, COUNT(*) FROM t1000000_250 WHERE a1 < %d GROUP BY a100",
		"SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE r.a1 < %d",
	} {
		c := NewCache[int](256)
		for i := 0; i < 128; i++ {
			c.Put(fmt.Sprintf(template, 1000+i), i)
		}
		if s := c.Stats(); s.Size != 128 || s.Evicted != 0 {
			t.Errorf("%q: %d resident, %d evicted, want 128 and 0", template, s.Size, s.Evicted)
		}
		for i := 0; i < 128; i++ {
			if v, ok := c.Get(fmt.Sprintf(template, 1000+i)); !ok || v != i {
				t.Errorf("%q, literal %d: got %d, %v", template, 1000+i, v, ok)
				break
			}
		}
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
	if s := f.opt.Cache.Stats(); s.Size != 1 {
		t.Errorf("stats = %+v", s)
	}

	// A catalog mutation moves the epoch: the next lookup is stale.
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
	// The re-plan replaced the stale entry in place.
	if s := f.opt.Cache.Stats(); s.Size != 1 || s.Evicted != 0 {
		t.Errorf("stats after invalidation = %+v", s)
	}

	// Explain output of a cache hit is byte-identical (same plan object).
	p5 := f.plan(t, sql)
	if p5 != p4 || p5.Explain() != p4.Explain() {
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

// indexMatchesRing checks the cache's two views of its entries agree: every
// ring slot is indexed under its own key at its own position, the index holds
// nothing else, and both count Size. It returns the ring.
func indexMatchesRing(t *testing.T, c *Cache[*Plan], op string) []cacheSlot[*Plan] {
	t.Helper()
	for i, e := range c.ring {
		if j, ok := c.index[e.key]; !ok || j != i {
			t.Fatalf("after %s: %q sits in slot %d but is indexed at %d (%v)", op, e.key, i, j, ok)
		}
	}
	if len(c.index) != len(c.ring) || len(c.ring) != c.Stats().Size || len(c.ring) > c.cap {
		t.Fatalf("after %s: %d indexed, %d in the ring, size %d, capacity %d",
			op, len(c.index), len(c.ring), c.Stats().Size, c.cap)
	}
	return c.ring
}

// TestPlanCacheConcurrent hammers one cache from many goroutines mixing hits,
// misses, inserts, replacements and stat scrapes; the race detector checks the
// locking, every hit must return a plan stored under its key, and once the
// goroutines are done the index and the ring must still agree.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewCache[*Plan](128)
	plans := make([]*Plan, 48)
	owner := map[*Plan]string{}
	for i := range plans {
		plans[i] = &Plan{}
		owner[plans[i]] = fmt.Sprintf("k%d", i)
		if i < 32 {
			c.Put(owner[plans[i]], plans[i])
		}
	}
	var hits, misses atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := (g*7 + i) % 48 // 32 present, 16 missing until put
				k := fmt.Sprintf("k%d", n)
				if p, ok := c.Get(k); !ok {
					misses.Add(1)
				} else if owner[p] != k {
					t.Errorf("get(%s) returned the plan of %s", k, owner[p])
					return
				} else {
					hits.Add(1)
				}
				if i%37 == 0 {
					c.Put(k, plans[n])
				}
				if i%501 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Errorf("%d hits, %d misses: the run never exercised a path", hits.Load(), misses.Load())
	}
	indexMatchesRing(t, c, "the concurrent run")
	if s := c.Stats(); s.Evicted != 0 {
		t.Errorf("48 keys evicted from a cache of 128: %+v", s)
	}
}

// TestPlanCacheIndexStaysConsistent drives one small cache (8 entries, 40
// keys) through a seeded run of inserts, replacements and evictions. After
// every insert the index must hold exactly the ring's entries, each at its own
// slot and with the plan last stored under its key; a hit must return that
// plan; and a key is findable right after its put.
//
// The run's outcomes — each Get's hit or miss and each Put's evicted key —
// hash to the value the lock-free bucket table this cache replaced produced
// for the same run, so the CLOCK eviction order is pinned across rewrites.
func TestPlanCacheIndexStaysConsistent(t *testing.T) {
	const wantOutcomes = 0xfdeb63e50d0b2a5c
	c := NewCache[*Plan](8)
	latest := map[string]*Plan{} // the plan last put under a key
	outcomes := fnv.New64a()
	get := func(key string) (*Plan, bool) {
		p, ok := c.Get(key)
		fmt.Fprintf(outcomes, "get %s %v;", key, ok)
		return p, ok
	}
	hits := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("stmt-%d", rng.Intn(40))
		if rng.Intn(100) < 45 {
			p := &Plan{}
			latest[key] = p
			resident := map[string]bool{}
			for _, e := range c.ring {
				resident[e.key] = true
			}
			c.Put(key, p)
			evicted := "-"
			for _, e := range indexMatchesRing(t, c, "put "+key) {
				if e.val != latest[e.key] {
					t.Fatalf("after put %s: %q holds a plan that was replaced", key, e.key)
				}
				delete(resident, e.key)
			}
			for k := range resident {
				evicted = k
			}
			fmt.Fprintf(outcomes, "put %s evicts %s;", key, evicted)
			if got, ok := get(key); !ok || got != p {
				t.Fatalf("get(%s) right after put = %v, %v", key, got, ok)
			}
			continue
		}
		if got, ok := get(key); ok {
			if got != latest[key] {
				t.Fatalf("get(%s) returned a plan that was replaced", key)
			}
			hits++
		}
	}
	if s := c.Stats(); s.Evicted == 0 || hits == 0 {
		t.Errorf("the run never exercised a path: %d hits, %+v", hits, s)
	}
	if got := outcomes.Sum64(); got != wantOutcomes {
		t.Errorf("outcome hash %#x, want %#x: the hit/miss or eviction sequence changed", got, uint64(wantOutcomes))
	}
}

// hybridSubOp trains a sub-op costing profile for "hive" on the given cluster
// shape and wraps it the way the engine registers a remote: a hybrid
// estimator.
func hybridSubOp(t *testing.T, cfg cluster.Config) *hybrid.Estimator {
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
	return est
}

// TestReplacingChangedEstimatorInvalidates is the regression test for the
// stamp that was a sum over per-estimator counters: an estimator that had
// changed exactly once took its 1 out of the sum when it was replaced, the
// registry's +1 put it back, and the plan priced by the old model kept being
// served. After any number of re-installs of the same estimator a
// replacement must yield the plan an uncached optimizer builds, and the stamp
// must never repeat.
func TestReplacingChangedEstimatorInvalidates(t *testing.T) {
	const sql = "SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"
	slow := cluster.DefaultHive()
	slow.CoresPerNode = 1
	for reinstalls := 0; reinstalls <= 3; reinstalls++ {
		f := newFixture(t)
		f.opt.Cache = NewPlanCache(16)
		seen := map[uint64]bool{f.opt.Epoch(): true}
		moved := func(what string) {
			t.Helper()
			g := f.opt.Epoch()
			if seen[g] {
				t.Errorf("%d re-installs: stamp %d after %s was seen before", reinstalls, g, what)
			}
			seen[g] = true
		}
		old := hybridSubOp(t, cluster.DefaultHive())
		f.opt.Estimators.Set("hive", old)
		moved("install")
		before := f.plan(t, sql)
		for i := 0; i < reinstalls; i++ {
			f.opt.Estimators.Set("hive", old)
			moved("re-install")
			before = f.plan(t, sql)
		}
		f.opt.Estimators.Set("hive", hybridSubOp(t, slow))
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
			t.Errorf("%d re-installs, then replaced: served the old model's plan (%.3f s), uncached replan costs %.3f s",
				reinstalls, served.EstimatedSec, fresh.EstimatedSec)
		}
	}
}
