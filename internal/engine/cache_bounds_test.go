package engine

import (
	"fmt"
	"testing"

	"intellisphere/internal/optimizer"
)

// TestDistinctStatementFloodStaysBounded floods a default-config engine with
// 10 000 statements it has never seen: both read-path caches must stay at
// their ceilings (256 plans, twice as many parsed statements), every lookup
// must be exactly one hit or one miss, and the parse histogram must count
// exactly the statement-cache misses (the benchmark derives the
// statement-cache hit ratio from that count).
func TestDistinctStatementFloodStaysBounded(t *testing.T) {
	e := batchFixture(t)
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := e.Query(fmt.Sprintf("SELECT a1 FROM t100000_100 WHERE a1 < %d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// A few repeats of the newest statements, so hits are counted too (few
	// enough to still be resident if the whole flood fell into one shard).
	const repeats = 8
	for i := n - repeats; i < n; i++ {
		res, err := e.Query(fmt.Sprintf("SELECT a1 FROM t100000_100 WHERE a1 < %d", i+1))
		if err != nil || !res.CacheHit {
			t.Fatalf("repeat of statement %d: hit=%v err=%v", i, res != nil && res.CacheHit, err)
		}
	}
	st := e.Stats()
	stmts, plans := e.stmts.Stats(), st.PlanCache
	if plans.Capacity != 256 || stmts.Capacity != 2*plans.Capacity {
		t.Errorf("capacities: %d statements / %d plans, want 512 / 256", stmts.Capacity, plans.Capacity)
	}
	if stmts.Size > stmts.Capacity || plans.Size > plans.Capacity {
		t.Errorf("sizes over ceiling: %d/%d statements, %d/%d plans", stmts.Size, stmts.Capacity, plans.Size, plans.Capacity)
	}
	for name, cs := range map[string]optimizer.CacheStats{"statement": stmts, "plan": plans} {
		if cs.Hits != repeats || cs.Hits+cs.Misses != n+repeats {
			t.Errorf("%s cache: %d hits + %d misses, want %d + %d", name, cs.Hits, cs.Misses, repeats, n)
		}
		if cs.Evicted == 0 {
			t.Errorf("%s cache never evicted across %d distinct keys", name, n)
		}
	}
	if st.Parse.Count != stmts.Misses {
		t.Errorf("parse histogram counted %d, statement cache missed %d", st.Parse.Count, stmts.Misses)
	}
}

// TestStatementVariantMissesStatementCacheHitsPlanCache: the statement cache
// is keyed by the raw text, the plan cache by the normalized rendering, so a
// respelling of a cached statement parses again but does not plan again.
func TestStatementVariantMissesStatementCacheHitsPlanCache(t *testing.T) {
	e := batchFixture(t)
	first, err := e.Query("SELECT a1 FROM t10000_100 WHERE a1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	before := e.stmts.Stats()
	variant, err := e.Query("select  a1\n\tfrom t10000_100   where a1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	after := e.stmts.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Errorf("statement cache: hits %d→%d misses %d→%d, want one more miss", before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if !variant.CacheHit || variant.Plan != first.Plan {
		t.Errorf("the variant was planned again (hit=%v, same plan=%v)", variant.CacheHit, variant.Plan == first.Plan)
	}
	if got := e.Stats().Parse.Count; got != 2 {
		t.Errorf("parse histogram counted %d, want 2", got)
	}
	// The exact text again is a statement-cache hit and parses nothing.
	if _, err := e.Query("SELECT a1 FROM t10000_100 WHERE a1 < 100"); err != nil {
		t.Fatal(err)
	}
	if got, parsed := e.stmts.Stats().Hits, e.Stats().Parse.Count; got != before.Hits+1 || parsed != 2 {
		t.Errorf("exact repeat: statement-cache hits %d, parses %d, want %d and 2", got, parsed, before.Hits+1)
	}
}
