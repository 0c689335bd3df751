package optimizer

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"intellisphere/internal/sqlparse"
)

// TestPlanMissAllocs pins what a plan-cache miss allocates, per statement
// family of the serving path (the cache is off, so every PlanCtx call is the
// miss path: bind, derive the specs, cost every placement, assemble, render).
// The count at the time of writing is 3 for each family — the plan, whose
// steps, alternatives and operator specs live inside it, its EXPLAIN text and
// its systems list — and each budget sits about 20 % above it. The bound
// statement, the placement sweep and the sub-op join estimator's candidates
// stay on the stack. Before they did, the counts were 9, 9 and 20 (of which
// the join estimator's slices were about 10); 7, 7 and 20 before the planner
// rendered the text and the list as it finished a plan, which moved nothing
// end to end on a server that records events, since the first Explain() and
// Systems() of a served plan then stopped allocating them; 34, 33 and 80 with
// the fmt-and-map bookkeeping this path used to do.
// A scan and a join over replicated tables, whose every copy is a candidate,
// count 3 as well, and so does a join whose result is aggregated where it
// lands; a degraded re-plan counts 4, the fourth being its list of excluded
// systems, and so does a chain of two joins whose fifth step outgrows the
// plan's own backing for its steps.
// The same budgets hold at GOMAXPROCS 4, the only worker count the process
// has: the planner costs its placements on the calling goroutine.
func TestPlanMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("default workers", testPlanMissAllocs)
	t.Run("four workers", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		testPlanMissAllocs(t)
	})
}

func testPlanMissAllocs(t *testing.T) {
	f := newFixture(t)
	registerReplicated(t, f, "rep_fact", 2000000)
	registerReplicated(t, f, "rep_dim", 100000)
	for _, tc := range []struct {
		sql     string
		exclude map[string]bool
		budget  float64
	}{
		{"SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234", nil, 4},
		{"SELECT a100, SUM(a1), COUNT(*) FROM t10000_100 WHERE a2 < 17 GROUP BY a100", nil, 4},
		{"SELECT r.a1, s.a2 FROM t10000000_100 r JOIN s_orders s ON r.a1 = s.a1 WHERE r.a10 < 40123", nil, 4},
		// Every copy of a replicated table is a candidate; a degraded
		// re-plan drops the excluded system's copies.
		{"SELECT a1, a5 FROM rep_fact WHERE a5 < 1234", nil, 4},
		{"SELECT r.a1, s.a2 FROM rep_fact r JOIN rep_dim s ON r.a1 = s.a1 WHERE r.a10 < 40123", nil, 4},
		{"SELECT r.a1, s.a2 FROM rep_fact r JOIN rep_dim s ON r.a1 = s.a1 WHERE r.a10 < 40123", map[string]bool{"hive": true}, 4},
		// An aggregation where the last join's result lands, and a chain
		// whose second join places an intermediate result and whose fifth
		// step grows Steps.
		{"SELECT r.a10, COUNT(*) FROM t10000000_100 r JOIN s_orders s ON r.a1 = s.a1 WHERE r.a10 < 40123 GROUP BY r.a10", nil, 4},
		{"SELECT r.a1, s.a2 FROM t10000000_100 r JOIN s_orders s ON r.a1 = s.a1 JOIN t100000_100 u ON u.a1 = s.a1 WHERE r.a10 < 40123", nil, 5},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan := func() (*Plan, error) { return f.opt.PlanCtx(context.Background(), stmt) }
		if tc.exclude != nil {
			plan = func() (*Plan, error) { return f.opt.PlanExcludingCtx(context.Background(), stmt, tc.exclude) }
		}
		if _, err := plan(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() { plan() })
		if allocs > tc.budget {
			t.Errorf("plan of %q excluding %v allocates %.1f times, budget %.0f", tc.sql, tc.exclude, allocs, tc.budget)
		}
		t.Logf("plan of %q excluding %v: %.0f allocs", tc.sql, tc.exclude, allocs)
	}
}

// TestCacheAllocs pins the cache's four operations at zero allocations: a
// hit, a miss, a Put over a resident key, and a Put of a new key into a full
// cache, which evicts and reuses the victim's ring slot and index entry. The
// lock-free table this cache replaced allocated one entry per new-key Put.
func TestCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity = 64
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT a1 FROM t10000_100 WHERE a1 < %d", i)
	}
	c := NewCache[int](capacity)
	for i, k := range keys {
		c.Put(k, i)
	}
	next := 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"get hit", func() { c.Get(keys[len(keys)-1]) }},
		{"get miss", func() { c.Get(keys[0]) }},
		{"put resident", func() { c.Put(keys[len(keys)-1], 1) }},
		{"put new into full", func() { c.Put(keys[next%len(keys)], next); next++ }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s: %.1f allocs, want 0", tc.name, allocs)
		}
	}
	if s := c.Stats(); s.Size != capacity || s.Evicted < 1000 {
		t.Errorf("stats = %+v: the new-key puts did not all evict", s)
	}
}
