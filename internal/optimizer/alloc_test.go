package optimizer

import (
	"runtime"
	"testing"

	"intellisphere/internal/sqlparse"
)

// TestPlanMissAllocs pins what a plan-cache miss allocates, per statement
// family of the serving path (the cache is off, so every Plan call is the
// miss path: bind, derive the specs, cost every placement, assemble, render).
// The counts at the time of writing are 9, 9 and 20 (of which the sub-op join
// estimator's own bookkeeping is about 10), where the fmt-and-map bookkeeping
// this path used to do took 34, 33 and 80. Two of each are the EXPLAIN text
// and the systems list, which the planner now renders as it finishes a plan:
// the budgets rose by exactly those two (from 8, 8 and 22) when the first
// Explain() and the first Systems() of a served plan stopped allocating them,
// so what a never-seen statement allocates end to end on a server that records
// events (the default) did not move. Without a recorder nobody asks for the
// systems list, and rendering it anyway is one 64-byte allocation more than
// before: TestStreamMissAllocs, which runs that way, went from 25.1 to 26.1
// (and to 25.0 when the engine's two caches became one entry a statement;
// this count, the planner's alone, did not move).
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
	for _, tc := range []struct {
		sql    string
		budget float64
	}{
		{"SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234", 10},
		{"SELECT a100, SUM(a1), COUNT(*) FROM t10000_100 WHERE a2 < 17 GROUP BY a100", 10},
		{"SELECT r.a1, s.a2 FROM t10000000_100 r JOIN s_orders s ON r.a1 = s.a1 WHERE r.a10 < 40123", 24},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.opt.Plan(stmt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() { f.opt.Plan(stmt) })
		if allocs > tc.budget {
			t.Errorf("Plan(%q) allocates %.1f times, budget %.0f", tc.sql, allocs, tc.budget)
		}
		t.Logf("Plan(%q): %.0f allocs", tc.sql, allocs)
	}
}
