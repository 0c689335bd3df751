package optimizer

import (
	"context"
	"testing"

	"intellisphere/internal/sqlparse"
)

// PlanBatchCtx is PlanCtxHit once per statement: a failed statement fails
// only its own slot (with the scalar path's error), a repeat is answered by
// the plan cache with the identical plan, and every statement is exactly one
// cache lookup.
func TestPlanBatchCtxPlansPerStatement(t *testing.T) {
	f := newFixture(t)
	f.opt.Cache = NewPlanCache(16)
	sqls := []string{
		"SELECT a1 FROM t1000000_100 WHERE a1 < 250000",
		"SELECT a1 FROM no_such_table",
		"SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2",
		"SELECT a1 FROM t1000000_100 WHERE a1 < 250000", // duplicate of 0
	}
	stmts := make([]*sqlparse.SelectStmt, len(sqls))
	for i, sql := range sqls {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		stmts[i] = stmt
	}
	results := f.opt.PlanBatchCtx(context.Background(), stmts)
	if len(results) != len(stmts) {
		t.Fatalf("got %d results for %d statements", len(results), len(stmts))
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil || results[i].Plan == nil {
			t.Errorf("statement %d failed beside a bad neighbour: %v", i, results[i].Err)
		}
	}
	_, wantErr := f.opt.Plan(stmts[1])
	if results[1].Err == nil || wantErr == nil || results[1].Err.Error() != wantErr.Error() {
		t.Errorf("bad statement: error %v, Plan reports %v", results[1].Err, wantErr)
	}
	if results[0].CacheHit || results[2].CacheHit {
		t.Error("a first-seen statement reported a cache hit")
	}
	if results[3].Plan != results[0].Plan || !results[3].CacheHit {
		t.Errorf("the repeat got plan %p (hit %v), the first occurrence %p",
			results[3].Plan, results[3].CacheHit, results[0].Plan)
	}
	// Four statements plus the reference Plan call above: five lookups.
	if s := f.opt.Cache.Stats(); s.Hits+s.Misses != 5 || s.Hits != 1 {
		t.Errorf("hits %d + misses %d, want 1 + 4", s.Hits, s.Misses)
	}
}
