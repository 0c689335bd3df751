package engine

import (
	"context"
	"testing"
)

// batchFixture builds one deterministic single-remote federation with one
// materialized table.
func batchFixture(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{10000, 100}, ts{100000, 100}, ts{1000000, 250})
	if err := e.Materialize("t10000_100"); err != nil {
		t.Fatal(err)
	}
	return e
}

// batchItem is one statement's outcome within a batch: exactly one of
// Res/Err is set.
type batchItem struct {
	Res *QueryResult
	Err error
}

// queryBatch answers the statements the way /query/batch does: in order, each
// through QueryBatched.
func queryBatch(e *Engine, sqls []string) []batchItem {
	out := make([]batchItem, len(sqls))
	for i, sql := range sqls {
		out[i].Res, out[i].Err = e.QueryBatched(context.Background(), sql)
	}
	return out
}

var batchSQLs = []string{
	"SELECT a1 FROM t10000_100 WHERE a1 < 100",
	"SELECT a2, COUNT(*) FROM t100000_100 GROUP BY a2",
	"SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1",
	"SELECT a1 FROM t10000_100 WHERE a1 < 100", // second sighting of 0
	"SELECT a1 FROM t100000_100",
	"SELECT a1 FROM t10000_100 WHERE a1 < 100", // third sighting of 0
}

// Every statement of a batch is one counted query, and the cache sees the
// sightings inside one batch as it sees any others: the second occurrence of
// a statement is planned again and admitted, the third is answered from the
// cache with the second's plan.
func TestQueryBatchCountsAndCachesPerStatement(t *testing.T) {
	e := batchFixture(t)
	items := queryBatch(e, batchSQLs)
	if len(items) != len(batchSQLs) {
		t.Fatalf("got %d items for %d statements", len(items), len(batchSQLs))
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("batch[%d] (%q): %v", i, batchSQLs[i], it.Err)
		}
		if wantHit := i == 5; it.Res.CacheHit != wantHit {
			t.Errorf("statement %d: CacheHit = %v, want %v", i, it.Res.CacheHit, wantHit)
		}
	}
	if items[5].Res.Plan != items[3].Res.Plan || items[3].Res.Plan == items[0].Res.Plan {
		t.Error("the third occurrence must get the second's plan, and the second one of its own")
	}
	if items[3].Res.Plan.Explain() != items[0].Res.Plan.Explain() {
		t.Error("the statement's two plans render differently")
	}
	if items[0].Res.Rows == nil || items[1].Res.Rows != nil {
		t.Error("rows must come back exactly for the materialized table")
	}
	st := e.Stats()
	if st.Queries != uint64(len(batchSQLs)) || st.QueryErrors != 0 {
		t.Errorf("queries/errors = %d/%d, want %d/0", st.Queries, st.QueryErrors, len(batchSQLs))
	}
	if pc := st.PlanCache; pc.Hits != 1 || pc.Hits+pc.Misses != uint64(len(batchSQLs)) {
		t.Errorf("plan cache hits %d + misses %d, want 1 + %d", pc.Hits, pc.Misses, len(batchSQLs)-1)
	} else if pc.Size != 1 {
		t.Errorf("%d statements resident, want the one that was sent twice", pc.Size)
	}
}

// A failing statement fails only its own slot.
func TestQueryBatchPerStatementErrors(t *testing.T) {
	e := batchFixture(t)
	items := queryBatch(e, []string{
		"SELECT a1 FROM t10000_100",
		"NOT SQL AT ALL",
		"SELECT a1 FROM missing_table",
		"SELECT a1 FROM t100000_100",
	})
	if items[0].Err != nil || items[3].Err != nil {
		t.Errorf("healthy statements failed: %v / %v", items[0].Err, items[3].Err)
	}
	if items[1].Err == nil || items[2].Err == nil {
		t.Errorf("bad statements accepted: %v / %v", items[1].Err, items[2].Err)
	}
	if e.Stats().QueryErrors != 2 {
		t.Errorf("query errors = %d, want 2", e.Stats().QueryErrors)
	}
}
