package rowengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"intellisphere/internal/datagen"
	"intellisphere/internal/sqlparse"
)

func exec(t *testing.T, sql string, tables map[string]*Table) *Result {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := Execute(stmt, tables)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func tables(t *testing.T, specs map[string]int64) map[string]*Table {
	t.Helper()
	out := map[string]*Table{}
	for name, rows := range specs {
		tb, err := Materialize(name, rows)
		if err != nil {
			t.Fatalf("Materialize(%s): %v", name, err)
		}
		out[name] = tb
	}
	return out
}

func TestSimpleProjection(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 10})
	res := exec(t, "SELECT a1, a5 FROM t", ts)
	if len(res.Rows) != 10 || len(res.Columns) != 2 {
		t.Fatalf("result = %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.Rows[7][0] != 7 || res.Rows[7][1] != 1 {
		t.Errorf("row 7 = %v, want [7 1]", res.Rows[7])
	}
}

func TestStarProjection(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 3})
	res := exec(t, "SELECT * FROM t", ts)
	if len(res.Columns) != 8 {
		t.Fatalf("star expanded to %d columns, want 8", len(res.Columns))
	}
}

func TestFilter(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	res := exec(t, "SELECT a1 FROM t WHERE a1 < 25", ts)
	if len(res.Rows) != 25 {
		t.Errorf("got %d rows, want 25", len(res.Rows))
	}
	res = exec(t, "SELECT a1 FROM t WHERE a1 >= 90 AND a1 <> 95", ts)
	if len(res.Rows) != 9 {
		t.Errorf("got %d rows, want 9", len(res.Rows))
	}
	res = exec(t, "SELECT a1 FROM t WHERE a1 + z = 42", ts)
	if len(res.Rows) != 1 || res.Rows[0][0] != 42 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestFig10JoinSemantics(t *testing.T) {
	// R has 1000 rows, S has 100; S's a1 values are a subset of R's, so the
	// equi-join matches every S row, and the z-predicate scales the output:
	// threshold 50 keeps 50 rows.
	ts := tables(t, map[string]int64{"r": 1000, "s": 100})
	res := exec(t, "SELECT r.a1, s.a1 FROM r JOIN s ON r.a1 = s.a1 WHERE r.a1 + s.z < 50", ts)
	if len(res.Rows) != 50 {
		t.Fatalf("join output = %d rows, want 50", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0] != row[1] {
			t.Fatalf("join mismatch: %v", row)
		}
	}
	// Without the predicate, output = |S| exactly.
	res = exec(t, "SELECT r.a1 FROM r JOIN s ON r.a1 = s.a1", ts)
	if len(res.Rows) != 100 {
		t.Errorf("full join output = %d rows, want 100", len(res.Rows))
	}
}

func TestJoinDuplicateKeys(t *testing.T) {
	// Joining on a5 (each value duplicated 5 times in both tables of 50
	// rows): 10 distinct values × 5 × 5 = 250 output rows.
	ts := tables(t, map[string]int64{"r": 50, "s": 50})
	res := exec(t, "SELECT r.a5 FROM r JOIN s ON r.a5 = s.a5", ts)
	if len(res.Rows) != 250 {
		t.Errorf("duplicate-key join = %d rows, want 250", len(res.Rows))
	}
}

func TestCrossJoin(t *testing.T) {
	ts := tables(t, map[string]int64{"r": 20, "s": 30})
	res := exec(t, "SELECT r.a1 FROM r CROSS JOIN s", ts)
	if len(res.Rows) != 600 {
		t.Errorf("cross join = %d rows, want 600", len(res.Rows))
	}
}

func TestAggregationSumCount(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	// Group by a10: 10 groups of 10 rows each.
	res := exec(t, "SELECT a10, COUNT(a1), SUM(a1) FROM t GROUP BY a10", ts)
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(res.Rows))
	}
	// Group 0 holds a1 values 0..9: count 10, sum 45.
	for _, row := range res.Rows {
		if row[0] == 0 {
			if row[1] != 10 || row[2] != 45 {
				t.Errorf("group 0 = %v, want count 10 sum 45", row)
			}
		}
	}
}

func TestAggregationAvgMinMax(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	res := exec(t, "SELECT AVG(a1), MIN(a1), MAX(a1) FROM t", ts)
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0] != 49.5 || row[1] != 0 || row[2] != 99 {
		t.Errorf("avg/min/max = %v, want [49.5 0 99]", row)
	}
}

func TestAggregationCountStar(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 42})
	res := exec(t, "SELECT COUNT(*) FROM t", ts)
	if res.Rows[0][0] != 42 {
		t.Errorf("COUNT(*) = %v, want 42", res.Rows[0][0])
	}
}

func TestAggregationAfterJoin(t *testing.T) {
	ts := tables(t, map[string]int64{"r": 100, "s": 50})
	res := exec(t, "SELECT r.a10, SUM(s.a1) FROM r JOIN s ON r.a1 = s.a1 GROUP BY r.a10", ts)
	// Joined rows are a1 = 0..49; groups on a10 → 5 groups.
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Rows))
	}
}

func TestAggregateExpressionArg(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 10})
	res := exec(t, "SELECT SUM(a1 + 1) FROM t", ts)
	if res.Rows[0][0] != 55 {
		t.Errorf("SUM(a1+1) = %v, want 55", res.Rows[0][0])
	}
}

// An aggregate that leaves float64's range is an error, not ±Inf in a row:
// a sum that overflows across rows, a MAX over a value that overflows in
// every row, a grouped sum that overflows within each group, an average of
// an overflowing sum. Near the edge but inside it still answers.
func TestAggregateOverflowRefused(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	for _, sql := range []string{
		"SELECT SUM(a1 + 1e308) FROM t",
		"SELECT MAX(a1 + 1e308 + 1e308) FROM t",
		"SELECT a2, SUM(a1 - 1e308) FROM t GROUP BY a2",
		"SELECT AVG(a1 + 1e308) FROM t",
		"SELECT MIN(a1 - 1e308 - 1e308) AS low FROM t",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		res, err := Execute(stmt, ts)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Execute(%q) = %v, %v; want an out-of-range error", sql, res, err)
		}
	}
	res := exec(t, "SELECT MIN(a1 - 1e308), MAX(a1 + 1e308), SUM(a1 + 1e306) FROM t", ts)
	if row := res.Rows[0]; row[0] != -1e308 || row[1] != 1e308 || math.IsInf(row[2], 0) {
		t.Errorf("in-range aggregates = %v", row)
	}
}

func TestErrors(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 10, "u": 10})
	cases := []string{
		"SELECT a1 FROM missing",
		"SELECT dummy FROM t",                         // unmaterialized column
		"SELECT a1 FROM t JOIN u ON t.a1 = u.a1",      // ambiguous unqualified a1 in select
		"SELECT t.a1 FROM t JOIN u ON t.dummy = u.a1", // bad join column
		"SELECT x.a1 FROM t",                          // unknown binding
		"SELECT a1, SUM(a2) FROM t",                   // non-grouped column with aggregate
		"SELECT *, SUM(a1) FROM t GROUP BY a1",        // star with aggregates
	}
	for _, sql := range cases {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if _, err := Execute(stmt, ts); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", sql)
		}
	}
	// Duplicate binding.
	stmt, _ := sqlparse.Parse("SELECT t.a1 FROM t JOIN t ON t.a1 = t.a1")
	if _, err := Execute(stmt, ts); err == nil {
		t.Error("duplicate binding accepted")
	}
}

func TestMaterializeHelper(t *testing.T) {
	if _, err := Materialize("t", 0); err == nil {
		t.Error("zero-row materialization accepted")
	}
}

// Property: Figure 10 join semantics hold for arbitrary sizes and
// thresholds — output rows = min(threshold, |S|) when joining on the unique
// a1 with R ≥ S.
func TestJoinSelectivityProperty(t *testing.T) {
	f := func(rRows, sRows uint8, threshold uint8) bool {
		r := int64(rRows%50) + 50 // 50..99
		s := int64(sRows%40) + 10 // 10..49 (always ≤ r)
		th := int64(threshold)
		rt, err := Materialize("r", r)
		if err != nil {
			return false
		}
		st, err := Materialize("s", s)
		if err != nil {
			return false
		}
		stmt, err := sqlparse.Parse("SELECT r.a1 FROM r JOIN s ON r.a1 = s.a1 WHERE r.a1 + s.z < " + itoa(th))
		if err != nil {
			return false
		}
		res, err := Execute(stmt, map[string]*Table{"r": rt, "s": st})
		if err != nil {
			return false
		}
		want := th
		if want > s {
			want = s
		}
		return int64(len(res.Rows)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	return string(d)
}

func TestOrderByAscDesc(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 50})
	res := exec(t, "SELECT a1 FROM t WHERE a1 < 10 ORDER BY a1 DESC", ts)
	if len(res.Rows) != 10 || res.Rows[0][0] != 9 || res.Rows[9][0] != 0 {
		t.Errorf("desc order wrong: first=%v last=%v", res.Rows[0], res.Rows[9])
	}
	res = exec(t, "SELECT a1 FROM t WHERE a1 < 10 ORDER BY a1", ts)
	if res.Rows[0][0] != 0 {
		t.Errorf("asc order wrong: %v", res.Rows[0])
	}
}

func TestOrderByMultiKey(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 20})
	// a5 groups of 5 identical values; within each, a1 ascending breaks ties.
	res := exec(t, "SELECT a5, a1 FROM t ORDER BY a5 DESC, a1", ts)
	if res.Rows[0][0] != 3 || res.Rows[0][1] != 15 {
		t.Errorf("first row = %v, want [3 15]", res.Rows[0])
	}
}

func TestOrderByAliasAndAggregate(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	res := exec(t, "SELECT a10, SUM(a1) AS total FROM t GROUP BY a10 ORDER BY total DESC LIMIT 3", ts)
	if len(res.Rows) != 3 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	// Highest total group first: a10 = 9 holds a1 values 90..99 → 945.
	if res.Rows[0][0] != 9 || res.Rows[0][1] != 945 {
		t.Errorf("top group = %v, want [9 945]", res.Rows[0])
	}
	if res.Rows[0][1] < res.Rows[1][1] || res.Rows[1][1] < res.Rows[2][1] {
		t.Error("not descending")
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 100})
	res := exec(t, "SELECT a1 FROM t LIMIT 7", ts)
	if len(res.Rows) != 7 {
		t.Errorf("limit = %d rows", len(res.Rows))
	}
}

func TestOrderByErrors(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 10})
	stmt, err := sqlparse.Parse("SELECT a1 FROM t ORDER BY a50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(stmt, ts); err == nil {
		t.Error("ORDER BY on non-output column accepted")
	}
}

func TestThreeWayJoin(t *testing.T) {
	// r(200) ⋈ s(100) ⋈ u(50) on a1: the chain intersects down to |u| rows,
	// and the threshold predicate scales it (Figure 10 semantics, chained).
	ts3 := tables(t, map[string]int64{"r": 200, "s": 100, "u": 50})
	res := exec(t, "SELECT r.a1, s.a1, u.a1 FROM r JOIN s ON r.a1 = s.a1 JOIN u ON s.a1 = u.a1", ts3)
	if len(res.Rows) != 50 {
		t.Fatalf("3-way join = %d rows, want 50", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0] != row[1] || row[1] != row[2] {
			t.Fatalf("chain mismatch: %v", row)
		}
	}
	res = exec(t, "SELECT r.a1 FROM r JOIN s ON r.a1 = s.a1 JOIN u ON s.a1 = u.a1 WHERE r.a1 + u.z < 20", ts3)
	if len(res.Rows) != 20 {
		t.Errorf("filtered 3-way join = %d rows, want 20", len(res.Rows))
	}
	// The second join may also probe the FIRST table's columns.
	res = exec(t, "SELECT r.a1 FROM r JOIN s ON r.a1 = s.a1 JOIN u ON r.a1 = u.a1", ts3)
	if len(res.Rows) != 50 {
		t.Errorf("probe-first-table join = %d rows, want 50", len(res.Rows))
	}
}

func TestThreeWayJoinWithAggregation(t *testing.T) {
	ts3 := tables(t, map[string]int64{"r": 200, "s": 100, "u": 50})
	res := exec(t, "SELECT u.a10, COUNT(r.a1) FROM r JOIN s ON r.a1 = s.a1 JOIN u ON s.a1 = u.a1 GROUP BY u.a10 ORDER BY u.a10", ts3)
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != 10 {
			t.Errorf("group %v count = %v, want 10", row[0], row[1])
		}
	}
}

func TestThreeWayCrossJoin(t *testing.T) {
	ts3 := tables(t, map[string]int64{"r": 4, "s": 3, "u": 2})
	res := exec(t, "SELECT r.a1 FROM r CROSS JOIN s CROSS JOIN u", ts3)
	if len(res.Rows) != 24 {
		t.Errorf("cross chain = %d rows, want 24", len(res.Rows))
	}
}

func TestJoinConditionOnUnjoinedTable(t *testing.T) {
	ts3 := tables(t, map[string]int64{"r": 10, "s": 10, "u": 10})
	// The second join's condition references only r and s — it never links u.
	stmt, err := sqlparse.Parse("SELECT r.a1 FROM r JOIN s ON r.a1 = s.a1 JOIN u ON r.a1 = s.a2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(stmt, ts3); err == nil {
		t.Error("join condition not referencing the new table accepted")
	}
}

// An ORDER BY reference that names an output column exactly (rendered name
// or alias) resolves to it, whatever else shares its column name; only an
// unqualified reference falls back to matching a qualified output by suffix.
// The first case failed with `ambiguous ORDER BY column "s.a1"` while the
// suffix rule still ran after an exact match.
func TestOrderByQualifiedReference(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 6, "u": 4})
	cases := []struct {
		sql     string
		column  int     // output column the first row is read from
		first   float64 // its value in the first row; rows > 0
		wantErr string  // instead: the error's text
	}{
		{sql: "SELECT r.a1, s.a1 FROM t r JOIN t s ON r.a1 = s.a1 ORDER BY s.a1 DESC", column: 1, first: 5},
		{sql: "SELECT r.a1, s.a2 FROM t r JOIN t s ON r.a1 = s.a1 ORDER BY r.a1 DESC", column: 0, first: 5},
		{sql: "SELECT r.a1, s.a2 FROM t r JOIN t s ON r.a1 = s.a1 ORDER BY a2 DESC", column: 1, first: 2},
		{sql: "SELECT r.a1, s.a1 AS a1 FROM t r JOIN u s ON r.a2 = s.a1 ORDER BY a1 DESC", column: 1, first: 2},
		{sql: "SELECT r.a1, s.a1 FROM t r JOIN t s ON r.a1 = s.a1 ORDER BY a1", wantErr: "ambiguous ORDER BY"},
		{sql: "SELECT r.a1 FROM t r JOIN t s ON r.a1 = s.a1 ORDER BY s.a1", wantErr: "not in the output"},
		// Unchanged: one table, with and without qualifiers and aliases.
		{sql: "SELECT a1 FROM t ORDER BY a1 DESC", column: 0, first: 5},
		{sql: "SELECT a1 FROM t ORDER BY t.a1 DESC", column: 0, first: 5},
		{sql: "SELECT t.a1 FROM t ORDER BY a1 DESC", column: 0, first: 5},
		{sql: "SELECT * FROM t ORDER BY a1 DESC", column: 0, first: 5},
		{sql: "SELECT a2 AS half, a1 FROM t ORDER BY half DESC, a1 DESC", column: 1, first: 5},
		{sql: "SELECT a1, a1 FROM t ORDER BY a1", wantErr: "ambiguous ORDER BY"},
		{sql: "SELECT a1 FROM t ORDER BY a2", wantErr: "not in the output"},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.sql, err)
		}
		res, err := Execute(stmt, ts)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s\n error = %v, want one containing %q", c.sql, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s\n error = %v", c.sql, err)
		case res.Rows[0][c.column] != c.first:
			t.Errorf("%s\n first row = %v, want %v in column %d", c.sql, res.Rows[0], c.first, c.column)
		}
	}
}

// A plain select column is a group key only if it is the same column of the
// same binding as a GROUP BY entry. The first case used to be accepted, and
// answered r.a1 with s.a1's values, because the membership test compared
// column names and dropped the qualifier.
func TestGroupByQualifiedKey(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 8})
	cases := []struct {
		sql     string
		rows    int
		wantErr string
	}{
		{sql: "SELECT r.a1, COUNT(*) FROM t r JOIN t s ON r.a2 = s.a2 GROUP BY s.a1", wantErr: "r.a1 not in GROUP BY"},
		{sql: "SELECT s.a1, COUNT(*) FROM t r JOIN t s ON r.a2 = s.a2 GROUP BY s.a1", rows: 8},
		{sql: "SELECT r.a2, s.a1, COUNT(*) FROM t r JOIN t s ON r.a2 = s.a2 GROUP BY s.a1, r.a2", rows: 8},
		// Unchanged: over one table the qualifier is a matter of spelling.
		{sql: "SELECT a2, COUNT(*) FROM t GROUP BY a2", rows: 4},
		{sql: "SELECT t.a2, COUNT(*) FROM t GROUP BY a2", rows: 4},
		{sql: "SELECT a2, COUNT(*) FROM t GROUP BY t.a2", rows: 4},
		{sql: "SELECT a2 AS half, COUNT(*) FROM t x GROUP BY x.a2", rows: 4},
		{sql: "SELECT a1, COUNT(*) FROM t GROUP BY a2", wantErr: "a1 not in GROUP BY"},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.sql, err)
		}
		res, err := Execute(stmt, ts)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s\n error = %v, want one containing %q", c.sql, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s\n error = %v", c.sql, err)
		case len(res.Rows) != c.rows:
			t.Errorf("%s\n %d groups, want %d", c.sql, len(res.Rows), c.rows)
		}
	}
}

// A statement is refused for what it says, not for which rows reach the part
// that says it: each of these hides its bad reference behind a filter or a
// join that lets no row through, and the interpreter this engine replaced
// answered every one of them with an empty result.
func TestBindErrorsNeedNoRows(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 10, "u": 10})
	for _, sql := range []string{
		"SELECT a1 FROM t WHERE a1 < 0 AND dummy < 3",
		"SELECT dummy FROM t WHERE a1 < 0",
		"SELECT SUM(x.a1) FROM t WHERE a1 < 0",
		"SELECT COUNT(*) FROM t WHERE a1 < 0 GROUP BY dummy",
		"SELECT t.a1 FROM t JOIN u ON t.a1 = u.a1 WHERE t.a1 < 0 AND a2 = 1",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if _, err := Execute(stmt, ts); err == nil {
			t.Errorf("Execute(%q) succeeded, want a bind error", sql)
		}
		if res, err := oracleExecute(stmt, ts); err != nil || len(res.Rows) != 0 {
			t.Errorf("oracle(%q) = %v, %v; this case is meant to be one it answers, emptily", sql, res, err)
		}
	}
}

// The three orders that are part of the answer (package comment).
func TestPinnedOrders(t *testing.T) {
	ts := tables(t, map[string]int64{"r": 6, "s": 6})
	// Probe order × build-table row order: r's rows in turn, each with its
	// a5 matches in s's row order (a5 is 0 for rows 0–4, 1 for row 5).
	res := exec(t, "SELECT r.a1, s.a1 FROM r JOIN s ON r.a5 = s.a5 WHERE r.a1 > 2", ts)
	want := [][]float64{
		{3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4},
		{4, 0}, {4, 1}, {4, 2}, {4, 3}, {4, 4},
		{5, 5},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("join order = %v, want %v", res.Rows, want)
	}
	// Scan order survives a filter, on either side of a join.
	res = exec(t, "SELECT r.a1, s.a1 FROM r CROSS JOIN s WHERE r.a1 >= 4 AND s.a1 < 2", ts)
	want = [][]float64{{4, 0}, {4, 1}, {5, 0}, {5, 1}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("filtered order = %v, want %v", res.Rows, want)
	}
	// Groups in the text order of their keys' %v rendering — 10 before 2, a
	// million as 1e+06 — over values no generated table of a testable size
	// holds, so the table is written out.
	keys := []int32{2, 1000000, 10, 1, 1234567, 19, 0, 100000, 20, 11, -3, 2147483647}
	hand := &Table{Name: "h"}
	for i, k := range keys {
		hand.Rows = append(hand.Rows, datagen.Row{k, int32(i % 2)})
	}
	res = exec(t, "SELECT a1, a2, COUNT(*) FROM h GROUP BY a1, a2", map[string]*Table{"h": hand})
	var text []string
	for i, k := range keys {
		text = append(text, fmt.Sprintf("%v|%v|", float64(k), float64(i%2)))
	}
	sort.Strings(text)
	var got []string
	for _, row := range res.Rows {
		got = append(got, fmt.Sprintf("%v|%v|", row[0], row[1]))
	}
	if !reflect.DeepEqual(got, text) {
		t.Errorf("group order = %v, want %v", got, text)
	}
	if got[2] != "1.234567e+06|0|" || got[4] != "10|0|" || got[7] != "1e+06|1|" || got[8] != "1|1|" || got[10] != "20|0|" || got[11] != "2|0|" {
		t.Errorf("group order = %v: not the pinned text order", got)
	}
}

// LIMIT without ORDER BY stops the pipeline instead of trimming its output:
// under a row cap far below the join's size, only a statement that stops
// early can answer.
func TestLimitStopsThePipeline(t *testing.T) {
	defer func(n int) { maxResultRows = n }(maxResultRows)
	maxResultRows = 50
	ts := tables(t, map[string]int64{"r": 100, "s": 100})
	res := exec(t, "SELECT r.a1, s.a1 FROM r CROSS JOIN s LIMIT 7", ts)
	if len(res.Rows) != 7 || res.Rows[6][1] != 6 {
		t.Errorf("rows = %v, want the first 7 of the product", res.Rows)
	}
}

// One statement must not be able to take the process down (1): a join's
// product is never materialized and the pipeline looks at its context, so
// the 10^10-tuple cross join is given up at the deadline having allocated
// next to nothing. The interpreter asked make for 240 GB here and died with
// "fatal error: runtime: out of memory" — no panic to recover, no deadline
// consulted.
func TestCrossJoinHonorsDeadline(t *testing.T) {
	ts := tables(t, map[string]int64{"t100000_100": 100000})
	stmt, err := sqlparse.Parse("SELECT COUNT(*) FROM t100000_100 r CROSS JOIN t100000_100 s")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ExecuteContext(ctx, stmt, ts)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("gave up after %v, want within 1s of a 100ms deadline", elapsed)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16<<20 {
		t.Errorf("heap grew by %d MB, want < 16", grown>>20)
	}
	// The same through a duplicate-key join, whose index build also polls.
	stmt, err = sqlparse.Parse("SELECT COUNT(*) FROM t100000_100 r JOIN t100000_100 s ON r.z = s.z")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err = ExecuteContext(ctx2, stmt, ts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("duplicate-key join: error = %v, want context.DeadlineExceeded", err)
	}
}

// One statement must not be able to take the process down (2): a result is
// at most as large as the largest table that can exist. The cap is lowered
// here so the test need not emit four million rows first.
func TestResultRowCap(t *testing.T) {
	if maxResultRows != datagen.MaterializeLimit {
		t.Fatalf("maxResultRows = %d, want datagen.MaterializeLimit", maxResultRows)
	}
	defer func(n int) { maxResultRows = n }(maxResultRows)
	maxResultRows = 3000
	ts := tables(t, map[string]int64{"t": 3000})
	for _, sql := range []string{
		"SELECT r.a1 FROM t r CROSS JOIN t s",
		"SELECT r.a1 FROM t r CROSS JOIN t s ORDER BY r.a1 LIMIT 5",
		"SELECT r.a1, s.a1, COUNT(*) FROM t r CROSS JOIN t s GROUP BY r.a1, s.a1",
		"SELECT r.a1 FROM t r CROSS JOIN t s LIMIT 3001",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Execute(stmt, ts)
		if err == nil || !strings.Contains(err.Error(), "exceeds 3000 rows") || !strings.Contains(err.Error(), "LIMIT") {
			t.Errorf("Execute(%q) error = %v, want the row cap's", sql, err)
		}
	}
	// Everything a single table can answer still fits, to the row.
	if res := exec(t, "SELECT a1 FROM t", ts); len(res.Rows) != 3000 {
		t.Errorf("full scan = %d rows, want 3000", len(res.Rows))
	}
	if res := exec(t, "SELECT a1, COUNT(*) FROM t GROUP BY a1", ts); len(res.Rows) != 3000 {
		t.Errorf("full group-by = %d groups, want 3000", len(res.Rows))
	}
	if res := exec(t, "SELECT r.a1 FROM t r CROSS JOIN t s LIMIT 3000", ts); len(res.Rows) != 3000 {
		t.Errorf("limited product = %d rows, want 3000", len(res.Rows))
	}
}

// Every JOIN … ON builds an index, so the tables of one statement are bounded.
func TestTooManyTables(t *testing.T) {
	ts := tables(t, map[string]int64{"t": 2})
	sql := "SELECT b0.a1 FROM t b0"
	for i := 1; i <= maxBindings; i++ {
		if i == maxBindings {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := Execute(stmt, ts); err != nil || len(res.Rows) != 2 {
				t.Fatalf("%d tables: %v, %v", maxBindings, res, err)
			}
		}
		sql += " JOIN t b" + itoa(int64(i)) + " ON b0.a1 = b" + itoa(int64(i)) + ".a1"
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(stmt, ts); err == nil || !strings.Contains(err.Error(), "tables in one statement") {
		t.Errorf("%d tables: error = %v, want the limit's", maxBindings+1, err)
	}
}

// TestLocalStatementAllocs states the property the rewrite is for, on the
// benchmark's two local statement shapes (bench/mix buildLocal): what a
// statement allocates is a function of its output, not of its input — the
// same over a 10 000-row and a 100 000-row table when the literal keeps the
// same rows — and it is small. The interpreter allocated a []*datagen.Row per
// input tuple before filtering and a key string per row: 20 215 and 45 005
// allocations over the 10 000-row table, ten times that over the larger.
func TestLocalStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ts := tables(t, map[string]int64{"t10000_100": 10000, "t100000_100": 100000})
	for _, c := range []struct {
		shape  string
		budget float64
	}{
		{"SELECT a1 FROM %s WHERE a1 < 100", 24},                            // 100 rows out
		{"SELECT a100, COUNT(*) FROM %s WHERE a1 < 2500 GROUP BY a100", 96}, // 25 groups out, a key string each
	} {
		var allocs [2]float64
		for i, table := range []string{"t10000_100", "t100000_100"} {
			stmt, err := sqlparse.Parse(fmt.Sprintf(c.shape, table))
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(10, func() {
				if _, err := Execute(stmt, ts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations over 10 000 rows, %v over 100 000; want the same", c.shape, allocs[0], allocs[1])
		}
		if allocs[0] > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.shape, allocs[0], c.budget)
		}
	}
}
