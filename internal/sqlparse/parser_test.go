package sqlparse

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a1, a5 FROM t1")
	if len(stmt.Items) != 2 || stmt.Items[0].Col.Column != "a1" {
		t.Errorf("items = %+v", stmt.Items)
	}
	if stmt.From.Name != "t1" || len(stmt.Joins) != 0 || stmt.Where != nil || stmt.GroupBy != nil {
		t.Errorf("stmt = %+v", stmt)
	}
}

func TestParseStar(t *testing.T) {
	stmt := mustParse(t, "select * from t1")
	if len(stmt.Items) != 1 || !stmt.Items[0].Star {
		t.Errorf("items = %+v", stmt.Items)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	stmt := mustParse(t, "select a1 from t1 where a1 < 10 group by a1")
	if len(stmt.Where) != 1 || len(stmt.GroupBy) != 1 {
		t.Errorf("stmt = %+v", stmt)
	}
}

func TestParseJoinFig10(t *testing.T) {
	// The exact workload query shape of Figure 10.
	sql := "SELECT r.a1, s.a1 FROM t80000000_1000 r JOIN t1000000_100 s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500000"
	stmt := mustParse(t, sql)
	if stmt.From.Binding() != "r" || len(stmt.Joins) != 1 {
		t.Fatalf("stmt = %+v", stmt)
	}
	j := stmt.Joins[0]
	if j.Table.Name != "t1000000_100" || j.Table.Binding() != "s" {
		t.Errorf("join table = %+v", j.Table)
	}
	if j.Left.String() != "r.a1" || j.Right.String() != "s.a1" {
		t.Errorf("join condition = %s = %s", j.Left, j.Right)
	}
	if len(stmt.Where) != 1 {
		t.Fatalf("where = %+v", stmt.Where)
	}
	p := stmt.Where[0]
	if p.Op != "<" || p.Value != 500000 {
		t.Errorf("predicate = %+v", p)
	}
	if len(p.Left.Terms) != 2 || p.Left.Terms[0].Col.String() != "r.a1" || p.Left.Terms[1].Col.String() != "s.z" {
		t.Errorf("predicate terms = %+v", p.Left.Terms)
	}
}

func TestParseAggregation(t *testing.T) {
	stmt := mustParse(t, "SELECT a5, SUM(a1), COUNT(*), AVG(a1 + 2) FROM t GROUP BY a5")
	if !stmt.HasAggregates() {
		t.Fatal("aggregates not detected")
	}
	if stmt.Items[1].Agg != AggSum || stmt.Items[2].Agg != AggCount || stmt.Items[3].Agg != AggAvg {
		t.Errorf("items = %+v", stmt.Items)
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Column != "a5" {
		t.Errorf("group by = %+v", stmt.GroupBy)
	}
}

func TestParseMinMax(t *testing.T) {
	stmt := mustParse(t, "SELECT MIN(a1), MAX(a1) FROM t")
	if stmt.Items[0].Agg != AggMin || stmt.Items[1].Agg != AggMax {
		t.Errorf("items = %+v", stmt.Items)
	}
}

func TestParseAliases(t *testing.T) {
	stmt := mustParse(t, "SELECT a1 AS x, SUM(a2) total FROM t1 AS big")
	if stmt.Items[0].Alias != "x" || stmt.Items[1].Alias != "total" {
		t.Errorf("aliases = %+v", stmt.Items)
	}
	if stmt.From.Binding() != "big" {
		t.Errorf("from binding = %q", stmt.From.Binding())
	}
}

func TestParseCrossJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a CROSS JOIN b")
	if len(stmt.Joins) != 1 || !stmt.Joins[0].Cross {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
}

func TestParseInnerJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a INNER JOIN b ON a.k = b.k")
	if len(stmt.Joins) != 1 || stmt.Joins[0].Cross {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
}

func TestParseMultiplePredicates(t *testing.T) {
	stmt := mustParse(t, "SELECT a1 FROM t WHERE a1 >= 10 AND a2 <> 5 AND a1 - 3 <= 100")
	if len(stmt.Where) != 3 {
		t.Fatalf("where = %+v", stmt.Where)
	}
	if stmt.Where[0].Op != ">=" || stmt.Where[1].Op != "<>" || stmt.Where[2].Op != "<=" {
		t.Errorf("ops = %v %v %v", stmt.Where[0].Op, stmt.Where[1].Op, stmt.Where[2].Op)
	}
	if !stmt.Where[2].Left.Terms[1].Negated {
		t.Error("subtraction not parsed")
	}
}

func TestParseBangEquals(t *testing.T) {
	stmt := mustParse(t, "SELECT a1 FROM t WHERE a1 != 5")
	if stmt.Where[0].Op != "<>" {
		t.Errorf("op = %q, want <>", stmt.Where[0].Op)
	}
}

func TestParseScientificNumbers(t *testing.T) {
	stmt := mustParse(t, "SELECT a1 FROM t WHERE a1 < 1e6 AND a2 > 2.5E-1")
	if stmt.Where[0].Value != 1e6 || stmt.Where[1].Value != 0.25 {
		t.Errorf("values = %v, %v", stmt.Where[0].Value, stmt.Where[1].Value)
	}
}

func TestParseSemicolonTerminator(t *testing.T) {
	mustParse(t, "SELECT a1 FROM t;")
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"UPDATE t SET a = 1",
		"SELECT FROM t",
		"SELECT a1 t",                     // missing FROM
		"SELECT a1 FROM",                  // missing table
		"SELECT a1 FROM t JOIN",           // missing join table
		"SELECT a1 FROM t JOIN u",         // missing ON
		"SELECT a1 FROM t JOIN u ON a",    // missing =
		"SELECT a1 FROM t JOIN u ON a = ", // missing rhs
		"SELECT a1 FROM t WHERE",
		"SELECT a1 FROM t WHERE a1",        // missing operator
		"SELECT a1 FROM t WHERE a1 < ",     // missing literal
		"SELECT a1 FROM t WHERE a1 < a2",   // literal required
		"SELECT a1 FROM t GROUP",           // missing BY
		"SELECT SUM FROM t",                // missing parens
		"SELECT SUM(a1 FROM t",             // missing close paren
		"SELECT a1 FROM t WHERE a1 @ 3",    // bad rune
		"SELECT a1, FROM t",                // dangling comma
		"SELECT a1 FROM t extra junk here", // trailing input
		"SELECT t. FROM t",                 // dangling qualifier
		"SELECT a1 FROM t WHERE a1 ! 3",    // lone bang
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT a1 FROM t1",
		"SELECT * FROM t1",
		"SELECT r.a1, s.a1 FROM big r JOIN small s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500000",
		"SELECT a5, SUM(a1) AS total FROM t GROUP BY a5",
		"SELECT * FROM a CROSS JOIN b",
		"SELECT a5, a10, COUNT(1) FROM t WHERE a1 >= 7 GROUP BY a5, a10",
	}
	for _, sql := range cases {
		stmt := mustParse(t, sql)
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, sql, err)
		}
		if stmt2.String() != rendered {
			t.Errorf("unstable round trip: %q -> %q", rendered, stmt2.String())
		}
	}
}

func TestExprString(t *testing.T) {
	stmt := mustParse(t, "SELECT a1 FROM t WHERE a1 - 3 + a2 < 10")
	got := stmt.Where[0].Left.String()
	if got != "a1 - 3 + a2" {
		t.Errorf("expr = %q", got)
	}
	// Leading negation.
	stmt = mustParse(t, "SELECT SUM(-a1) FROM t")
	if s := stmt.Items[0].Arg.String(); !strings.HasPrefix(s, "-") {
		t.Errorf("negated expr = %q", s)
	}
}

// Property: rendering any successfully parsed statement re-parses to the
// same rendering (idempotent pretty-printing) for a generated family of
// queries.
func TestRenderReparseProperty(t *testing.T) {
	cols := []string{"a1", "a2", "a5", "z"}
	f := func(c1, c2, selIdx uint8, threshold uint16, group bool) bool {
		col1 := cols[int(c1)%len(cols)]
		col2 := cols[int(c2)%len(cols)]
		sql := "SELECT " + col1
		if group {
			sql += ", SUM(" + col2 + ")"
		}
		sql += " FROM t WHERE " + col1 + " < " + itoa(int(threshold))
		if group {
			sql += " GROUP BY " + col1
		}
		_ = selIdx
		stmt, err := Parse(sql)
		if err != nil {
			return false
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			return false
		}
		return stmt2.String() == rendered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestParseOrderByLimit(t *testing.T) {
	stmt := mustParse(t, "SELECT a1, a5 FROM t WHERE a1 < 100 ORDER BY a5 DESC, a1 ASC LIMIT 10")
	if len(stmt.OrderBy) != 2 {
		t.Fatalf("order by = %+v", stmt.OrderBy)
	}
	if !stmt.OrderBy[0].Desc || stmt.OrderBy[0].Col.Column != "a5" {
		t.Errorf("first key = %+v", stmt.OrderBy[0])
	}
	if stmt.OrderBy[1].Desc || stmt.OrderBy[1].Col.Column != "a1" {
		t.Errorf("second key = %+v", stmt.OrderBy[1])
	}
	if stmt.Limit != 10 {
		t.Errorf("limit = %d", stmt.Limit)
	}
	// Round-trip through String().
	rendered := stmt.String()
	stmt2 := mustParse(t, rendered)
	if stmt2.String() != rendered {
		t.Errorf("unstable round trip: %q vs %q", rendered, stmt2.String())
	}
}

func TestParseOrderByAfterGroupBy(t *testing.T) {
	stmt := mustParse(t, "SELECT a10, SUM(a1) AS total FROM t GROUP BY a10 ORDER BY total DESC LIMIT 5")
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 || stmt.Limit != 5 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if stmt.OrderBy[0].Col.Column != "total" {
		t.Errorf("order key = %+v", stmt.OrderBy[0])
	}
}

func TestParseOrderByLimitErrors(t *testing.T) {
	cases := []string{
		"SELECT a1 FROM t ORDER a1",      // missing BY
		"SELECT a1 FROM t ORDER BY",      // missing column
		"SELECT a1 FROM t LIMIT",         // missing count
		"SELECT a1 FROM t LIMIT x",       // non-numeric
		"SELECT a1 FROM t LIMIT 0",       // non-positive
		"SELECT a1 FROM t LIMIT 2.5",     // non-integer
		"SELECT a1 FROM t ORDER BY a1 5", // trailing junk
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

// Property: Parse never panics — arbitrary input yields a statement or an
// error, and any statement it does accept re-renders and re-parses.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", input, r)
				ok = false
			}
		}()
		stmt, err := Parse(input)
		if err != nil {
			return true
		}
		rendered := stmt.String()
		if _, err := Parse(rendered); err != nil {
			t.Logf("accepted %q but rejected its rendering %q: %v", input, rendered, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// A few adversarial shapes quick.Check is unlikely to generate.
	for _, sql := range []string{
		"SELECT", "SELECT SELECT FROM FROM", "SELECT a1 FROM t WHERE WHERE",
		"SELECT ((((", "SELECT a1 FROM t GROUP BY GROUP", ";;;;",
		"select a1 from t order order", "SELECT a1 FROM t LIMIT LIMIT",
		"SELECT SUM(SUM(a1)) FROM t", "SELECT a1 FROM t WHERE a1 < 1e999",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", sql, r)
				}
			}()
			_, _ = Parse(sql)
		}()
	}
}

func TestParseMultiJoin(t *testing.T) {
	sql := "SELECT a.a1 FROM ta a JOIN tb b ON a.a1 = b.a1 JOIN tc c ON b.a1 = c.a1 CROSS JOIN td"
	stmt := mustParse(t, sql)
	if len(stmt.Joins) != 3 {
		t.Fatalf("joins = %d, want 3", len(stmt.Joins))
	}
	if stmt.Joins[0].Table.Name != "tb" || stmt.Joins[1].Table.Name != "tc" || !stmt.Joins[2].Cross {
		t.Errorf("joins = %+v", stmt.Joins)
	}
	if stmt.Joins[1].Left.String() != "b.a1" || stmt.Joins[1].Right.String() != "c.a1" {
		t.Errorf("second condition = %s = %s", stmt.Joins[1].Left, stmt.Joins[1].Right)
	}
	// Stable rendering round trip.
	rendered := stmt.String()
	stmt2 := mustParse(t, rendered)
	if stmt2.String() != rendered {
		t.Errorf("round trip: %q vs %q", rendered, stmt2.String())
	}
}

// TestParseIntoReusedStatement: a statement parsed into one that held another
// — a longer one, with every clause and backing overflowed, or a failed
// parse — is the statement Parse builds, field for field and rendering for
// rendering.
func TestParseIntoReusedStatement(t *testing.T) {
	long := "SELECT r.a1, s.a2, SUM(r.a3 + s.a4 - 2), COUNT(*) FROM t1 r JOIN t2 s ON r.a1 = s.a1 CROSS JOIN t3 " +
		"WHERE r.a1 + s.z < 500000 AND s.a2 >= 3 GROUP BY r.a1, s.a2 ORDER BY r.a1 DESC LIMIT 10"
	var dst SelectStmt
	for _, sql := range []string{
		long,
		"SELECT a1 FROM t1",
		long,
		"SELECT a1 FROM",
		"SELECT a100, SUM(a1), COUNT(*) FROM t10000_250 WHERE a2 < 17 GROUP BY a100",
	} {
		want, werr := Parse(sql)
		err := ParseInto(&dst, sql)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseInto(%q) = %v, Parse %v", sql, err, werr)
		}
		if err != nil {
			continue
		}
		if dst.String() != want.String() || !reflect.DeepEqual(dst.Items, want.Items) ||
			!reflect.DeepEqual(dst.Joins, want.Joins) || !reflect.DeepEqual(dst.Where, want.Where) ||
			!reflect.DeepEqual(dst.GroupBy, want.GroupBy) || !reflect.DeepEqual(dst.OrderBy, want.OrderBy) ||
			dst.From != want.From || dst.Limit != want.Limit {
			t.Errorf("ParseInto(%q) into a used statement:\n got %+v\nwant %+v", sql, dst, *want)
		}
	}
}
