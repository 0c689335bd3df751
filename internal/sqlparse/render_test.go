package sqlparse

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The ref* functions are the fmt-based renderers the append-based ones in
// ast.go replaced, kept as the reference the differential tests compare
// against: the canonical text is optimizer.Cache's key and the item
// renderings are part of every row answer, so none may change by a byte.

func refColRef(c ColRef) string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

func refExpr(e Expr) string {
	var b strings.Builder
	for i, t := range e.Terms {
		if i > 0 {
			if t.Negated {
				b.WriteString(" - ")
			} else {
				b.WriteString(" + ")
			}
		} else if t.Negated {
			b.WriteString("-")
		}
		if t.Col != nil {
			b.WriteString(refColRef(*t.Col))
		} else {
			fmt.Fprintf(&b, "%g", t.Constant)
		}
	}
	return b.String()
}

func refPredicate(p Predicate) string {
	return fmt.Sprintf("%s %s %g", refExpr(p.Left), p.Op, p.Value)
}

func refSelectItem(s SelectItem) string {
	var body string
	switch {
	case s.Star:
		body = "*"
	case s.Agg != AggNone:
		body = fmt.Sprintf("%s(%s)", s.Agg, refExpr(s.Arg))
	default:
		body = refColRef(s.Col)
	}
	if s.Alias != "" {
		body += " AS " + s.Alias
	}
	return body
}

func refRender(s *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(refSelectItem(it))
	}
	b.WriteString(" FROM " + s.From.Name)
	if s.From.Alias != "" {
		b.WriteString(" " + s.From.Alias)
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		if j.Cross {
			b.WriteString(" CROSS JOIN " + j.Table.Name)
		} else {
			b.WriteString(" JOIN " + j.Table.Name)
		}
		if j.Table.Alias != "" {
			b.WriteString(" " + j.Table.Alias)
		}
		if !j.Cross {
			fmt.Fprintf(&b, " ON %s = %s", refColRef(j.Left), refColRef(j.Right))
		}
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(refPredicate(p))
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refColRef(c))
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refColRef(o.Col))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// checkRender compares every renderer of a parsed statement with its
// reference.
func checkRender(t *testing.T, stmt *SelectStmt) {
	t.Helper()
	want := refRender(stmt)
	if got := stmt.String(); got != want {
		t.Errorf("String() = %q, reference %q", got, want)
	}
	for _, it := range stmt.Items {
		if got, want := it.String(), refSelectItem(it); got != want {
			t.Errorf("SelectItem.String() = %q, reference %q", got, want)
		}
	}
	for _, p := range stmt.Where {
		if got, want := p.String(), refPredicate(p); got != want {
			t.Errorf("Predicate.String() = %q, reference %q", got, want)
		}
		if got, want := p.Left.String(), refExpr(p.Left); got != want {
			t.Errorf("Expr.String() = %q, reference %q", got, want)
		}
	}
}

// renderStatements are the statement families the serving path sees (the
// demo's and the benchmark generator's three templates) plus every clause
// the grammar has.
var renderStatements = []string{
	"SELECT a1 FROM t10000_100 WHERE a1 < 100",
	"SELECT a1 FROM t80000000_1000 WHERE a1 < 60000000",
	"SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2",
	"SELECT t1000000_100.a1 FROM t1000000_100 JOIN t100000_100 ON t1000000_100.a1 = t100000_100.a1",
	"SELECT users.a1 FROM users JOIN events ON users.a1 = events.a1",
	"SELECT warehouse.a1 FROM warehouse JOIN t10000000_250 ON warehouse.a1 = t10000000_250.a1",
	"SELECT a1 FROM dim_local",
	"SELECT * FROM a CROSS JOIN b b2 ORDER BY a1 DESC, a2 LIMIT 9223372036854775807",
	"SELECT a5 AS five, SUM(-a1 + 2.5 - z) total, MIN(a2), MAX(a2), AVG(1e21) FROM t AS x GROUP BY a5, a10",
	"SELECT r.a1 FROM r INNER JOIN s ON r.a1 = s.a1 JOIN u ON u.a2 = r.a2 WHERE r.a1 + s.z < 500000 AND -r.a2 - 3 >= 1e-7 AND 5 <> 0.1",
	"SELECT größe AS g FROM tabelle_ü WHERE größe <= 123456789012345678901234",
}

func TestRenderMatchesReference(t *testing.T) {
	for _, sql := range renderStatements {
		checkRender(t, mustParse(t, sql))
	}
	// A seeded literal sweep over the benchmark's templates: integers,
	// fractions, and magnitudes on both sides of %g's switch to exponents.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		lit := math.Round(math.Pow(10, 8*rng.Float64()))
		switch i % 5 {
		case 3:
			lit = rng.Float64() * 1e-3
		case 4:
			lit = math.Ldexp(rng.Float64(), rng.Intn(160)-40)
		}
		num := fmt.Sprintf("%v", lit)
		for _, sql := range []string{
			"SELECT a1, a5 FROM t1000000_100 WHERE a5 < " + num,
			"SELECT a100, SUM(a1), COUNT(*) FROM t10000_250 WHERE a2 < " + num + " GROUP BY a100",
			"SELECT r.a1, s.a2 FROM t80000000_250 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 + " + num + " < " + num,
		} {
			checkRender(t, mustParse(t, sql))
		}
	}
}

// A statement too long for render's stack buffer still renders whole.
func TestRenderLongStatement(t *testing.T) {
	sql := "SELECT a1 FROM t WHERE a1 < 1" + strings.Repeat(" AND a_rather_long_column_name + another_one < 12345.678", 40)
	stmt := mustParse(t, sql)
	if len(stmt.String()) < 2000 {
		t.Fatalf("rendering is %d bytes", len(stmt.String()))
	}
	checkRender(t, stmt)
}
