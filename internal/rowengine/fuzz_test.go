package rowengine

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"intellisphere/internal/datagen"
	"intellisphere/internal/sqlparse"
)

// fuzzSizes are the table cardinalities FuzzExecute draws from: a table that
// needs two doublings of every hash table, one that fits the first, a
// single row, and none. Size 0 cannot come from Materialize; it is what a
// filter that keeps nothing looks like to the levels after it.
var fuzzSizes = []int{37, 211, 1, 0}

func fuzzTables() map[string]*Table {
	out := map[string]*Table{}
	for _, n := range fuzzSizes {
		t := &Table{Name: "t" + strconv.Itoa(n)}
		if n > 0 {
			rows, err := datagen.Materialize(int64(n))
			if err != nil {
				panic(err)
			}
			t.Rows = rows
		}
		out[t.Name] = t
	}
	return out
}

// stmtGen turns fuzz bytes into one statement: every decision is one byte
// (zero once the input runs out), so the all-zeros input is the plainest
// statement and the fuzzer's byte mutations are statement mutations.
type stmtGen struct {
	data     []byte
	bindings []string
	outputs  []string // output column names as ORDER BY may spell them
	// tuples bounds the join's size: the oracle materializes every one, so the
	// fuzz target skips the few statements that would cost it seconds.
	tuples int
}

func (g *stmtGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// column is mostly a materialized column, now and then the one that is not.
func (g *stmtGen) column() string {
	c := g.pick(64)
	if c == 63 {
		return "dummy"
	}
	names := datagen.ColumnNames()
	return names[c%len(names)]
}

// ref is a column reference: qualified by one of the statement's bindings,
// unqualified (fine over one table, ambiguous in a join), or — rarely —
// qualified by a binding that does not exist.
func (g *stmtGen) ref() string {
	q := g.pick(64)
	switch {
	case q == 63:
		return "x." + g.column()
	case len(g.bindings) == 1 && q < 32, q == 62:
		return g.column()
	}
	return g.bindings[q%len(g.bindings)] + "." + g.column()
}

// expr is an additive expression of one to three terms.
func (g *stmtGen) expr() string {
	var b strings.Builder
	if g.pick(8) == 7 {
		b.WriteString("-")
	}
	for i, n := 0, 1+g.pick(8)/3%3; i < n; i++ {
		if i > 0 {
			b.WriteString([]string{" + ", " - "}[g.pick(2)])
		}
		if g.pick(4) == 3 {
			b.WriteString([]string{"1", "0.5", "7", "1000000"}[g.pick(4)])
		} else {
			b.WriteString(g.ref())
		}
	}
	return b.String()
}

func (g *stmtGen) statement() string {
	var from strings.Builder
	n := 1 + g.pick(3)
	for i := 0; i < n; i++ {
		rows := fuzzSizes[g.pick(len(fuzzSizes))]
		table := "t" + strconv.Itoa(rows)
		binding := table
		if g.pick(4) != 3 {
			binding = []string{"r", "s", "u"}[i]
			table += " " + binding
		}
		g.bindings = append(g.bindings, binding)
		if i == 0 {
			from.WriteString(" FROM " + table)
			g.tuples = rows
			continue
		}
		matches := rows // of one probe, at most
		// A join: CROSS, or ON <earlier binding>.col = <this binding>.col with
		// the sides in either order; one in sixteen conditions is drawn from
		// all references instead, which may or may not be a valid condition.
		switch k := g.pick(16); {
		case k < 4:
			from.WriteString(" CROSS JOIN " + table)
		case k == 15:
			from.WriteString(" JOIN " + table + " ON " + g.ref() + " = " + g.ref())
		default:
			probe := g.bindings[g.pick(i)] + "." + g.column()
			col := g.column()
			build := binding + "." + col
			if off, err := datagen.ColumnIndex(col); err == nil && off < len(datagen.DupFactors()) {
				matches = min(rows, datagen.DupFactors()[off])
			}
			if k%2 == 1 {
				probe, build = build, probe
			}
			from.WriteString(" JOIN " + table + " ON " + probe + " = " + build)
		}
		g.tuples *= matches
	}

	var sel, tail strings.Builder
	item := func(text string) {
		if sel.Len() > 0 {
			sel.WriteString(", ")
		}
		name := text
		if g.pick(4) == 3 {
			name = "c" + strconv.Itoa(len(g.outputs))
			text += " AS " + name
		}
		sel.WriteString(text)
		g.outputs = append(g.outputs, name)
	}
	switch mode := g.pick(8); {
	case mode == 7:
		sel.WriteString("*")
		if g.pick(8) == 7 {
			sel.WriteString(", COUNT(*)")
		}
	case mode < 4:
		for i, n := 0, 1+g.pick(3); i < n; i++ {
			item(g.ref())
		}
	default:
		// Aggregation: zero to two GROUP BY keys; each select item is a key,
		// an aggregate, or (one in eight) any reference at all, which fails
		// unless it happens to be a key.
		var keys []string
		for i, n := 0, g.pick(3); i < n; i++ {
			keys = append(keys, g.ref())
		}
		for i, n := 0, 1+g.pick(3); i < n; i++ {
			switch k := g.pick(8); {
			case k < 3 && len(keys) > 0:
				item(keys[g.pick(len(keys))])
			case k == 7:
				item(g.ref())
			case k == 6:
				item("COUNT(*)")
			default:
				fn := []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}[g.pick(5)]
				item(fn + "(" + g.expr() + ")")
			}
		}
		if len(keys) > 0 {
			tail.WriteString(" GROUP BY " + strings.Join(keys, ", "))
		}
	}

	var where strings.Builder
	for i, n := 0, g.pick(4); i < n; i++ {
		where.WriteString([]string{" WHERE ", " AND "}[min(i, 1)])
		op := []string{"<", "<=", "=", ">=", ">", "<>"}[g.pick(6)]
		lit := strconv.Itoa(g.pick(256))
		if g.pick(8) == 7 {
			lit += ".5"
		}
		where.WriteString(g.expr() + " " + op + " " + lit)
	}

	for i, n := 0, g.pick(3); i < n; i++ {
		tail.WriteString([]string{" ORDER BY ", ", "}[min(i, 1)])
		// An output column by its name or by its bare column name (an
		// aggregate without an alias has no name ORDER BY can spell), or
		// any reference at all.
		name := g.ref()
		if k := g.pick(8); k < 6 && len(g.outputs) > 0 {
			if out := g.outputs[g.pick(len(g.outputs))]; !strings.Contains(out, "(") {
				name = out
				if dot := strings.IndexByte(name, '.'); k >= 4 && dot >= 0 {
					name = name[dot+1:]
				}
			}
		}
		tail.WriteString(name)
		if g.pick(2) == 1 {
			tail.WriteString(" DESC")
		}
	}
	if l := g.pick(8); l >= 5 {
		tail.WriteString(" LIMIT " + strconv.Itoa(1+g.pick(40)))
	}
	return "SELECT " + sel.String() + from.String() + where.String() + tail.String()
}

// FuzzExecute is the differential test of the pipeline against the
// interpreter it replaced (oracle_test.go): the fuzz input drives stmtGen —
// one to three bindings over tables of 0, 1, 37 and 211 rows, equi and cross
// joins, zero to three additive WHERE conjuncts with every operator, every
// aggregate, aliases, *, GROUP BY of zero to two keys, ORDER BY, LIMIT, and
// a steady trickle of statements that must be refused. Properties:
//
//   - when the oracle answers, the engine answers the same Columns and the
//     same Rows in the same order, reflect.DeepEqual;
//   - when the oracle refuses, so does the engine;
//   - the engine may refuse what the oracle answered only where the oracle
//     never looked: it resolves a reference when a row reaches it, the engine
//     when it binds, so a bad reference behind an empty input is an error
//     here and an empty answer there. The oracle's answer must then be empty.
func FuzzExecute(f *testing.F) {
	tables := fuzzTables()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := stmtGen{data: data}
		sql := g.statement()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("generator wrote unparseable SQL %q: %v", sql, err)
		}
		if g.tuples > 1<<17 {
			t.Skip("too large a join for the oracle")
		}
		want, werr := oracleExecute(stmt, tables)
		got, gerr := Execute(stmt, tables)
		switch {
		case werr != nil && gerr == nil:
			t.Fatalf("%s\noracle refused (%v), engine answered %d rows", sql, werr, len(got.Rows))
		case werr != nil:
		case gerr != nil:
			if len(want.Rows) != 0 {
				t.Fatalf("%s\nengine refused (%v), oracle answered %d rows", sql, gerr, len(want.Rows))
			}
		case !reflect.DeepEqual(got.Columns, want.Columns):
			t.Fatalf("%s\ncolumns = %q, oracle %q", sql, got.Columns, want.Columns)
		case !reflect.DeepEqual(got.Rows, want.Rows):
			t.Fatalf("%s\nrows differ from the oracle's:\n got  %v\n want %v", sql, clip(got.Rows), clip(want.Rows))
		}
	})
}

// clip keeps a failure message readable.
func clip(rows [][]float64) [][]float64 {
	if len(rows) > 12 {
		return rows[:12]
	}
	return rows
}
