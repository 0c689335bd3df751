package rowengine

import (
	"fmt"
	"strings"

	"intellisphere/internal/datagen"
	"intellisphere/internal/sqlparse"
)

// maxBindings bounds the tables of one statement. Every JOIN … ON builds an
// index over its table, so without a bound a megabyte of JOIN clauses is
// gigabytes of indexes; the paper's workloads join two or three tables.
const maxBindings = 16

// rowWidth is the number of columns of a materialized row.
const rowWidth = len(datagen.Row{})

// column is a bound column reference, (binding ordinal in FROM/JOIN order,
// column offset in datagen.Row), as the column's position in a tuple:
// ordinal*rowWidth + offset.
type column int

func (c column) ord() int { return int(c) / rowWidth }
func (c column) off() int { return int(c) % rowWidth }

// term is one bound additive component: a column or a constant.
type term struct {
	col      column
	constant float64 // when !isCol
	isCol    bool
	negated  bool
}

type cmpOp uint8

const (
	opEQ cmpOp = iota
	opLT
	opLE
	opGT
	opGE
	opNE
)

var cmpOps = map[string]cmpOp{"=": opEQ, "<": opLT, "<=": opLE, ">": opGT, ">=": opGE, "<>": opNE}

// predicate is one bound WHERE conjunct: left OP value.
type predicate struct {
	left  []term
	op    cmpOp
	value float64
}

// level is one binding of the left-deep chain. FROM and CROSS JOIN levels
// scan rows; a JOIN … ON level is probed through an index on rows[·][key]
// with the value of probe, a column of an earlier binding.
type level struct {
	rows  []datagen.Row
	where []predicate // the conjuncts that read this binding alone
	equi  bool
	key   int
	probe column

	// The index, built by the run (pipeline.buildIndex).
	shift      uint
	head, next []int32
}

// aggItem is one output column of an aggregation: an aggregate over arg, or
// (fn == AggNone) the GROUP BY key at position key.
type aggItem struct {
	fn  sqlparse.AggFunc
	arg []term
	key int
}

// orderKey is one bound ORDER BY key: an output column and a direction.
type orderKey struct {
	column int
	desc   bool
}

// query is a bound statement: everything the pipeline needs, with no name
// left to resolve and no error left to find.
type query struct {
	bindings []string // in FROM/JOIN order; levels[i] is bindings[i]'s
	levels   []level
	where    []predicate // the conjuncts that read several bindings (or none)
	names    []string    // output column names

	columns []column // projection: the output columns

	aggregate bool // GROUP BY or aggregates: groupBy and items instead of columns
	groupBy   []column
	items     []aggItem

	orderBy []orderKey
	limit   int64
}

// column resolves a reference to its tuple position.
func (q *query) column(c sqlparse.ColRef) (column, error) {
	off, err := datagen.ColumnIndex(c.Column)
	if err != nil {
		return 0, err
	}
	if c.Qualifier == "" {
		if len(q.bindings) > 1 {
			return 0, fmt.Errorf("rowengine: ambiguous unqualified column %q in a join", c.Column)
		}
		return column(off), nil
	}
	for ord, name := range q.bindings {
		if name == c.Qualifier {
			return column(ord*rowWidth + off), nil
		}
	}
	return 0, fmt.Errorf("rowengine: unknown binding %q", c.Qualifier)
}

// expr binds an additive expression.
func (q *query) expr(e sqlparse.Expr) ([]term, error) {
	terms := make([]term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = term{constant: t.Constant, negated: t.Negated}
		if t.Col != nil {
			col, err := q.column(*t.Col)
			if err != nil {
				return nil, err
			}
			terms[i].col, terms[i].isCol = col, true
		}
	}
	return terms, nil
}

// bind resolves and validates the whole statement before a row is read, so
// whether a statement is an error never depends on which rows reach which
// expression.
func bind(stmt *sqlparse.SelectStmt, tables map[string]*Table) (*query, error) {
	if 1+len(stmt.Joins) > maxBindings {
		return nil, fmt.Errorf("rowengine: %d tables in one statement (limit %d)", 1+len(stmt.Joins), maxBindings)
	}
	q := &query{limit: stmt.Limit}
	addLevel := func(tr sqlparse.TableRef) error {
		t, ok := tables[tr.Name]
		if !ok {
			return fmt.Errorf("rowengine: table %q is not materialized", tr.Name)
		}
		name := tr.Binding()
		for _, have := range q.bindings {
			if have == name {
				return fmt.Errorf("rowengine: duplicate binding %q", name)
			}
		}
		q.bindings = append(q.bindings, name)
		q.levels = append(q.levels, level{rows: t.Rows})
		return nil
	}
	if err := addLevel(stmt.From); err != nil {
		return nil, err
	}
	for i := range stmt.Joins {
		if err := addLevel(stmt.Joins[i].Table); err != nil {
			return nil, err
		}
	}

	// One side of each join condition must name the newly joined table; the
	// other is probed with, and must name a binding already in the chain.
	for i := range stmt.Joins {
		j, ord := &stmt.Joins[i], i+1
		if j.Cross {
			continue
		}
		build, err := q.column(j.Left)
		if err != nil {
			return nil, err
		}
		probe, err := q.column(j.Right)
		if err != nil {
			return nil, err
		}
		if build.ord() != ord {
			build, probe = probe, build
		}
		if build.ord() != ord {
			return nil, fmt.Errorf("rowengine: join %d condition does not reference %q", ord, q.bindings[ord])
		}
		if probe.ord() >= ord {
			return nil, fmt.Errorf("rowengine: join %d probes binding %q which is not yet joined", ord, q.bindings[probe.ord()])
		}
		lv := &q.levels[ord]
		lv.equi, lv.key, lv.probe = true, build.off(), probe
	}

	// A conjunct that reads one binding filters that binding's scan (or its
	// index build); the rest wait for the complete tuple.
	for _, w := range stmt.Where {
		left, err := q.expr(w.Left)
		if err != nil {
			return nil, err
		}
		op, ok := cmpOps[w.Op]
		if !ok {
			return nil, fmt.Errorf("rowengine: unknown comparison operator %q", w.Op)
		}
		dst := &q.where
		if ord, ok := onlyBinding(left); ok {
			// Evaluated against that table's row, not the tuple.
			for i := range left {
				left[i].col = column(left[i].col.off())
			}
			dst = &q.levels[ord].where
		}
		*dst = append(*dst, predicate{left: left, op: op, value: w.Value})
	}

	q.aggregate = stmt.HasAggregates() || len(stmt.GroupBy) > 0
	var err error
	if q.aggregate {
		err = q.bindAggregation(stmt)
	} else {
		err = q.bindProjection(stmt)
	}
	if err != nil {
		return nil, err
	}

	for _, o := range stmt.OrderBy {
		j, err := outputColumn(q.names, o.Col)
		if err != nil {
			return nil, err
		}
		q.orderBy = append(q.orderBy, orderKey{column: j, desc: o.Desc})
	}
	return q, nil
}

// onlyBinding returns the one binding an expression's columns read, if there
// is exactly one.
func onlyBinding(e []term) (ord int, ok bool) {
	for _, t := range e {
		if !t.isCol {
			continue
		}
		if ok && t.col.ord() != ord {
			return 0, false
		}
		ord, ok = t.col.ord(), true
	}
	return ord, ok
}

// bindProjection binds a non-aggregate select list, expanding `*` to every
// materialized column of every binding.
func (q *query) bindProjection(stmt *sqlparse.SelectStmt) error {
	for _, it := range stmt.Items {
		if it.Star {
			for ord, binding := range q.bindings {
				for off, name := range datagen.ColumnNames() {
					q.columns = append(q.columns, column(ord*rowWidth+off))
					q.names = append(q.names, binding+"."+name)
				}
			}
			continue
		}
		col, err := q.column(it.Col)
		if err != nil {
			return err
		}
		q.columns = append(q.columns, col)
		name := it.Alias
		if name == "" {
			name = it.Col.String()
		}
		q.names = append(q.names, name)
	}
	return nil
}

// bindAggregation binds GROUP BY and a select list of aggregates and group
// keys. A plain column is a group key only if it binds to the same (binding,
// column) as a GROUP BY entry: r.a1 is not s.a1.
func (q *query) bindAggregation(stmt *sqlparse.SelectStmt) error {
	for _, g := range stmt.GroupBy {
		col, err := q.column(g)
		if err != nil {
			return err
		}
		q.groupBy = append(q.groupBy, col)
	}
	for _, it := range stmt.Items {
		if it.Star {
			return fmt.Errorf("rowengine: * cannot mix with aggregates")
		}
		item := aggItem{fn: it.Agg, key: -1}
		if it.Agg == sqlparse.AggNone {
			col, err := q.column(it.Col)
			if err != nil {
				return err
			}
			for k, g := range q.groupBy {
				if g == col {
					item.key = k
					break
				}
			}
			if item.key < 0 {
				return fmt.Errorf("rowengine: column %s not in GROUP BY", it.Col)
			}
		} else {
			arg, err := q.expr(it.Arg)
			if err != nil {
				return err
			}
			item.arg = arg
		}
		q.items = append(q.items, item)
		name := it.Alias
		if name == "" {
			name = it.String()
		}
		q.names = append(q.names, name)
	}
	return nil
}

// outputColumn resolves an ORDER BY reference against the output column
// names. The exact rendered name or alias wins outright; failing that, a
// qualified reference matches its bare column name (t.a1 finds a1), and an
// unqualified one matches a qualified output of that column (a1 finds r.a1).
func outputColumn(names []string, c sqlparse.ColRef) (int, error) {
	want := c.String()
	exact := func(name string) bool { return name == want }
	loose := func(name string) bool {
		if c.Qualifier != "" {
			return name == c.Column
		}
		return strings.HasSuffix(name, "."+c.Column)
	}
	for _, matches := range []func(string) bool{exact, loose} {
		match := -1
		for j, name := range names {
			if !matches(name) {
				continue
			}
			if match >= 0 {
				return 0, fmt.Errorf("rowengine: ambiguous ORDER BY column %q", want)
			}
			match = j
		}
		if match >= 0 {
			return match, nil
		}
	}
	return 0, fmt.Errorf("rowengine: ORDER BY column %q is not in the output", want)
}
