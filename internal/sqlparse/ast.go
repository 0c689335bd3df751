package sqlparse

import "strconv"

// ColRef names a column, optionally qualified by a table name or alias.
type ColRef struct {
	Qualifier string // "" when unqualified
	Column    string
}

// String renders the reference in SQL form.
func (c ColRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

func (c ColRef) appendTo(b []byte) []byte {
	if c.Qualifier != "" {
		b = append(append(b, c.Qualifier...), '.')
	}
	return append(b, c.Column...)
}

// appendNumber renders a literal the way fmt's %g does: the shortest text
// that parses back to the same float64.
func appendNumber(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Term is one additive component of an expression: either a column
// reference or a numeric constant.
type Term struct {
	Col      *ColRef
	Constant float64 // used when Col is nil
	Negated  bool    // subtracted rather than added
}

// Expr is a sum of terms (the grammar the Figure 10 predicates need:
// "r.a1 + s.z").
type Expr struct {
	Terms []Term
}

// String renders the expression in SQL form.
func (e Expr) String() string { return string(e.appendTo(nil)) }

func (e Expr) appendTo(b []byte) []byte {
	for i, t := range e.Terms {
		if i > 0 {
			if t.Negated {
				b = append(b, " - "...)
			} else {
				b = append(b, " + "...)
			}
		} else if t.Negated {
			b = append(b, '-')
		}
		if t.Col != nil {
			b = t.Col.appendTo(b)
		} else {
			b = appendNumber(b, t.Constant)
		}
	}
	return b
}

// Predicate is one conjunct of the WHERE clause: expr OP literal.
type Predicate struct {
	Left  Expr
	Op    string // =, <, <=, >, >=, <>
	Value float64
}

// String renders the predicate in SQL form.
func (p Predicate) String() string { return string(p.appendTo(nil)) }

func (p Predicate) appendTo(b []byte) []byte {
	b = append(p.Left.appendTo(b), ' ')
	b = append(append(b, p.Op...), ' ')
	return appendNumber(b, p.Value)
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc string

// Supported aggregates.
const (
	AggNone  AggFunc = ""
	AggSum   AggFunc = "SUM"
	AggCount AggFunc = "COUNT"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// SelectItem is one output column: `*`, a plain column, or an aggregate
// over an additive expression.
type SelectItem struct {
	Star  bool
	Col   ColRef  // plain column when Agg == AggNone and !Star
	Agg   AggFunc // aggregate function, AggNone for plain columns
	Arg   Expr    // aggregate argument
	Alias string
}

// String renders the item in SQL form.
func (s SelectItem) String() string { return string(s.appendTo(nil)) }

func (s SelectItem) appendTo(b []byte) []byte {
	switch {
	case s.Star:
		b = append(b, '*')
	case s.Agg != AggNone:
		b = append(append(b, s.Agg...), '(')
		b = append(s.Arg.appendTo(b), ')')
	default:
		b = s.Col.appendTo(b)
	}
	if s.Alias != "" {
		b = append(append(b, " AS "...), s.Alias...)
	}
	return b
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the rest of the query uses for this table.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is the optional two-table equi-join (or CROSS JOIN).
type JoinClause struct {
	Table TableRef
	// Left/Right are the equi-join columns; empty for CROSS JOIN.
	Left, Right ColRef
	Cross       bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// SelectStmt is the parsed statement. Limit is 0 when no LIMIT clause was
// given. Joins holds the JOIN clauses in source order (a left-deep chain).
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   []Predicate
	GroupBy []ColRef
	OrderBy []OrderItem
	Limit   int64

	// Backing the parser grows the clause slices above from — the parser is
	// the only code that appends to them — sized for the serving templates,
	// so that parsing one is this one allocation (of 768 B, a size class):
	// select items, joins, WHERE predicates, GROUP BY columns, the terms of
	// every expression, and the columns those terms point to. A longer clause
	// moves to the heap by append.
	itemBuf  [3]SelectItem
	joinBuf  [1]JoinClause
	whereBuf [1]Predicate
	groupBuf [1]ColRef
	termBuf  [3]Term
	colBuf   [2]ColRef
}

// grow appends v to s, starting s on buf while it is still nil.
func grow[T any](s, buf []T, v T) []T {
	if s == nil {
		s = buf[:0]
	}
	return append(s, v)
}

// HasAggregates reports whether any select item aggregates.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// String renders the statement back to SQL — its canonical text, the same for
// every spelling of one statement — from the tree, in one buffer, on every
// call: nothing on the serving path asks for it (optimizer.Cache keys on it,
// and the server does not plan through that).
func (s *SelectStmt) String() string {
	var buf [256]byte // most statements fit: the text is then copied once
	b := append(buf[:0], "SELECT "...)
	for i, it := range s.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = it.appendTo(b)
	}
	b = append(append(b, " FROM "...), s.From.Name...)
	if s.From.Alias != "" {
		b = append(append(b, ' '), s.From.Alias...)
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		if j.Cross {
			b = append(b, " CROSS JOIN "...)
		} else {
			b = append(b, " JOIN "...)
		}
		b = append(b, j.Table.Name...)
		if j.Table.Alias != "" {
			b = append(append(b, ' '), j.Table.Alias...)
		}
		if !j.Cross {
			b = j.Left.appendTo(append(b, " ON "...))
			b = j.Right.appendTo(append(b, " = "...))
		}
	}
	for i, p := range s.Where {
		if i == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = p.appendTo(b)
	}
	for i, c := range s.GroupBy {
		if i == 0 {
			b = append(b, " GROUP BY "...)
		} else {
			b = append(b, ", "...)
		}
		b = c.appendTo(b)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b = append(b, " ORDER BY "...)
		} else {
			b = append(b, ", "...)
		}
		b = o.Col.appendTo(b)
		if o.Desc {
			b = append(b, " DESC"...)
		}
	}
	if s.Limit > 0 {
		b = strconv.AppendInt(append(b, " LIMIT "...), s.Limit, 10)
	}
	return string(b)
}
