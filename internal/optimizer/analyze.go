// Package optimizer implements the master engine's federated planning: it
// binds a parsed SQL statement against the catalog, derives operator specs
// (cardinalities, row sizes, projections, selectivities), enumerates the
// placement candidates the paper describes in Section 2 — an operator may
// run on a remote system that holds a copy of (part of) its input, or on the
// master — costs every candidate with the remote systems' cost estimators plus
// QueryGrid transfer estimates, and picks the cheapest plan.
package optimizer

import (
	"fmt"
	"math"
	"slices"

	"intellisphere/internal/catalog"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/sqlparse"
)

// binding is one table of the statement under the name the query uses for
// it (alias or table name).
type binding struct {
	name  string
	table *catalog.Table
	// sel is the combined selectivity of the WHERE predicates that touch
	// only this binding — the filter QueryGrid pushes down when the table
	// ships, computed once per statement.
	sel float64
	// proj is the byte width of the binding's distinct columns that survive
	// into the output (from the select list, aggregate arguments and GROUP
	// BY): the whole row under a star select, and 4 when none does, since a
	// minimal key column still flows.
	proj float64
}

// predSpan records which bindings a WHERE predicate touches as the lowest
// and highest index into analyzed.binds (-1, -1 when it names no column):
// lo == hi is a single-table filter, lo < hi a cross-table predicate that a
// left-deep chain can apply once binding hi has been joined in. ndv is the
// largest distinct count among its columns, the domain its selectivity is
// taken over (0 when it names none).
type predSpan struct {
	lo, hi int
	ndv    float64
}

// joinStep is one resolved left-deep join: the new table's binding (an index
// into analyzed.binds), its join column, and the earlier binding and column
// it probes (-1 and zero columns for CROSS).
type joinStep struct {
	newBind  int
	newCol   catalog.Column
	probe    int
	probeCol catalog.Column
	cross    bool
}

// analyzed is the bound form of a statement: every column reference is
// resolved once, by analyze, and the planning passes read what it derived.
type analyzed struct {
	stmt *sqlparse.SelectStmt
	// binds lists the table bindings in FROM order. The chain is joined
	// left-deep in that order, so the bindings available after join i are
	// binds[:i+2].
	binds []binding
	// preds aligns with stmt.Where, joins with stmt.Joins.
	preds []predSpan
	joins []joinStep
	// groupNDV is the product of the GROUP BY columns' distinct counts, in
	// GROUP BY order (1 without one). aggWidth is an aggregation's output
	// row width, the group keys plus eight bytes per aggregate (at least 8),
	// and numAggs its aggregate count.
	groupNDV, aggWidth float64
	numAggs            int
	// exclude names systems degraded re-planning must avoid (failed or
	// open-circuited remotes); nil for a normal plan.
	exclude map[string]bool
}

// projCol is a column counted into its binding's projected width.
type projCol struct {
	bind int
	name string
}

// analyze resolves every table and column reference, each once, and derives
// from them what planning reads: per binding its selectivity and projected
// width, per predicate its span and dominant NDV, the join chain, and the
// aggregation's group count and output width, so that planning a bound
// statement cannot fail on a column. binds, preds and joins grow from the
// caller's backing, and the result is returned by value: a slice stored
// through a pointer would take its backing to the heap.
func analyze(stmt *sqlparse.SelectStmt, cat *catalog.Catalog, binds []binding, preds []predSpan, joins []joinStep) (analyzed, error) {
	a := analyzed{stmt: stmt, binds: binds[:0], preds: preds[:0], joins: joins[:0], groupNDV: 1}
	add := func(tr sqlparse.TableRef) error {
		t, err := cat.Lookup(tr.Name)
		if err != nil {
			return err
		}
		b := tr.Binding()
		if a.bindingIndex(b) >= 0 {
			return fmt.Errorf("optimizer: duplicate table binding %q", b)
		}
		a.binds = append(a.binds, binding{name: b, table: t, sel: 1})
		return nil
	}
	if err := add(stmt.From); err != nil {
		return analyzed{}, err
	}
	for i := range stmt.Joins {
		if err := add(stmt.Joins[i].Table); err != nil {
			return analyzed{}, err
		}
	}
	var seenBuf [8]projCol
	seen := seenBuf[:0]
	project := func(b int, col catalog.Column) {
		if k := (projCol{b, col.Name}); !slices.Contains(seen, k) {
			seen = append(seen, k)
			a.binds[b].proj += float64(col.Width)
		}
	}
	star := false
	for _, it := range stmt.Items {
		if it.Star {
			star = true
			continue
		}
		if it.Agg != sqlparse.AggNone {
			a.numAggs++
			for _, t := range it.Arg.Terms {
				if t.Col != nil {
					b, col, err := a.resolve(*t.Col)
					if err != nil {
						return analyzed{}, err
					}
					project(b, col)
				}
			}
			continue
		}
		b, col, err := a.resolve(it.Col)
		if err != nil {
			return analyzed{}, err
		}
		project(b, col)
	}
	// Every non-cross condition must link the newly joined table to an
	// earlier one. A condition that does not is reported after the other
	// references have resolved.
	var linkErr error
	for i := range stmt.Joins {
		j := &stmt.Joins[i]
		nb := i + 1
		st := joinStep{newBind: nb, probe: -1, cross: j.Cross}
		if !j.Cross {
			lb, lcol, err := a.resolve(j.Left)
			if err != nil {
				return analyzed{}, err
			}
			rb, rcol, err := a.resolve(j.Right)
			if err != nil {
				return analyzed{}, err
			}
			switch {
			case lb == nb && rb < nb:
				st.newCol, st.probe, st.probeCol = lcol, rb, rcol
			case rb == nb && lb < nb:
				st.newCol, st.probe, st.probeCol = rcol, lb, lcol
			case linkErr == nil:
				linkErr = fmt.Errorf("optimizer: join %d condition %s = %s must link %q to an earlier table",
					nb, j.Left, j.Right, a.binds[nb].name)
			}
		}
		a.joins = append(a.joins, st)
	}
	// Predicates are bound as they are checked: which bindings each touches,
	// its dominant NDV, and the single-table ones folded into their
	// binding's selectivity.
	for _, p := range stmt.Where {
		span := predSpan{lo: -1, hi: -1}
		for _, t := range p.Left.Terms {
			if t.Col == nil {
				continue
			}
			b, col, err := a.resolve(*t.Col)
			if err != nil {
				return analyzed{}, err
			}
			if span.lo < 0 || b < span.lo {
				span.lo = b
			}
			if b > span.hi {
				span.hi = b
			}
			ndv := a.binds[b].table.NDV(col)
			// The all-zero z column has a single value; its presence in a sum
			// does not change the distribution.
			if col.Name == "z" {
				ndv = 1
			}
			if ndv > span.ndv {
				span.ndv = ndv
			}
		}
		a.preds = append(a.preds, span)
		if span.lo >= 0 && span.lo == span.hi {
			a.binds[span.lo].sel *= selectivity(p, span.ndv)
		}
	}
	for _, g := range stmt.GroupBy {
		b, col, err := a.resolve(g)
		if err != nil {
			return analyzed{}, err
		}
		project(b, col)
		a.groupNDV *= a.binds[b].table.NDV(col)
		a.aggWidth += float64(col.Width)
	}
	if linkErr != nil {
		return analyzed{}, linkErr
	}
	a.aggWidth += 8 * float64(a.numAggs)
	if a.aggWidth <= 0 {
		a.aggWidth = 8
	}
	for i := range a.binds {
		bd := &a.binds[i]
		if bd.sel <= 0 {
			bd.sel = 1e-9
		}
		switch {
		case star:
			bd.proj = float64(bd.table.RowSize())
		case bd.proj == 0:
			bd.proj = 4
		}
	}
	return a, nil
}

// bindingIndex finds a binding by the name the query uses for it (-1 when
// there is none).
func (a *analyzed) bindingIndex(name string) int {
	for i := range a.binds {
		if a.binds[i].name == name {
			return i
		}
	}
	return -1
}

// resolve finds the binding (as an index into binds) and column for a
// reference, handling unqualified names by searching every bound table
// (ambiguity is an error). Only analyze calls it.
func (a *analyzed) resolve(c sqlparse.ColRef) (int, catalog.Column, error) {
	if c.Qualifier != "" {
		b := a.bindingIndex(c.Qualifier)
		if b < 0 {
			return -1, catalog.Column{}, fmt.Errorf("optimizer: unknown table binding %q", c.Qualifier)
		}
		t := a.binds[b].table
		col, ok := t.Schema.Column(c.Column)
		if !ok {
			return -1, catalog.Column{}, fmt.Errorf("optimizer: table %q has no column %q", t.Name, c.Column)
		}
		return b, col, nil
	}
	found := -1
	var foundCol catalog.Column
	for b := range a.binds {
		if col, ok := a.binds[b].table.Schema.Column(c.Column); ok {
			if found >= 0 {
				return -1, catalog.Column{}, fmt.Errorf("optimizer: ambiguous column %q", c.Column)
			}
			found = b
			foundCol = col
		}
	}
	if found < 0 {
		return -1, catalog.Column{}, fmt.Errorf("optimizer: unknown column %q", c.Column)
	}
	return found, foundCol, nil
}

// selectivity estimates the fraction of rows surviving p over a dominant
// column with ndv distinct values, by the classic uniform-domain heuristics:
// equality keeps 1/ndv; range predicates over values in [0, ndv) keep
// threshold/ndv; inequality keeps 1 - 1/ndv. A predicate over no column
// with a domain keeps every row.
func selectivity(p sqlparse.Predicate, ndv float64) float64 {
	if ndv <= 0 {
		return 1
	}
	clamp := func(s float64) float64 {
		if s <= 0 {
			return 1.0 / ndv
		}
		if s > 1 {
			return 1
		}
		return s
	}
	switch p.Op {
	case "=":
		return clamp(1 / ndv)
	case "<>":
		return clamp(1 - 1/ndv)
	case "<", "<=":
		return clamp(p.Value / ndv)
	case ">", ">=":
		return clamp(1 - p.Value/ndv)
	default:
		return 1
	}
}

// side builds the plan.TableSide for one binding after its local filters,
// keyed on key unless it is the zero column (no join condition).
func (a *analyzed) side(b int, key catalog.Column) plan.TableSide {
	bd := &a.binds[b]
	t := bd.table
	rows := float64(t.Rows) * bd.sel
	if rows < 1 {
		rows = 1
	}
	s := plan.TableSide{
		Rows:          rows,
		RowSize:       float64(t.RowSize()),
		ProjectedSize: bd.proj,
	}
	if key.Name != "" {
		s.KeyNDV = math.Min(t.NDV(key), rows)
		s.PartitionedOn = t.PartitionedOn == key.Name
		s.SortedOn = t.SortedOn == key.Name
	}
	return s
}

// groupRows estimates an aggregation's output cardinality over inputRows
// (at least 1): the GROUP BY columns' distinct-count product, capped by the
// input and at least 1, so 1 for a global aggregate.
func (a *analyzed) groupRows(inputRows float64) float64 {
	prod := a.groupNDV
	if prod > inputRows {
		prod = inputRows
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// copiesOf appends to an empty buf the systems binding b's table can be read
// from: its owner (the master for a local table), then its replicas in
// catalog order, each once (a local table may list the master as a replica),
// leaving out the systems degraded re-planning excludes. A table whose
// owner and replicas are all excluded is unreachable and fails the plan.
func (a *analyzed) copiesOf(b int, buf []string) ([]string, error) {
	t := a.binds[b].table
	owner := t.System
	if owner == "" {
		owner = querygrid.Master
	}
	if !a.exclude[owner] {
		buf = append(buf, owner)
	}
	for _, r := range t.Replicas {
		if !a.exclude[r] {
			buf = addSite(buf, r)
		}
	}
	if len(buf) == 0 {
		return nil, fmt.Errorf("optimizer: table %q is unreachable: owner %q and every replica excluded", t.Name, owner)
	}
	return buf, nil
}
