// Package optimizer implements the master engine's federated planning: it
// binds a parsed SQL statement against the catalog, derives operator specs
// (cardinalities, row sizes, projections, selectivities), enumerates the
// placement candidates the paper describes in Section 2 — an operator may
// run on a remote system that owns (part of) its input, or on the master —
// costs every candidate with the remote systems' cost estimators plus
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
}

// predSpan records which bindings a WHERE predicate touches as the lowest
// and highest index into analyzed.binds (-1, -1 when it names no column):
// lo == hi is a single-table filter, lo < hi a cross-table predicate that a
// left-deep chain can apply once binding hi has been joined in.
type predSpan struct{ lo, hi int }

// analyzed is the bound form of a statement.
type analyzed struct {
	stmt *sqlparse.SelectStmt
	// binds lists the table bindings in FROM order. The chain is joined
	// left-deep in that order, so the bindings available after join i are
	// binds[:i+2].
	binds []binding
	// preds aligns with stmt.Where.
	preds []predSpan
	// exclude names systems degraded re-planning must avoid (failed or
	// open-circuited remotes); nil for a normal plan.
	exclude map[string]bool
}

// analyze resolves every table reference and checks column references. binds
// and preds grow from the caller's backing, and the result is returned by
// value: a slice stored through a pointer would take its backing to the heap.
func analyze(stmt *sqlparse.SelectStmt, cat *catalog.Catalog, binds []binding, preds []predSpan) (analyzed, error) {
	a := analyzed{stmt: stmt, binds: binds[:0], preds: preds[:0]}
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
	// Validate column references in the select list, join condition,
	// predicates, and group-by.
	check := func(c sqlparse.ColRef) error {
		_, _, err := a.resolve(c)
		return err
	}
	for _, it := range stmt.Items {
		if it.Star {
			continue
		}
		if it.Agg != sqlparse.AggNone {
			for _, t := range it.Arg.Terms {
				if t.Col != nil {
					if err := check(*t.Col); err != nil {
						return analyzed{}, err
					}
				}
			}
			continue
		}
		if err := check(it.Col); err != nil {
			return analyzed{}, err
		}
	}
	for i := range stmt.Joins {
		if stmt.Joins[i].Cross {
			continue
		}
		if err := check(stmt.Joins[i].Left); err != nil {
			return analyzed{}, err
		}
		if err := check(stmt.Joins[i].Right); err != nil {
			return analyzed{}, err
		}
	}
	// Predicates are bound as they are checked: which bindings each touches,
	// and the single-table ones folded into their binding's selectivity.
	for _, p := range stmt.Where {
		span := predSpan{lo: -1, hi: -1}
		for _, t := range p.Left.Terms {
			if t.Col == nil {
				continue
			}
			b, _, err := a.resolve(*t.Col)
			if err != nil {
				return analyzed{}, err
			}
			if span.lo < 0 || b < span.lo {
				span.lo = b
			}
			if b > span.hi {
				span.hi = b
			}
		}
		a.preds = append(a.preds, span)
		if span.lo >= 0 && span.lo == span.hi {
			s, err := a.predicateSelectivity(p, 0)
			if err != nil {
				return analyzed{}, err
			}
			a.binds[span.lo].sel *= s
		}
	}
	for _, g := range stmt.GroupBy {
		if err := check(g); err != nil {
			return analyzed{}, err
		}
	}
	for i := range a.binds {
		if a.binds[i].sel <= 0 {
			a.binds[i].sel = 1e-9
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
// (ambiguity is an error).
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

// projectedSize computes the projected byte width of one binding: the
// distinct columns of it that survive into the output (from the select
// list, aggregate arguments, and group-by). A star select keeps every
// column.
func (a *analyzed) projectedSize(b int) (float64, error) {
	var seenBuf [8]string
	seen := seenBuf[:0]
	width := 0
	addRef := func(c sqlparse.ColRef) error {
		cb, col, err := a.resolve(c)
		if err != nil || cb != b {
			return err
		}
		if !slices.Contains(seen, col.Name) {
			seen = append(seen, col.Name)
			width += col.Width
		}
		return nil
	}
	t := a.binds[b].table
	for _, it := range a.stmt.Items {
		if it.Star {
			return float64(t.RowSize()), nil
		}
		if it.Agg != sqlparse.AggNone {
			for _, term := range it.Arg.Terms {
				if term.Col != nil {
					if err := addRef(*term.Col); err != nil {
						return 0, err
					}
				}
			}
			continue
		}
		if err := addRef(it.Col); err != nil {
			return 0, err
		}
	}
	for _, g := range a.stmt.GroupBy {
		if err := addRef(g); err != nil {
			return 0, err
		}
	}
	if len(seen) == 0 {
		// Nothing projected from this side: a minimal key column still flows.
		return 4, nil
	}
	return float64(width), nil
}

// predicateSelectivity estimates the fraction of rows surviving p using the
// classic uniform-domain heuristics: equality on a column with NDV n keeps
// 1/n; range predicates over a dominant column with values in [0, NDV) keep
// threshold/NDV; inequality keeps (1 - 1/n). Columns with constant domains
// (like Figure 10's all-zero z) don't affect the estimate.
func (a *analyzed) predicateSelectivity(p sqlparse.Predicate, keyNDVOverride float64) (float64, error) {
	// Find the dominant (largest-NDV) column in the expression.
	maxNDV := 0.0
	for _, term := range p.Left.Terms {
		if term.Col == nil {
			continue
		}
		b, col, err := a.resolve(*term.Col)
		if err != nil {
			return 0, err
		}
		ndv, err := a.binds[b].table.NDV(col.Name)
		if err != nil {
			return 0, err
		}
		// The all-zero z column has a single value; its presence in a sum
		// does not change the distribution.
		if col.Name == "z" {
			ndv = 1
		}
		if ndv > maxNDV {
			maxNDV = ndv
		}
	}
	if keyNDVOverride > 0 {
		maxNDV = keyNDVOverride
	}
	if maxNDV <= 0 {
		return 1, nil
	}
	clamp := func(s float64) float64 {
		if s <= 0 {
			return 1.0 / maxNDV
		}
		if s > 1 {
			return 1
		}
		return s
	}
	switch p.Op {
	case "=":
		return clamp(1 / maxNDV), nil
	case "<>":
		return clamp(1 - 1/maxNDV), nil
	case "<", "<=":
		return clamp(p.Value / maxNDV), nil
	case ">", ">=":
		return clamp(1 - p.Value/maxNDV), nil
	default:
		return 1, nil
	}
}

// side builds the plan.TableSide for one binding after its local filters.
func (a *analyzed) side(b int, joinCol string) (plan.TableSide, error) {
	t := a.binds[b].table
	proj, err := a.projectedSize(b)
	if err != nil {
		return plan.TableSide{}, err
	}
	rows := float64(t.Rows) * a.binds[b].sel
	if rows < 1 {
		rows = 1
	}
	s := plan.TableSide{
		Rows:          rows,
		RowSize:       float64(t.RowSize()),
		ProjectedSize: proj,
	}
	if joinCol != "" {
		ndv, err := t.NDV(joinCol)
		if err != nil {
			return plan.TableSide{}, err
		}
		s.KeyNDV = math.Min(ndv, rows)
		s.PartitionedOn = t.PartitionedOn == joinCol
		s.SortedOn = t.SortedOn == joinCol
	}
	return s, nil
}

// groupOutputRows estimates GROUP BY output cardinality as the capped
// product of the group columns' distinct counts.
func (a *analyzed) groupOutputRows(inputRows float64) (float64, error) {
	if len(a.stmt.GroupBy) == 0 {
		return 1, nil // global aggregate
	}
	prod := 1.0
	for _, g := range a.stmt.GroupBy {
		b, col, err := a.resolve(g)
		if err != nil {
			return 0, err
		}
		ndv, err := a.binds[b].table.NDV(col.Name)
		if err != nil {
			return 0, err
		}
		prod *= ndv
	}
	if prod > inputRows {
		prod = inputRows
	}
	if prod < 1 {
		prod = 1
	}
	return prod, nil
}

// aggOutputRowSize sums group-key widths plus eight bytes per aggregate.
func (a *analyzed) aggOutputRowSize() (float64, int, error) {
	width := 0.0
	numAggs := 0
	for _, g := range a.stmt.GroupBy {
		_, col, err := a.resolve(g)
		if err != nil {
			return 0, 0, err
		}
		width += float64(col.Width)
	}
	for _, it := range a.stmt.Items {
		if it.Agg != sqlparse.AggNone {
			numAggs++
			width += 8
		}
	}
	if width <= 0 {
		width = 8
	}
	return width, numAggs, nil
}

// systemOf returns the system a binding's table should be read from,
// mapping local tables to the master. The primary owner wins unless it is
// excluded (degraded re-planning), in which case the first non-excluded
// replica takes over; a table whose owner and replicas are all excluded is
// unreachable and fails the plan.
func (a *analyzed) systemOf(b int) (string, error) {
	t := a.binds[b].table
	owner := t.System
	if owner == "" {
		owner = querygrid.Master
	}
	if !a.exclude[owner] {
		return owner, nil
	}
	for _, r := range t.Replicas {
		if !a.exclude[r] {
			return r, nil
		}
	}
	return "", fmt.Errorf("optimizer: table %q is unreachable: owner %q and every replica excluded", t.Name, owner)
}
