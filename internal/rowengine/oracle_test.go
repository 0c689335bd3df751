package rowengine

// The oracle: the row-at-a-time interpreter this package shipped before the
// bind-once pipeline replaced it, kept verbatim as the reference FuzzExecute
// compares against. It materializes every intermediate relation and resolves
// every column reference per row, which is exactly why it is easy to believe.
// Two things differ from what shipped, both name-resolution bugs the
// replacement fixed (TestOrderByQualifiedReference, TestGroupByQualifiedKey):
// ORDER BY resolves through the production outputColumn, and GROUP BY
// membership compares resolved (binding, column) pairs instead of bare column
// names. Do not optimize this file.

import (
	"fmt"
	"math"
	"sort"

	"intellisphere/internal/datagen"
	"intellisphere/internal/sqlparse"
)

// boundRow is one (possibly joined) input tuple: one row per binding in
// FROM/JOIN order (later entries are nil while the join chain is still
// being built).
type boundRow struct {
	rows []*datagen.Row
}

// executor holds the bound execution state.
type executor struct {
	stmt     *sqlparse.SelectStmt
	bindings []string // in FROM order
	tables   map[string]*Table
}

// oracleExecute runs the statement over the given tables (keyed by table name).
func oracleExecute(stmt *sqlparse.SelectStmt, tables map[string]*Table) (*Result, error) {
	ex := &executor{stmt: stmt, tables: map[string]*Table{}}
	bind := func(tr sqlparse.TableRef) error {
		t, ok := tables[tr.Name]
		if !ok {
			return fmt.Errorf("rowengine: table %q is not materialized", tr.Name)
		}
		b := tr.Binding()
		if _, dup := ex.tables[b]; dup {
			return fmt.Errorf("rowengine: duplicate binding %q", b)
		}
		ex.tables[b] = t
		ex.bindings = append(ex.bindings, b)
		return nil
	}
	if err := bind(stmt.From); err != nil {
		return nil, err
	}
	for i := range stmt.Joins {
		if err := bind(stmt.Joins[i].Table); err != nil {
			return nil, err
		}
	}

	rows, err := ex.produce()
	if err != nil {
		return nil, err
	}
	rows, err = ex.filter(rows)
	if err != nil {
		return nil, err
	}
	var res *Result
	if ex.stmt.HasAggregates() || len(ex.stmt.GroupBy) > 0 {
		res, err = ex.aggregate(rows)
	} else {
		res, err = ex.project(rows)
	}
	if err != nil {
		return nil, err
	}
	if err := oracleOrderAndLimit(res, stmt); err != nil {
		return nil, err
	}
	return res, nil
}

// oracleOrderAndLimit applies the ORDER BY keys (which must name output columns)
// and the LIMIT row cap to a computed result.
func oracleOrderAndLimit(res *Result, stmt *sqlparse.SelectStmt) error {
	if len(stmt.OrderBy) > 0 {
		idx := make([]int, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			j, err := outputColumn(res.Columns, o.Col)
			if err != nil {
				return err
			}
			idx[i] = j
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, o := range stmt.OrderBy {
				va, vb := res.Rows[a][idx[i]], res.Rows[b][idx[i]]
				if va == vb {
					continue
				}
				if o.Desc {
					return va > vb
				}
				return va < vb
			}
			return false
		})
	}
	if stmt.Limit > 0 && int64(len(res.Rows)) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
	}
	return nil
}

// colIndex resolves a column reference to (binding, row index).
func (ex *executor) colIndex(c sqlparse.ColRef) (string, int, error) {
	idx, err := datagen.ColumnIndex(c.Column)
	if err != nil {
		return "", 0, err
	}
	if c.Qualifier != "" {
		if _, ok := ex.tables[c.Qualifier]; !ok {
			return "", 0, fmt.Errorf("rowengine: unknown binding %q", c.Qualifier)
		}
		return c.Qualifier, idx, nil
	}
	if len(ex.bindings) == 1 {
		return ex.bindings[0], idx, nil
	}
	return "", 0, fmt.Errorf("rowengine: ambiguous unqualified column %q in a join", c.Column)
}

// bindingIndex returns a binding's position in FROM/JOIN order.
func (ex *executor) bindingIndex(binding string) (int, error) {
	for i, b := range ex.bindings {
		if b == binding {
			return i, nil
		}
	}
	return 0, fmt.Errorf("rowengine: unresolved binding %q", binding)
}

// value evaluates a column reference on a bound row.
func (ex *executor) value(r boundRow, c sqlparse.ColRef) (float64, error) {
	b, idx, err := ex.colIndex(c)
	if err != nil {
		return 0, err
	}
	bi, err := ex.bindingIndex(b)
	if err != nil {
		return 0, err
	}
	if bi >= len(r.rows) || r.rows[bi] == nil {
		return 0, fmt.Errorf("rowengine: no joined row for binding %q", b)
	}
	return float64(r.rows[bi][idx]), nil
}

// eval evaluates an additive expression on a bound row.
func (ex *executor) eval(r boundRow, e sqlparse.Expr) (float64, error) {
	total := 0.0
	for _, t := range e.Terms {
		v := t.Constant
		if t.Col != nil {
			var err error
			v, err = ex.value(r, *t.Col)
			if err != nil {
				return 0, err
			}
		}
		if t.Negated {
			total -= v
		} else {
			total += v
		}
	}
	return total, nil
}

// produce yields the scan output or the left-deep join chain's tuples:
// each JOIN hash-builds on the newly joined table and probes with the
// intermediate result so far.
func (ex *executor) produce() ([]boundRow, error) {
	n := len(ex.bindings)
	left := ex.tables[ex.bindings[0]]
	cur := make([]boundRow, len(left.Rows))
	for i := range left.Rows {
		rows := make([]*datagen.Row, n)
		rows[0] = &left.Rows[i]
		cur[i] = boundRow{rows: rows}
	}
	for ji := range ex.stmt.Joins {
		j := &ex.stmt.Joins[ji]
		next := ex.tables[ex.bindings[ji+1]]
		if j.Cross {
			out := make([]boundRow, 0, len(cur)*len(next.Rows))
			for _, r := range cur {
				for k := range next.Rows {
					rows := append([]*datagen.Row(nil), r.rows...)
					rows[ji+1] = &next.Rows[k]
					out = append(out, boundRow{rows: rows})
				}
			}
			cur = out
			continue
		}
		// One condition side must reference the newly joined table; the
		// other references an earlier binding in the chain.
		newCol, probeCol := j.Left, j.Right
		nb, _, err := ex.colIndex(newCol)
		if err != nil {
			return nil, err
		}
		if nb != ex.bindings[ji+1] {
			newCol, probeCol = j.Right, j.Left
		}
		nb, nIdx, err := ex.colIndex(newCol)
		if err != nil {
			return nil, err
		}
		if nb != ex.bindings[ji+1] {
			return nil, fmt.Errorf("rowengine: join %d condition does not reference %q", ji+1, ex.bindings[ji+1])
		}
		pb, _, err := ex.colIndex(probeCol)
		if err != nil {
			return nil, err
		}
		pi, err := ex.bindingIndex(pb)
		if err != nil {
			return nil, err
		}
		if pi > ji {
			return nil, fmt.Errorf("rowengine: join %d probes binding %q which is not yet joined", ji+1, pb)
		}
		ht := make(map[int32][]*datagen.Row, len(next.Rows))
		for k := range next.Rows {
			key := next.Rows[k][nIdx]
			ht[key] = append(ht[key], &next.Rows[k])
		}
		var out []boundRow
		for _, r := range cur {
			key, err := ex.value(r, probeCol)
			if err != nil {
				return nil, err
			}
			for _, match := range ht[int32(key)] {
				rows := append([]*datagen.Row(nil), r.rows...)
				rows[ji+1] = match
				out = append(out, boundRow{rows: rows})
			}
		}
		cur = out
	}
	return cur, nil
}

// filter applies the WHERE conjuncts.
func (ex *executor) filter(rows []boundRow) ([]boundRow, error) {
	if len(ex.stmt.Where) == 0 {
		return rows, nil
	}
	out := rows[:0]
	for _, r := range rows {
		keep := true
		for _, p := range ex.stmt.Where {
			v, err := ex.eval(r, p.Left)
			if err != nil {
				return nil, err
			}
			if !oracleCompare(v, p.Op, p.Value) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}

func oracleCompare(v float64, op string, rhs float64) bool {
	switch op {
	case "=":
		return v == rhs
	case "<":
		return v < rhs
	case "<=":
		return v <= rhs
	case ">":
		return v > rhs
	case ">=":
		return v >= rhs
	case "<>":
		return v != rhs
	default:
		return false
	}
}

// project renders non-aggregate output.
func (ex *executor) project(rows []boundRow) (*Result, error) {
	items := ex.stmt.Items
	// Expand `*` to every materialized column of every binding.
	var cols []sqlparse.ColRef
	var names []string
	for _, it := range items {
		if it.Star {
			for _, b := range ex.bindings {
				for _, d := range datagen.DupFactors() {
					name := fmt.Sprintf("a%d", d)
					cols = append(cols, sqlparse.ColRef{Qualifier: b, Column: name})
					names = append(names, b+"."+name)
				}
				cols = append(cols, sqlparse.ColRef{Qualifier: b, Column: "z"})
				names = append(names, b+".z")
			}
			continue
		}
		cols = append(cols, it.Col)
		if it.Alias != "" {
			names = append(names, it.Alias)
		} else {
			names = append(names, it.Col.String())
		}
	}
	res := &Result{Columns: names}
	for _, r := range rows {
		out := make([]float64, len(cols))
		for i, c := range cols {
			v, err := ex.value(r, c)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// oracleAggState accumulates one aggregate for one group.
type oracleAggState struct {
	sum   float64
	count float64
	min   float64
	max   float64
}

// groupKey returns the position of the first GROUP BY key that resolves to
// the same (binding, column) as c, or -1.
func (ex *executor) groupKey(c sqlparse.ColRef) int {
	cb, ci, cerr := ex.colIndex(c)
	for gi, g := range ex.stmt.GroupBy {
		gb, gidx, gerr := ex.colIndex(g)
		if cerr == nil && gerr == nil && gb == cb && gidx == ci {
			return gi
		}
	}
	return -1
}

// aggregate computes GROUP BY output.
func (ex *executor) aggregate(rows []boundRow) (*Result, error) {
	type group struct {
		keys []float64
		aggs []oracleAggState
	}
	var aggItems []sqlparse.SelectItem
	var names []string
	for _, it := range ex.stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("rowengine: * cannot mix with aggregates")
		}
		if it.Agg == sqlparse.AggNone {
			// Plain columns must appear in GROUP BY.
			if ex.groupKey(it.Col) < 0 {
				return nil, fmt.Errorf("rowengine: column %s not in GROUP BY", it.Col)
			}
		}
		if it.Alias != "" {
			names = append(names, it.Alias)
		} else {
			names = append(names, it.String())
		}
		aggItems = append(aggItems, it)
	}

	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		keys := make([]float64, len(ex.stmt.GroupBy))
		keyStr := ""
		for i, g := range ex.stmt.GroupBy {
			v, err := ex.value(r, g)
			if err != nil {
				return nil, err
			}
			keys[i] = v
			keyStr += fmt.Sprintf("%v|", v)
		}
		gr, ok := groups[keyStr]
		if !ok {
			gr = &group{keys: keys, aggs: make([]oracleAggState, len(aggItems))}
			for i := range gr.aggs {
				gr.aggs[i].min = math.Inf(1)
				gr.aggs[i].max = math.Inf(-1)
			}
			groups[keyStr] = gr
			order = append(order, keyStr)
		}
		for i, it := range aggItems {
			if it.Agg == sqlparse.AggNone {
				continue
			}
			v, err := ex.eval(r, it.Arg)
			if err != nil {
				return nil, err
			}
			st := &gr.aggs[i]
			st.sum += v
			st.count++
			if v < st.min {
				st.min = v
			}
			if v > st.max {
				st.max = v
			}
		}
	}
	sort.Strings(order)
	res := &Result{Columns: names}
	for _, k := range order {
		gr := groups[k]
		out := make([]float64, len(aggItems))
		for i, it := range aggItems {
			switch it.Agg {
			case sqlparse.AggNone:
				out[i] = gr.keys[ex.groupKey(it.Col)]
			case sqlparse.AggSum:
				out[i] = gr.aggs[i].sum
			case sqlparse.AggCount:
				out[i] = gr.aggs[i].count
			case sqlparse.AggAvg:
				if gr.aggs[i].count > 0 {
					out[i] = gr.aggs[i].sum / gr.aggs[i].count
				}
			case sqlparse.AggMin:
				out[i] = gr.aggs[i].min
			case sqlparse.AggMax:
				out[i] = gr.aggs[i].max
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}
