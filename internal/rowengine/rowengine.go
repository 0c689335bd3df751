// Package rowengine executes statements over materialized synthetic tables.
// The remote-system simulators cost operators analytically over statistics;
// this engine complements them by actually computing answers (index-probe
// joins, cross joins, filters, grouped aggregation) for the small tables the
// examples and integration tests materialize, so end-to-end federated queries
// return real rows, not just cost numbers.
//
// A statement is bound once — every column reference resolved to a (binding
// ordinal, column offset) pair and the statement validated before a row is
// read (bind.go) — and then streamed through one push-style pipeline,
//
//	scan → (index-probe join)* → filter → project | aggregate
//
// in which a tuple is the current row of each binding, side by side in one
// reused buffer, so no intermediate relation is ever materialized: memory is
// O(join build sides + output), never O(join size). Three orders are part of
// the answer and pinned by tests: join output is probe order × build-table
// row order, filtered rows keep scan order, and groups come out in the
// lexicographic order of the text rendering of their key tuple (0, 10, 11, …,
// 19, 1, 2, …).
package rowengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"intellisphere/internal/datagen"
	"intellisphere/internal/ftoa"
	"intellisphere/internal/sqlparse"
)

// Table is a materialized table: Figure 10 rows keyed by the generator's
// column layout.
type Table struct {
	Name string
	Rows []datagen.Row
}

// Materialize builds a table of the given cardinality.
func Materialize(name string, rows int64) (*Table, error) {
	data, err := datagen.Materialize(rows)
	if err != nil {
		return nil, err
	}
	return &Table{Name: name, Rows: data}, nil
}

// Result is a computed relation.
type Result struct {
	Columns []string
	Rows    [][]float64
}

// maxResultRows caps the rows of a result and the groups of an aggregation at
// the size of the largest table that can exist, so every single-table answer
// fits and a join cannot emit its product. A variable only so that the test
// of the cap need not emit four million rows.
var maxResultRows = datagen.MaterializeLimit

// pollEvery is how many tuples the pipeline moves between looks at its
// context: often enough that a canceled cross join stops within
// microseconds, rarely enough that a 10 000-row scan looks once or twice.
const pollEvery = 4096

// errLimit stops the pipeline once a LIMIT without ORDER BY has its rows.
var errLimit = errors.New("rowengine: limit reached")

// Execute runs the statement over the given tables (keyed by table name).
func Execute(stmt *sqlparse.SelectStmt, tables map[string]*Table) (*Result, error) {
	return ExecuteContext(context.Background(), stmt, tables)
}

// ExecuteContext is Execute under a context: the pipeline gives up with
// ctx.Err() within pollEvery tuples of the context ending, however large the
// join it is in the middle of.
func ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, tables map[string]*Table) (*Result, error) {
	q, err := bind(stmt, tables)
	if err != nil {
		return nil, err
	}
	p := pipeline{query: q, ctx: ctx, tuple: make([]int32, len(q.levels)*rowWidth), groupOf: map[string]int{}}
	for i := range q.levels {
		if q.levels[i].equi {
			if err := p.buildIndex(i); err != nil {
				return nil, err
			}
		}
	}
	if err := p.step(0); err != nil && err != errLimit {
		return nil, err
	}
	res := &Result{Columns: q.names}
	if q.aggregate {
		if res.Rows, err = p.groupRows(); err != nil {
			return nil, err
		}
	} else {
		res.Rows = cutRows(p.out, len(q.names))
	}
	sortRows(res.Rows, q.orderBy)
	if q.limit > 0 && int64(len(res.Rows)) > q.limit {
		res.Rows = res.Rows[:q.limit]
	}
	return res, nil
}

// pipeline is the run state of one bound statement.
type pipeline struct {
	*query
	ctx   context.Context
	tuple []int32 // the current row of each binding, back to back in FROM/JOIN order
	moved int     // tuples moved so far, for polling ctx

	out []float64 // projected rows, back to back

	// Groups are numbered in first-seen order. A group is found by the bytes
	// of its key tuple, so a row's lookup allocates nothing and a new group
	// costs its key; no GROUP BY is the one group of the empty tuple, which
	// exists once a tuple has reached it.
	groupOf map[string]int
	key     []byte     // the key being looked up
	keys    []int32    // group g's key is keys[g*len(groupBy):(g+1)*len(groupBy)]
	aggs    []aggState // group g's states are aggs[g*len(items):(g+1)*len(items)]
}

// set makes row the current row of binding i.
func (p *pipeline) set(i int, row *datagen.Row) {
	*(*datagen.Row)(p.tuple[i*rowWidth:]) = *row
}

// tick counts one tuple moved and looks at the context every pollEvery.
func (p *pipeline) tick() error {
	p.moved++
	if p.moved%pollEvery != 0 {
		return nil
	}
	return p.ctx.Err()
}

// bucket spreads a join key over 1<<(32-shift) chains (Fibonacci hashing: the
// high bits of the product mix every bit of the key).
func bucket(key int32, shift uint) uint32 {
	return uint32(key) * 2654435769 >> shift
}

// buildIndex hashes level i's table on its join column into two flat arrays:
// head[b] is the first row of chain b, next[r] the row after r in its chain,
// -1 ending it. Rows failing the level's own conjuncts are left out, and
// inserting from the last row to the first makes every chain ascend, so a
// probe meets its matches in the table's row order.
func (p *pipeline) buildIndex(i int) error {
	lv := &p.levels[i]
	bits := uint(1)
	for 1<<bits < len(lv.rows) {
		bits++
	}
	lv.shift = 32 - bits
	lv.head = make([]int32, 1<<bits)
	for b := range lv.head {
		lv.head[b] = -1
	}
	lv.next = make([]int32, len(lv.rows))
	for r := len(lv.rows) - 1; r >= 0; r-- {
		if err := p.tick(); err != nil {
			return err
		}
		if !pass(lv.where, lv.rows[r][:]) {
			continue
		}
		b := bucket(lv.rows[r][lv.key], lv.shift)
		lv.next[r] = lv.head[b]
		lv.head[b] = int32(r)
	}
	return nil
}

// step extends the current tuple with every row of level i that joins it —
// the whole table for FROM and CROSS JOIN, one index chain for JOIN … ON —
// and pushes each extension to the next level; past the last level the tuple
// is complete and goes to emit.
func (p *pipeline) step(i int) error {
	if i == len(p.levels) {
		return p.emit()
	}
	lv := &p.levels[i]
	if lv.equi {
		key := p.tuple[lv.probe]
		for r := lv.head[bucket(key, lv.shift)]; r >= 0; r = lv.next[r] {
			if err := p.tick(); err != nil {
				return err
			}
			if lv.rows[r][lv.key] != key {
				continue
			}
			p.set(i, &lv.rows[r])
			if err := p.step(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	for r := range lv.rows {
		if err := p.tick(); err != nil {
			return err
		}
		if !pass(lv.where, lv.rows[r][:]) {
			continue
		}
		p.set(i, &lv.rows[r])
		if err := p.step(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// eval sums a bound expression over the values its columns index — a tuple,
// or one row for a conjunct bound to a single level — term by term from zero:
// the order is part of the float64 answer.
func eval(e []term, vals []int32) float64 {
	total := 0.0
	for i := range e {
		t := &e[i]
		v := t.constant
		if t.isCol {
			v = float64(vals[t.col])
		}
		if t.negated {
			total -= v
		} else {
			total += v
		}
	}
	return total
}

// pass reports whether the values satisfy every conjunct.
func pass(where []predicate, vals []int32) bool {
	for i := range where {
		w := &where[i]
		v, ok := eval(w.left, vals), false
		switch w.op {
		case opEQ:
			ok = v == w.value
		case opLT:
			ok = v < w.value
		case opLE:
			ok = v <= w.value
		case opGT:
			ok = v > w.value
		case opGE:
			ok = v >= w.value
		case opNE:
			ok = v != w.value
		}
		if !ok {
			return false
		}
	}
	return true
}

// emit takes a complete tuple through the conjuncts that read more than one
// binding and into the statement's sink.
func (p *pipeline) emit() error {
	if !pass(p.where, p.tuple) {
		return nil
	}
	if p.aggregate {
		return p.accumulate()
	}
	rows := len(p.out) / len(p.columns)
	if rows >= maxResultRows {
		return errTooLarge()
	}
	for _, c := range p.columns {
		p.out = append(p.out, float64(p.tuple[c]))
	}
	if len(p.orderBy) == 0 && int64(rows+1) == p.limit {
		return errLimit
	}
	return nil
}

func errTooLarge() error {
	return fmt.Errorf("rowengine: result exceeds %d rows: add a LIMIT (without ORDER BY) or aggregate", maxResultRows)
}

// cutRows slices a slab of back-to-back rows into row headers (nil for none,
// as an appended-to nil slice would be).
func cutRows(slab []float64, width int) [][]float64 {
	if len(slab) == 0 {
		return nil
	}
	rows := make([][]float64, len(slab)/width)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	sum   float64
	count float64
	min   float64
	max   float64
}

// accumulate folds the current tuple into its group.
func (p *pipeline) accumulate() error {
	p.key = p.key[:0]
	for _, c := range p.groupBy {
		v := p.tuple[c]
		p.key = append(p.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	g, ok := p.groupOf[string(p.key)]
	if !ok {
		if g = len(p.groupOf); g >= maxResultRows {
			return errTooLarge()
		}
		p.groupOf[string(p.key)] = g
		for _, c := range p.groupBy {
			p.keys = append(p.keys, p.tuple[c])
		}
		for range p.items {
			p.aggs = append(p.aggs, aggState{min: math.Inf(1), max: math.Inf(-1)})
		}
	}
	states := p.aggs[g*len(p.items):]
	for i := range p.items {
		it := &p.items[i]
		if it.fn == sqlparse.AggNone {
			continue
		}
		v := eval(it.arg, p.tuple)
		st := &states[i]
		st.sum += v
		st.count++
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
	}
	return nil
}

// groupRows renders the groups as result rows, ordered by the text of their
// key tuples ("%v|" per key, written by ftoa.AppendG, so 10 sorts before 2 and
// a million is 1e+06): the order this engine has always answered in, rendered
// once per group. An aggregate that left float64's range (SUM(a1 + 1e308)
// over many rows, or a MAX over an expression that overflows per row) is
// refused, as PostgreSQL refuses a float8 overflow: ±Inf or NaN has no JSON
// number to answer with.
func (p *pipeline) groupRows() ([][]float64, error) {
	n, width := len(p.groupOf), len(p.groupBy)
	var text []byte
	ends := make([]int, n+1)
	for g := 0; g < n; g++ {
		for _, k := range p.keys[g*width : (g+1)*width] {
			text = append(ftoa.AppendG(text, float64(k)), '|')
		}
		ends[g+1] = len(text)
	}
	order := make([]int, n)
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		return bytes.Compare(text[ends[ga]:ends[ga+1]], text[ends[gb]:ends[gb+1]]) < 0
	})
	slab := make([]float64, 0, n*len(p.items))
	for _, g := range order {
		states := p.aggs[g*len(p.items):]
		for i := range p.items {
			it, st, v := &p.items[i], &states[i], 0.0
			switch it.fn {
			case sqlparse.AggNone:
				v = float64(p.keys[g*width+it.key])
			case sqlparse.AggSum:
				v = st.sum
			case sqlparse.AggCount:
				v = st.count
			case sqlparse.AggAvg:
				v = st.sum / st.count
			case sqlparse.AggMin:
				v = st.min
			case sqlparse.AggMax:
				v = st.max
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("rowengine: %s is out of range: float64 overflow", p.names[i])
			}
			slab = append(slab, v)
		}
	}
	return cutRows(slab, len(p.items)), nil
}

// sortRows orders rows by the bound ORDER BY keys, stably.
func sortRows(rows [][]float64, keys []orderKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			va, vb := rows[a][k.column], rows[b][k.column]
			if va == vb {
				continue
			}
			if k.desc {
				return va > vb
			}
			return va < vb
		}
		return false
	})
}
