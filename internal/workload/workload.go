// Package workload builds the training query sets of the paper's evaluation
// (Figure 10): roughly 3 600 aggregation configurations (120 tables × 6
// shrink factors × 5 aggregate counts), about 4 000 join configurations
// (sampled table pairs × 4 output selectivities, joined on the unique a1
// columns with the z-predicate trick controlling output cardinality), and
// the 45-query out-of-range suite used by Figure 14 and Table 1.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"intellisphere/internal/catalog"
	"intellisphere/internal/plan"
)

// AggQuery is one aggregation training configuration.
type AggQuery struct {
	Table    *catalog.Table
	GroupCol string // a_i column; i is the shrink factor
	NumAggs  int    // number of SUM() aggregates, 1..5
	Spec     plan.AggSpec
}

// SQL renders the query the way it would be submitted to the remote system.
func (q AggQuery) SQL() string {
	sums := ""
	for i := 0; i < q.NumAggs; i++ {
		sums += fmt.Sprintf(", SUM(a1+%d)", i)
	}
	return fmt.Sprintf("SELECT %s%s FROM %s GROUP BY %s", q.GroupCol, sums, q.Table.Name, q.GroupCol)
}

// aggKeyWidth is the group-key width and aggValWidth one SUM() output width.
const (
	aggKeyWidth = 4
	aggValWidth = 8
	maxAggs     = 5
)

// ShrinkColumns lists the grouping columns used for training (the a_i
// columns with i > 1, so every query actually shrinks its input).
func ShrinkColumns() []string {
	return []string{"a2", "a5", "a10", "a20", "a50", "a100"}
}

// AggTrainingSet builds the aggregation training configurations for the
// given tables: every table × shrink column × aggregate count.
func AggTrainingSet(tables []*catalog.Table) ([]AggQuery, error) {
	var out []AggQuery
	for _, t := range tables {
		for _, col := range ShrinkColumns() {
			c, ok := t.Schema.Column(col)
			if !ok {
				return nil, fmt.Errorf("workload: catalog: table %q has no column %q", t.Name, col)
			}
			ndv := t.NDV(c)
			if ndv < 1 {
				continue
			}
			for n := 1; n <= maxAggs; n++ {
				spec := plan.AggSpec{
					InputRows:     float64(t.Rows),
					InputRowSize:  float64(t.RowSize()),
					OutputRows:    ndv,
					OutputRowSize: aggKeyWidth + float64(n)*aggValWidth,
					NumAggregates: n,
				}
				if err := spec.Validate(); err != nil {
					return nil, fmt.Errorf("workload: agg on %s group %s: %w", t.Name, col, err)
				}
				out = append(out, AggQuery{Table: t, GroupCol: col, NumAggs: n, Spec: spec})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no aggregation queries produced")
	}
	return out, nil
}

// Selectivities are the controlled join output fractions of Figure 10.
func Selectivities() []float64 { return []float64{1.0, 0.5, 0.25, 0.01} }

// JoinQuery is one join training configuration: R ⋈ S on a1 with an extra
// (R.a1 + S.z < threshold) predicate controlling the output cardinality.
type JoinQuery struct {
	R, S        *catalog.Table
	Selectivity float64
	Spec        plan.JoinSpec
}

// SQL renders the query the way it would be submitted to the remote system.
func (q JoinQuery) SQL() string {
	if q.R == nil || q.S == nil {
		return "<unbound join query>"
	}
	threshold := int64(q.Selectivity * float64(q.S.Rows))
	return fmt.Sprintf(
		"SELECT r.a1, s.a1 FROM %s r JOIN %s s ON r.a1 = s.a1 WHERE r.a1 + s.z < %d",
		q.R.Name, q.S.Name, threshold)
}

// projChoices enumerates the projected-size variants (in bytes) cycled
// through join configurations so the two projection dimensions of the
// seven-dim join model get training coverage.
var projChoices = []float64{4, 8, 16, 28}

// buildJoinSpec assembles the seven-dimension spec for a pair. The smaller
// table plays S (its a1 values are a subset of R's, per the data generator),
// so the equi-join alone matches every S row and the threshold predicate
// scales the output.
func buildJoinSpec(r, s *catalog.Table, sel float64, projR, projS float64) (plan.JoinSpec, error) {
	out := math.Floor(sel * float64(s.Rows))
	if out < 1 {
		out = 1
	}
	clampProj := func(p float64, rowSize int) float64 {
		if p > float64(rowSize) {
			return float64(rowSize)
		}
		return p
	}
	spec := plan.JoinSpec{
		Left: plan.TableSide{
			Rows: float64(r.Rows), RowSize: float64(r.RowSize()),
			ProjectedSize: clampProj(projR, r.RowSize()), KeyNDV: float64(r.Rows),
			PartitionedOn: r.PartitionedOn == "a1", SortedOn: r.SortedOn == "a1",
		},
		Right: plan.TableSide{
			Rows: float64(s.Rows), RowSize: float64(s.RowSize()),
			ProjectedSize: clampProj(projS, s.RowSize()), KeyNDV: float64(s.Rows),
			PartitionedOn: s.PartitionedOn == "a1", SortedOn: s.SortedOn == "a1",
		},
		OutputRows: out,
	}
	if err := spec.Validate(); err != nil {
		return plan.JoinSpec{}, err
	}
	return spec, nil
}

// JoinTrainingSet samples up to maxPairs distinct table pairs (deterministic
// for a given seed) and crosses each with the four selectivities, yielding
// roughly the paper's 4 000 join training queries when maxPairs = 1000.
func JoinTrainingSet(tables []*catalog.Table, maxPairs int, seed int64) ([]JoinQuery, error) {
	if len(tables) < 2 {
		return nil, fmt.Errorf("workload: need at least two tables, have %d", len(tables))
	}
	if maxPairs <= 0 {
		return nil, fmt.Errorf("workload: maxPairs %d must be positive", maxPairs)
	}
	rng := rand.New(rand.NewSource(seed))
	type pairKey struct{ a, b int }
	seen := map[pairKey]bool{}
	var out []JoinQuery
	attempts := 0
	for len(seen) < maxPairs && attempts < maxPairs*20 {
		attempts++
		i := rng.Intn(len(tables))
		j := rng.Intn(len(tables))
		if i == j {
			continue
		}
		// Bigger table is R, smaller is S (ties by index for determinism).
		r, s := tables[i], tables[j]
		if s.Rows > r.Rows || (s.Rows == r.Rows && i > j) {
			r, s = s, r
		}
		k := pairKey{a: i, b: j}
		if i > j {
			k = pairKey{a: j, b: i}
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		projR := projChoices[len(seen)%len(projChoices)]
		projS := projChoices[(len(seen)/len(projChoices))%len(projChoices)]
		for _, sel := range Selectivities() {
			spec, err := buildJoinSpec(r, s, sel, projR, projS)
			if err != nil {
				return nil, fmt.Errorf("workload: join %s ⋈ %s: %w", r.Name, s.Name, err)
			}
			out = append(out, JoinQuery{R: r, S: s, Selectivity: sel, Spec: spec})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no join queries produced")
	}
	return out, nil
}

// OutOfRangeConfig controls the Figure 14 suite.
type OutOfRangeConfig struct {
	Rows        float64 // out-of-range cardinality (paper: 20×10^6)
	RecordSizes []int   // in-range record sizes to cycle
	Count       int     // number of queries (paper: 45)
	Seed        int64
}

// DefaultOutOfRange reproduces the paper's setting: models are trained on
// up to 8×10^6 records; the evaluation queries use 20×10^6, with some
// configurations taking only one side out of range and others both.
func DefaultOutOfRange() OutOfRangeConfig {
	return OutOfRangeConfig{Rows: 20e6, RecordSizes: []int{40, 70, 100, 250, 500, 1000}, Count: 45, Seed: 14}
}

// OutOfRangeJoins builds the evaluation suite: every spec has at least one
// side at cfg.Rows (beyond any trained cardinality) while record sizes stay
// within the trained range. Specs force both sides large enough that the
// remote picks its merge/shuffle join, matching the paper's experiment.
func OutOfRangeJoins(cfg OutOfRangeConfig) ([]plan.JoinSpec, error) {
	if cfg.Rows <= 0 || cfg.Count <= 0 || len(cfg.RecordSizes) == 0 {
		return nil, fmt.Errorf("workload: invalid out-of-range config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	inRangeRows := []float64{2e6, 4e6, 6e6, 8e6}
	var out []plan.JoinSpec
	for i := 0; i < cfg.Count; i++ {
		sizeR := float64(cfg.RecordSizes[rng.Intn(len(cfg.RecordSizes))])
		sizeS := float64(cfg.RecordSizes[rng.Intn(len(cfg.RecordSizes))])
		rowsR := cfg.Rows
		rowsS := cfg.Rows
		if i%2 == 0 { // only one side out of range
			rowsS = inRangeRows[rng.Intn(len(inRangeRows))]
		}
		sel := Selectivities()[rng.Intn(len(Selectivities()))]
		small := rowsS
		if rowsR < small {
			small = rowsR
		}
		outRows := math.Floor(sel * small)
		if outRows < 1 {
			outRows = 1
		}
		proj := projChoices[i%len(projChoices)]
		spec := plan.JoinSpec{
			Left:       plan.TableSide{Rows: rowsR, RowSize: sizeR, ProjectedSize: proj, KeyNDV: rowsR},
			Right:      plan.TableSide{Rows: rowsS, RowSize: sizeS, ProjectedSize: proj, KeyNDV: rowsS},
			OutputRows: outRows,
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("workload: out-of-range spec %d: %w", i, err)
		}
		out = append(out, spec)
	}
	return out, nil
}

// ScanQuery is one filter/project training configuration.
type ScanQuery struct {
	Table       *catalog.Table
	Selectivity float64
	Spec        plan.ScanSpec
}

// SQL renders the query the way it would be submitted to the remote system.
func (q ScanQuery) SQL() string {
	if q.Table == nil {
		return "<unbound scan query>"
	}
	threshold := int64(q.Selectivity * float64(q.Table.Rows))
	return fmt.Sprintf("SELECT a1, a2 FROM %s WHERE a1 < %d", q.Table.Name, threshold)
}

// ScanTrainingSet builds filter/project training configurations: every
// table × the four selectivities × two projection widths.
func ScanTrainingSet(tables []*catalog.Table) ([]ScanQuery, error) {
	var out []ScanQuery
	for _, t := range tables {
		for _, sel := range Selectivities() {
			for _, proj := range []float64{8, 28} {
				p := proj
				if p > float64(t.RowSize()) {
					p = float64(t.RowSize())
				}
				spec := plan.ScanSpec{
					InputRows:     float64(t.Rows),
					InputRowSize:  float64(t.RowSize()),
					Selectivity:   sel,
					OutputRowSize: p,
				}
				if err := spec.Validate(); err != nil {
					return nil, fmt.Errorf("workload: scan on %s: %w", t.Name, err)
				}
				out = append(out, ScanQuery{Table: t, Selectivity: sel, Spec: spec})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no scan queries produced")
	}
	return out, nil
}
