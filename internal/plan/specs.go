// Package plan defines the operator descriptions that flow between the
// master engine, the optimizer, the remote-system simulators, and the cost
// estimation module. An operator "spec" carries exactly the quantities the
// paper's models consume: the seven join dimensions of Figure 2, the four
// aggregation dimensions of Section 3, plus the physical hints (partitioning,
// sortedness, key statistics) the sub-operator approach's applicability rules
// inspect (Section 4).
package plan

import (
	"errors"
	"fmt"
)

// TableSide describes one input relation of an operator as the estimators
// and simulators see it.
type TableSide struct {
	Rows          float64 // cardinality
	RowSize       float64 // bytes per record
	ProjectedSize float64 // bytes of projected attributes surviving the operator
	KeyNDV        float64 // number of distinct values in the join/group key
	PartitionedOn bool    // physically partitioned (bucketed) on the key
	SortedOn      bool    // physically sorted on the key within partitions
}

// Bytes returns the total size of the side in bytes.
func (s TableSide) Bytes() float64 { return s.Rows * s.RowSize }

// Validate reports structural problems with the side.
func (s TableSide) Validate() error {
	if s.Rows <= 0 {
		return fmt.Errorf("plan: rows %v must be positive", s.Rows)
	}
	if s.RowSize <= 0 {
		return fmt.Errorf("plan: row size %v must be positive", s.RowSize)
	}
	if s.ProjectedSize < 0 || s.ProjectedSize > s.RowSize {
		return fmt.Errorf("plan: projected size %v must be in [0, row size %v]", s.ProjectedSize, s.RowSize)
	}
	return nil
}

// JoinSpec describes a two-table join operator. Its seven training
// dimensions (Figure 2) are: row size and cardinality of each side, the
// projected attribute sizes from each side, and the output cardinality.
type JoinSpec struct {
	Left, Right TableSide
	OutputRows  float64
	Cartesian   bool // true when there is no equi-join condition
}

// Validate reports structural problems with the spec.
func (j JoinSpec) Validate() error {
	if err := j.Left.Validate(); err != nil {
		return fmt.Errorf("left side: %w", err)
	}
	if err := j.Right.Validate(); err != nil {
		return fmt.Errorf("right side: %w", err)
	}
	if j.OutputRows < 0 {
		return errors.New("plan: negative join output cardinality")
	}
	return nil
}

// Dims returns the seven-dimension training vector of Figure 2, in the
// paper's order: row size R, num rows R, row size S, num rows S, projected
// size R, projected size S, num output rows.
func (j JoinSpec) Dims() []float64 {
	return []float64{
		j.Left.RowSize, j.Left.Rows,
		j.Right.RowSize, j.Right.Rows,
		j.Left.ProjectedSize, j.Right.ProjectedSize,
		j.OutputRows,
	}
}

// JoinDimNames names the seven dimensions, aligned with Dims().
func JoinDimNames() []string {
	return []string{
		"row_size_r", "num_rows_r",
		"row_size_s", "num_rows_s",
		"proj_size_r", "proj_size_s",
		"num_output",
	}
}

// OutputRowSize returns the width of a join result record: the surviving
// projected attributes of both sides.
func (j JoinSpec) OutputRowSize() float64 {
	w := j.Left.ProjectedSize + j.Right.ProjectedSize
	if w <= 0 {
		w = 1
	}
	return w
}

// SmallSide returns the smaller input by total bytes and whether it is the
// left one. Broadcast-style algorithms ship this side.
func (j JoinSpec) SmallSide() (TableSide, bool) {
	if j.Left.Bytes() <= j.Right.Bytes() {
		return j.Left, true
	}
	return j.Right, false
}

// BigSide returns the larger input by total bytes.
func (j JoinSpec) BigSide() TableSide {
	if j.Left.Bytes() <= j.Right.Bytes() {
		return j.Right
	}
	return j.Left
}

// AggSpec describes a grouping/aggregation operator. Its four training
// dimensions (Section 3) are input rows, input row size, output rows, and
// output row size.
type AggSpec struct {
	InputRows     float64
	InputRowSize  float64
	OutputRows    float64
	OutputRowSize float64
	NumAggregates int // number of aggregate functions computed (1..)
}

// Validate reports structural problems with the spec.
func (a AggSpec) Validate() error {
	if a.InputRows <= 0 || a.InputRowSize <= 0 {
		return fmt.Errorf("plan: aggregation input (%v rows × %v B) must be positive", a.InputRows, a.InputRowSize)
	}
	if a.OutputRows <= 0 || a.OutputRowSize <= 0 {
		return fmt.Errorf("plan: aggregation output (%v rows × %v B) must be positive", a.OutputRows, a.OutputRowSize)
	}
	if a.OutputRows > a.InputRows {
		return fmt.Errorf("plan: aggregation output rows %v exceed input rows %v", a.OutputRows, a.InputRows)
	}
	if a.NumAggregates < 0 {
		return errors.New("plan: negative aggregate count")
	}
	return nil
}

// Dims returns the four-dimension training vector in the paper's order:
// number of input rows, input row size, number of output rows, output row
// size.
func (a AggSpec) Dims() []float64 {
	return []float64{a.InputRows, a.InputRowSize, a.OutputRows, a.OutputRowSize}
}

// AggDimNames names the four dimensions, aligned with Dims().
func AggDimNames() []string {
	return []string{"num_input_rows", "input_row_size", "num_output_rows", "output_row_size"}
}

// ScanSpec describes a filtering/projecting table scan.
type ScanSpec struct {
	InputRows     float64
	InputRowSize  float64
	Selectivity   float64 // fraction of rows surviving the predicate, in (0,1]
	OutputRowSize float64 // projected width
}

// Validate reports structural problems with the spec.
func (s ScanSpec) Validate() error {
	if s.InputRows <= 0 || s.InputRowSize <= 0 {
		return fmt.Errorf("plan: scan input (%v rows × %v B) must be positive", s.InputRows, s.InputRowSize)
	}
	if s.Selectivity <= 0 || s.Selectivity > 1 {
		return fmt.Errorf("plan: scan selectivity %v must be in (0,1]", s.Selectivity)
	}
	if s.OutputRowSize <= 0 || s.OutputRowSize > s.InputRowSize {
		return fmt.Errorf("plan: scan output row size %v must be in (0, input row size %v]", s.OutputRowSize, s.InputRowSize)
	}
	return nil
}

// OutputRows returns the scan's estimated output cardinality.
func (s ScanSpec) OutputRows() float64 { return s.InputRows * s.Selectivity }
