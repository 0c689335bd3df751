package workload

import (
	"fmt"

	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

// RunResult captures the execution of a training workload on a remote
// system: the per-query dimension vectors and observed costs (the labeled
// training set of Section 3), plus the cumulative training time curve the
// paper plots in Figures 11(a) and 12(a).
type RunResult struct {
	X          [][]float64
	Y          []float64 // observed elapsed seconds per query
	Cumulative []float64 // running total of training time after each query
	TotalSec   float64
}

func newRunResult(n int) *RunResult {
	return &RunResult{
		X:          make([][]float64, 0, n),
		Y:          make([]float64, 0, n),
		Cumulative: make([]float64, 0, n),
	}
}

// add appends one executed training query: its dimension vector and
// observed cost.
func (r *RunResult) add(dims []float64, sec float64) {
	r.X = append(r.X, dims)
	r.Y = append(r.Y, sec)
	r.TotalSec += sec
	r.Cumulative = append(r.Cumulative, r.TotalSec)
}

// RunJoinSet executes every join training query on the remote system, in
// order, and labels it with the observed cost. One simulated query is well
// under a microsecond, so the sweep is a plain loop.
func RunJoinSet(sys remote.System, qs []JoinQuery) (*RunResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("workload: empty join training set")
	}
	res := newRunResult(len(qs))
	for i, q := range qs {
		ex, err := sys.ExecuteJoin(q.Spec)
		if err != nil {
			return nil, fmt.Errorf("workload: join query %d (%s): %w", i, q.SQL(), err)
		}
		res.add(q.Spec.Dims(), ex.ElapsedSec)
	}
	return res, nil
}

// RunAggSet executes every aggregation training query on the remote system.
func RunAggSet(sys remote.System, qs []AggQuery) (*RunResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("workload: empty aggregation training set")
	}
	res := newRunResult(len(qs))
	for i, q := range qs {
		ex, err := sys.ExecuteAgg(q.Spec)
		if err != nil {
			return nil, fmt.Errorf("workload: agg query %d (%s): %w", i, q.SQL(), err)
		}
		res.add(q.Spec.Dims(), ex.ElapsedSec)
	}
	return res, nil
}

// RunJoinSpecs executes raw join specs (the out-of-range suite) and returns
// the observed costs.
func RunJoinSpecs(sys remote.System, specs []plan.JoinSpec) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, spec := range specs {
		ex, err := sys.ExecuteJoin(spec)
		if err != nil {
			return nil, fmt.Errorf("workload: join spec %d: %w", i, err)
		}
		out[i] = ex.ElapsedSec
	}
	return out, nil
}

// RunScanSet executes every scan training query on the remote system. The
// dimension vectors follow the scan model's four dimensions (input rows,
// input row size, output rows, output row size).
func RunScanSet(sys remote.System, qs []ScanQuery) (*RunResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("workload: empty scan training set")
	}
	res := newRunResult(len(qs))
	for i, q := range qs {
		ex, err := sys.ExecuteScan(q.Spec)
		if err != nil {
			return nil, fmt.Errorf("workload: scan query %d (%s): %w", i, q.SQL(), err)
		}
		spec := q.Spec
		res.add([]float64{spec.InputRows, spec.InputRowSize, spec.OutputRows(), spec.OutputRowSize}, ex.ElapsedSec)
	}
	return res, nil
}
