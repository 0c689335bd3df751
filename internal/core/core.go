// Package core defines the remote-system cost estimation module's shared
// contract — the paper's central abstraction. An Estimator predicts the
// elapsed execution time (seconds) of one SQL operator on one remote system.
// Three implementations exist, one per costing approach:
//
//   - logicalop: blackbox remotes, per-operator neural networks (Section 3)
//   - subop: openbox remotes, composed per-sub-operator linear models
//     (Section 4)
//   - hybrid: per-remote costing profiles that select and switch between
//     the two (Section 5)
package core

import (
	"errors"

	"intellisphere/internal/plan"
)

// Approach names one of the paper's costing approaches.
type Approach string

// The three costing approaches.
const (
	LogicalOp Approach = "logical-op"
	SubOp     Approach = "sub-op"
	Hybrid    Approach = "hybrid"
)

// ErrUntrained is returned when an estimator is asked for a prediction
// before its models exist.
var ErrUntrained = errors.New("core: estimator has not been trained")

// ErrUnsupported is returned when an estimator has no model for the
// requested operator kind.
var ErrUnsupported = errors.New("core: operator kind not supported by this estimator")

// Estimate is one cost prediction with its provenance, so the optimizer and
// the experiment harness can inspect how a number was produced.
type Estimate struct {
	// Seconds is the predicted elapsed execution time on the remote system.
	Seconds float64
	// Approach records which costing approach produced the estimate.
	Approach Approach
	// Algorithm is the physical algorithm assumed (sub-op approach only).
	Algorithm string
	// OutOfRange reports that at least one input dimension fell outside the
	// trained range and the online remedy contributed (logical-op only).
	OutOfRange bool
	// NNSeconds / RegressionSeconds expose the two components the online
	// remedy combined (meaningful only when OutOfRange is true).
	NNSeconds         float64
	RegressionSeconds float64
}

// Estimator predicts remote operator costs. Implementations must be safe
// for concurrent use by the optimizer.
type Estimator interface {
	// Approach identifies the costing approach.
	Approach() Approach
	// EstimateJoin predicts the elapsed time of a join operator.
	EstimateJoin(spec plan.JoinSpec) (Estimate, error)
	// EstimateAgg predicts the elapsed time of an aggregation operator.
	EstimateAgg(spec plan.AggSpec) (Estimate, error)
	// EstimateScan predicts the elapsed time of a filter/project scan.
	EstimateScan(spec plan.ScanSpec) (Estimate, error)
}

// EstimateJoins predicts a group of joins through e: one EstimateJoin call per
// spec, in order, the first error failing the group. It, EstimateAggs and
// EstimateScans remain only because the repo benchmark's per-layer ledger
// (bench/layers.go) compiles against them; planning calls the Estimator
// methods directly.
func EstimateJoins(e Estimator, specs []plan.JoinSpec) ([]Estimate, error) {
	return estimateEach(specs, e.EstimateJoin)
}

// EstimateAggs is EstimateJoins for aggregations.
func EstimateAggs(e Estimator, specs []plan.AggSpec) ([]Estimate, error) {
	return estimateEach(specs, e.EstimateAgg)
}

// EstimateScans is EstimateJoins for scans.
func EstimateScans(e Estimator, specs []plan.ScanSpec) ([]Estimate, error) {
	return estimateEach(specs, e.EstimateScan)
}

func estimateEach[S any](specs []S, estimate func(S) (Estimate, error)) ([]Estimate, error) {
	out := make([]Estimate, len(specs))
	for i, spec := range specs {
		est, err := estimate(spec)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// Feedback receives actual execution outcomes. Estimators that learn online
// (logical-op, hybrid) implement it; the engine feeds every remote execution
// back through it (the "Logging Phase" of Figure 3), together with the
// estimate the operator was priced with, so the remedy components the α
// re-fit needs are logged without estimating again.
type Feedback interface {
	// ObserveJoin logs an executed join, the estimate that priced it and its
	// actual elapsed seconds.
	ObserveJoin(spec plan.JoinSpec, est Estimate, actualSec float64)
	// ObserveAgg logs an executed aggregation.
	ObserveAgg(spec plan.AggSpec, est Estimate, actualSec float64)
	// ObserveScan logs an executed scan.
	ObserveScan(spec plan.ScanSpec, est Estimate, actualSec float64)
}
