package logicalop

import (
	"encoding/json"
	"fmt"

	"intellisphere/internal/core"
	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
)

// Estimator bundles the per-operator logical-op models into the module's
// Estimator interface. Any subset of models may be present; estimating an
// operator without a model returns core.ErrUnsupported.
type Estimator struct {
	Join *Model
	Agg  *Model
	Scan *Model
}

var (
	_ core.Estimator = (*Estimator)(nil)
	_ core.Feedback  = (*Estimator)(nil)
)

// Approach implements core.Estimator.
func (e *Estimator) Approach() core.Approach { return core.LogicalOp }

func toCoreEstimate(est Estimate) core.Estimate {
	return core.Estimate{
		Seconds:           est.Seconds,
		Approach:          core.LogicalOp,
		OutOfRange:        est.OutOfRange,
		NNSeconds:         est.NNSeconds,
		RegressionSeconds: est.RegSeconds,
	}
}

// EstimateJoin implements core.Estimator over the seven join dimensions.
func (e *Estimator) EstimateJoin(spec plan.JoinSpec) (core.Estimate, error) {
	if e.Join == nil {
		return core.Estimate{}, core.ErrUnsupported
	}
	if err := spec.Validate(); err != nil {
		return core.Estimate{}, fmt.Errorf("logicalop: %w", err)
	}
	est, err := e.Join.Estimate(spec.Dims())
	if err != nil {
		return core.Estimate{}, err
	}
	return toCoreEstimate(est), nil
}

// EstimateAgg implements core.Estimator over the four aggregation
// dimensions.
func (e *Estimator) EstimateAgg(spec plan.AggSpec) (core.Estimate, error) {
	if e.Agg == nil {
		return core.Estimate{}, core.ErrUnsupported
	}
	if err := spec.Validate(); err != nil {
		return core.Estimate{}, fmt.Errorf("logicalop: %w", err)
	}
	est, err := e.Agg.Estimate(spec.Dims())
	if err != nil {
		return core.Estimate{}, err
	}
	return toCoreEstimate(est), nil
}

// EstimateScan implements core.Estimator.
func (e *Estimator) EstimateScan(spec plan.ScanSpec) (core.Estimate, error) {
	if e.Scan == nil {
		return core.Estimate{}, core.ErrUnsupported
	}
	if err := spec.Validate(); err != nil {
		return core.Estimate{}, fmt.Errorf("logicalop: %w", err)
	}
	est, err := e.Scan.Estimate(scanDims(spec))
	if err != nil {
		return core.Estimate{}, err
	}
	return toCoreEstimate(est), nil
}

// ScanDimNames names the scan model's training dimensions.
func ScanDimNames() []string {
	return []string{"num_input_rows", "input_row_size", "num_output_rows", "output_row_size"}
}

func scanDims(spec plan.ScanSpec) []float64 {
	return []float64{spec.InputRows, spec.InputRowSize, spec.OutputRows(), spec.OutputRowSize}
}

// observe logs an execution against a model, re-estimating to recover the
// remedy components when the input was out of range.
func observe(m *Model, x []float64, actualSec float64) {
	if m == nil {
		return
	}
	est, err := m.Estimate(x)
	if err != nil {
		return
	}
	if est.OutOfRange {
		m.Observe(x, actualSec, est.NNSeconds, est.RegSeconds)
	} else {
		m.Observe(x, actualSec, 0, 0)
	}
}

// ObserveJoin implements core.Feedback.
func (e *Estimator) ObserveJoin(spec plan.JoinSpec, actualSec float64) {
	observe(e.Join, spec.Dims(), actualSec)
}

// ObserveAgg implements core.Feedback.
func (e *Estimator) ObserveAgg(spec plan.AggSpec, actualSec float64) {
	observe(e.Agg, spec.Dims(), actualSec)
}

// ObserveScan implements core.Feedback.
func (e *Estimator) ObserveScan(spec plan.ScanSpec, actualSec float64) {
	observe(e.Scan, scanDims(spec), actualSec)
}

// snapshot is the serializable form of one model.
type snapshot struct {
	Kind     string          `json:"kind"`
	DimNames []string        `json:"dim_names"`
	Dims     []DimensionMeta `json:"dims"`
	Alpha    float64         `json:"alpha"`
	Beta     float64         `json:"beta"`
	Neighbor int             `json:"neighbor_k"`
	Reg      *nn.Regressor   `json:"regressor"`
	TrainX   [][]float64     `json:"train_x"`
	TrainY   []float64       `json:"train_y"`
}

// MarshalJSON serializes the model (network, metadata, α, and the training
// set the remedy needs) for storage inside a costing profile.
func (m *Model) MarshalJSON() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return json.Marshal(snapshot{
		Kind:     m.kind,
		DimNames: m.dimNames,
		Dims:     m.dims,
		Alpha:    m.alpha,
		Beta:     m.cfg.Beta,
		Neighbor: m.cfg.NeighborK,
		Reg:      m.reg,
		TrainX:   m.trainX,
		TrainY:   m.trainY,
	})
}

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("logicalop: decode model: %w", err)
	}
	if s.Reg == nil || s.Reg.Net == nil || s.Reg.Norm == nil {
		return fmt.Errorf("logicalop: snapshot for %q is missing its regressor", s.Kind)
	}
	if len(s.DimNames) != len(s.Dims) {
		return fmt.Errorf("logicalop: snapshot dim mismatch (%d names, %d metas)", len(s.DimNames), len(s.Dims))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.kind = s.Kind
	m.dimNames = s.DimNames
	m.dims = s.Dims
	m.alpha = clampAlpha(s.Alpha)
	m.reg = s.Reg
	m.trainX = s.TrainX
	m.trainY = s.TrainY
	m.cfg = Config{Beta: s.Beta, NeighborK: s.Neighbor, InitialAlpha: s.Alpha}
	if err := m.cfg.normalize(len(s.DimNames)); err != nil {
		return err
	}
	return nil
}
