// Package hybrid implements the paper's hybrid costing (Section 5): every
// remote system registers a costing profile (CP) that stores whichever
// models exist for it — a sub-operator model set, logical-operator neural
// models, or both — and declares which approach is active. Figure 9's staged
// configuration ("sub-op costing [0…t1], logical-op costing [t1…]") is two
// profiles: a sub-op one until the prolonged logical-op training completes at
// t1, then one with the trained models and logical-op active, installed as a
// new estimator in the first one's place.
//
// As the paper's planned extension, a profile may also pin approaches per
// operator kind (e.g. aggregations via logical-op, joins via sub-op).
package hybrid

import (
	"encoding/json"
	"fmt"

	"intellisphere/internal/core"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

// Profile is a remote system's costing profile. It is the unit of
// persistence: serializing it captures everything needed to cost operators
// on that system (Figure 9's "CP").
type Profile struct {
	SystemName string            `json:"system_name"`
	Engine     remote.EngineKind `json:"engine"`
	// Active selects the approach (core.SubOp or core.LogicalOp).
	Active core.Approach `json:"active"`
	// PerOperator overrides the active approach for specific operator kinds
	// ("join", "aggregation", "scan").
	PerOperator map[string]core.Approach `json:"per_operator,omitempty"`
	// Policy resolves physical-algorithm ambiguity in the sub-op approach.
	Policy subop.ChoicePolicy `json:"policy"`

	SubOpModels *subop.ModelSet  `json:"subop_models,omitempty"`
	LogicalJoin *logicalop.Model `json:"logical_join,omitempty"`
	LogicalAgg  *logicalop.Model `json:"logical_agg,omitempty"`
	LogicalScan *logicalop.Model `json:"logical_scan,omitempty"`
}

// Validate checks the profile names a system and that the active approach
// is backed by at least one model.
func (p *Profile) Validate() error {
	if p.SystemName == "" {
		return fmt.Errorf("hybrid: profile needs a system name")
	}
	switch p.Active {
	case core.SubOp:
		if p.SubOpModels == nil {
			return fmt.Errorf("hybrid: profile %q activates sub-op costing without sub-op models", p.SystemName)
		}
		return p.SubOpModels.Validate()
	case core.LogicalOp:
		if p.LogicalJoin == nil && p.LogicalAgg == nil && p.LogicalScan == nil {
			return fmt.Errorf("hybrid: profile %q activates logical-op costing without any logical model", p.SystemName)
		}
		return nil
	default:
		return fmt.Errorf("hybrid: profile %q has unknown active approach %q", p.SystemName, p.Active)
	}
}

// MarshalJSON serializes the profile.
func (p *Profile) MarshalJSON() ([]byte, error) {
	type alias Profile // avoid recursion
	return json.Marshal((*alias)(p))
}

// UnmarshalJSON restores a profile and validates it.
func (p *Profile) UnmarshalJSON(data []byte) error {
	type alias Profile
	if err := json.Unmarshal(data, (*alias)(p)); err != nil {
		return fmt.Errorf("hybrid: decode profile: %w", err)
	}
	return p.Validate()
}

// Estimator routes operator costing through a profile. It is fixed when
// NewEstimator returns: nothing changes which approach prices an operator
// afterwards, so a remote's costing changes only by building a new estimator
// and installing it in its place (the engine's registry swap). No estimate
// and no observed execution takes a lock here. It implements core.Estimator
// and core.Feedback.
type Estimator struct {
	profile *Profile
	sub     *subop.Estimator    // nil without sub-op models
	logical logicalop.Estimator // the profile's logical models, any of them nil
}

var (
	_ core.Estimator = (*Estimator)(nil)
	_ core.Feedback  = (*Estimator)(nil)
)

// NewEstimator validates the profile and builds the routing estimator. The
// estimator takes the profile over: neither side may change it afterwards.
func NewEstimator(p *Profile) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{profile: p, logical: logicalop.Estimator{Join: p.LogicalJoin, Agg: p.LogicalAgg, Scan: p.LogicalScan}}
	if p.SubOpModels != nil {
		sub, err := subop.NewEstimator(p.SubOpModels, p.Engine, p.Policy)
		if err != nil {
			return nil, err
		}
		e.sub = sub
	}
	return e, nil
}

// Approach implements core.Estimator.
func (e *Estimator) Approach() core.Approach { return core.Hybrid }

// Active returns the approach answering estimates without a per-operator
// override.
func (e *Estimator) Active() core.Approach { return e.profile.Active }

// route picks the estimator for one operator kind, applying the per-operator
// overrides.
func (e *Estimator) route(kind string) (core.Estimator, error) {
	want := e.profile.Active
	if over, ok := e.profile.PerOperator[kind]; ok {
		want = over
	}
	switch want {
	case core.SubOp:
		if e.sub == nil {
			return nil, fmt.Errorf("hybrid: %q routes %s to sub-op but has no models", e.profile.SystemName, kind)
		}
		return e.sub, nil
	case core.LogicalOp:
		if (e.logical == logicalop.Estimator{}) {
			return nil, fmt.Errorf("hybrid: %q routes %s to logical-op but has no models", e.profile.SystemName, kind)
		}
		return &e.logical, nil
	default:
		return nil, fmt.Errorf("hybrid: %q has unknown approach %q for %s", e.profile.SystemName, want, kind)
	}
}

// EstimateJoin implements core.Estimator.
func (e *Estimator) EstimateJoin(spec plan.JoinSpec) (core.Estimate, error) {
	est, err := e.route("join")
	if err != nil {
		return core.Estimate{}, err
	}
	return est.EstimateJoin(spec)
}

// EstimateAgg implements core.Estimator.
func (e *Estimator) EstimateAgg(spec plan.AggSpec) (core.Estimate, error) {
	est, err := e.route("aggregation")
	if err != nil {
		return core.Estimate{}, err
	}
	return est.EstimateAgg(spec)
}

// EstimateScan implements core.Estimator.
func (e *Estimator) EstimateScan(spec plan.ScanSpec) (core.Estimate, error) {
	est, err := e.route("scan")
	if err != nil {
		return core.Estimate{}, err
	}
	return est.EstimateScan(spec)
}

// ObserveJoin implements core.Feedback (logical models learn online; sub-op
// models do not need it — "model continuous tuning is less critical",
// Figure 8). The estimate is forwarded as it came: one the sub-op side
// priced carries no remedy components, so the logical model logs zeros.
func (e *Estimator) ObserveJoin(spec plan.JoinSpec, est core.Estimate, actualSec float64) {
	e.logical.ObserveJoin(spec, est, actualSec)
}

// ObserveAgg implements core.Feedback.
func (e *Estimator) ObserveAgg(spec plan.AggSpec, est core.Estimate, actualSec float64) {
	e.logical.ObserveAgg(spec, est, actualSec)
}

// ObserveScan implements core.Feedback.
func (e *Estimator) ObserveScan(spec plan.ScanSpec, est core.Estimate, actualSec float64) {
	e.logical.ObserveScan(spec, est, actualSec)
}

// Profile returns the profile the estimator was built from. It is read-only:
// a changed profile is a new estimator.
func (e *Estimator) Profile() *Profile { return e.profile }
