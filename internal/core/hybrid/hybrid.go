// Package hybrid implements the paper's hybrid costing (Section 5): every
// remote system registers a costing profile (CP) that stores whichever
// models exist for it — a sub-operator model set, logical-operator neural
// models, or both — and declares which approach is active, including the
// staged configuration of Figure 9 where a system is costed with an
// approximate sub-op model until its prolonged logical-op training
// completes ("sub-op costing [0…t1], logical-op costing [t1…]").
//
// As the paper's planned extension, a profile may also pin approaches per
// operator kind (e.g. aggregations via logical-op, joins via sub-op).
package hybrid

import (
	"encoding/json"
	"fmt"
	"sync"

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
	// Active selects the approach used now (core.SubOp or core.LogicalOp).
	Active core.Approach `json:"active"`
	// SwitchAfter, when > 0, switches a sub-op-active profile to logical-op
	// after that many estimates — provided the logical models exist by then.
	SwitchAfter int `json:"switch_after,omitempty"`
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

// Estimator routes operator costing through a profile, switching approaches
// per the profile's staging rules. It implements core.Estimator and
// core.Feedback.
type Estimator struct {
	mu      sync.Mutex
	profile *Profile
	sub     *subop.Estimator
	logical *logicalop.Estimator
	queries int
	// onChange, when set, is told of every in-place change to what the
	// estimator predicts (see OnChange).
	onChange func()
}

var (
	_ core.Estimator = (*Estimator)(nil)
	_ core.Feedback  = (*Estimator)(nil)
)

// NewEstimator validates the profile and builds the routing estimator.
func NewEstimator(p *Profile) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{profile: p}
	if p.SubOpModels != nil {
		sub, err := subop.NewEstimator(p.SubOpModels, p.Engine, p.Policy)
		if err != nil {
			return nil, err
		}
		e.sub = sub
	}
	if p.LogicalJoin != nil || p.LogicalAgg != nil || p.LogicalScan != nil {
		e.logical = &logicalop.Estimator{Join: p.LogicalJoin, Agg: p.LogicalAgg, Scan: p.LogicalScan}
	}
	return e, nil
}

// Approach implements core.Estimator.
func (e *Estimator) Approach() core.Approach { return core.Hybrid }

// Active returns the approach currently answering estimates.
func (e *Estimator) Active() core.Approach {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.profile.Active
}

// Queries returns how many estimates the profile has served.
func (e *Estimator) Queries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queries
}

// InstallLogicalModels hot-swaps freshly trained logical-op models into the
// profile (Figure 9's t1 moment: the prolonged logical-op training for a
// blackbox system finished while the approximate sub-op models served
// queries). Passing a nil model leaves the existing one in place.
func (e *Estimator) InstallLogicalModels(join, agg, scan *logicalop.Model) {
	e.mu.Lock()
	defer e.unlockChanged()
	if join != nil {
		e.profile.LogicalJoin = join
	}
	if agg != nil {
		e.profile.LogicalAgg = agg
	}
	if scan != nil {
		e.profile.LogicalScan = scan
	}
	e.logical = &logicalop.Estimator{
		Join: e.profile.LogicalJoin,
		Agg:  e.profile.LogicalAgg,
		Scan: e.profile.LogicalScan,
	}
}

// OnChange registers fn to run after every in-place change to what the
// estimator predicts: a model install, a forced switch, the SwitchAfter
// switchover. Whoever caches state derived from the estimator's answers (the
// engine, for its plan cache) hooks its invalidation here, once, where it
// takes the estimator in; a later call replaces the hook. fn runs without
// the estimator's lock, after the change is visible to estimates.
func (e *Estimator) OnChange(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onChange = fn
}

// unlockChanged releases e.mu and then reports a change made under it.
func (e *Estimator) unlockChanged() {
	fn := e.onChange
	e.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Switch forces the active approach (updating the profile so the change
// persists with it).
func (e *Estimator) Switch(a core.Approach) error {
	e.mu.Lock()
	var err error
	switch {
	case a == core.SubOp && e.sub == nil:
		err = fmt.Errorf("hybrid: %q has no sub-op models to switch to", e.profile.SystemName)
	case a == core.LogicalOp && e.logical == nil:
		err = fmt.Errorf("hybrid: %q has no logical-op models to switch to", e.profile.SystemName)
	case a != core.SubOp && a != core.LogicalOp:
		err = fmt.Errorf("hybrid: cannot switch to approach %q", a)
	}
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.profile.Active = a
	e.unlockChanged()
	return nil
}

// route picks the estimator for one operator kind, applying the per-operator
// overrides and the query-count switchover. Caller must NOT hold e.mu.
func (e *Estimator) route(kind string) (core.Estimator, error) {
	e.mu.Lock()
	e.queries++
	switched := e.profile.SwitchAfter > 0 && e.profile.Active == core.SubOp &&
		e.queries > e.profile.SwitchAfter && e.logical != nil
	if switched {
		e.profile.Active = core.LogicalOp
	}
	want := e.profile.Active
	if over, ok := e.profile.PerOperator[kind]; ok {
		want = over
	}
	sub, logical := e.sub, e.logical
	if switched {
		e.unlockChanged()
	} else {
		e.mu.Unlock()
	}
	switch want {
	case core.SubOp:
		if sub == nil {
			return nil, fmt.Errorf("hybrid: %q routes %s to sub-op but has no models", e.profile.SystemName, kind)
		}
		return sub, nil
	case core.LogicalOp:
		if logical == nil {
			return nil, fmt.Errorf("hybrid: %q routes %s to logical-op but has no models", e.profile.SystemName, kind)
		}
		return logical, nil
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
// Figure 8).
func (e *Estimator) ObserveJoin(spec plan.JoinSpec, actualSec float64) {
	if e.logical != nil {
		e.logical.ObserveJoin(spec, actualSec)
	}
}

// ObserveAgg implements core.Feedback.
func (e *Estimator) ObserveAgg(spec plan.AggSpec, actualSec float64) {
	if e.logical != nil {
		e.logical.ObserveAgg(spec, actualSec)
	}
}

// ObserveScan implements core.Feedback.
func (e *Estimator) ObserveScan(spec plan.ScanSpec, actualSec float64) {
	if e.logical != nil {
		e.logical.ObserveScan(spec, actualSec)
	}
}

// Profile returns the live profile (callers must treat it as owned by the
// estimator while the estimator is in use).
func (e *Estimator) Profile() *Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.profile
}
