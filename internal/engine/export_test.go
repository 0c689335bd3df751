package engine

import (
	"context"
	"encoding/json"

	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/sqlparse"
)

// The external tests (package engine_test, which can build a demo
// federation) restore snapshots through these.

// SnapshotState is the snapshot Durability.Snapshot would write now.
func (e *Engine) SnapshotState() ([]byte, error) { return json.Marshal(e.snapshot()) }

// RestoreState recovers a snapshot into the engine as a boot does.
func (e *Engine) RestoreState(data []byte) error {
	return e.restore(pending{}, data)
}

// EstimatorGeneration is the estimator registry's mutation counter.
func (e *Engine) EstimatorGeneration() uint64 { return e.estimators.Generation() }

// PlanExcluding plans a statement as a degraded re-plan does, avoiding the
// excluded systems; an empty set plans it as it is served.
func (e *Engine) PlanExcluding(sql string, exclude map[string]bool) (*optimizer.Plan, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.opt.PlanExcludingCtx(context.Background(), stmt, exclude)
}

// RunPlan executes a plan of the statement on the simulators, with no
// re-planning on a failure, and returns its simulated actual. Each operator
// step feeds its estimator as a served one does.
func (e *Engine) RunPlan(sql string, p *optimizer.Plan) (float64, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	res, err := e.execute(context.Background(), stmt, p)
	if err != nil {
		return 0, err
	}
	return res.ActualSec, nil
}

// SetChoicePolicy reinstalls every sub-op-costed estimator, the master's
// included, with the given choice policy.
func (e *Engine) SetChoicePolicy(policy subop.ChoicePolicy) error {
	for _, system := range e.estimators.Names() {
		cur, _ := e.estimators.Get(system)
		switch est := cur.(type) {
		case *subop.Estimator:
			next, err := subop.NewEstimator(est.Models, est.Engine, policy)
			if err != nil {
				return err
			}
			e.installEstimator(system, next)
		case *hybrid.Estimator:
			if est.Profile().SubOpModels == nil {
				continue
			}
			prof := *est.Profile()
			prof.Policy = policy
			next, err := hybrid.NewEstimator(&prof)
			if err != nil {
				return err
			}
			e.installEstimator(system, next)
		}
	}
	return nil
}
