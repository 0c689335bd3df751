package optimizer

import (
	"context"

	"intellisphere/internal/sqlparse"
)

// PlanResult pairs one statement of a PlanBatchCtx call with its plan or
// error, and whether the plan came from the plan cache.
type PlanResult struct {
	Plan     *Plan
	Err      error
	CacheHit bool
}

// PlanBatchCtx plans each statement through PlanCtxHit, in order. Nothing in
// the serving path calls it — the engine plans statement by statement — it
// remains only because the repo benchmark's per-layer ledger (bench/layers.go)
// compiles against it.
func (o *Optimizer) PlanBatchCtx(ctx context.Context, stmts []*sqlparse.SelectStmt) []PlanResult {
	out := make([]PlanResult, len(stmts))
	for i, stmt := range stmts {
		out[i].Plan, out[i].CacheHit, out[i].Err = o.PlanCtxHit(ctx, stmt)
	}
	return out
}
