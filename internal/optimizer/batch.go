package optimizer

import (
	"context"
	"fmt"
	"sort"

	"intellisphere/internal/core"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/sqlparse"
)

// PlanResult pairs one statement of a batch with its plan or error.
type PlanResult struct {
	Plan *Plan
	Err  error
	// CacheHit marks a plan served from the plan cache (duplicates of a
	// hit statement within the batch share the verdict).
	CacheHit bool
}

// pendingStmt is one cache-missed scan or aggregation statement awaiting
// grouped estimation; ests aligns with the input's candidate-system order.
type pendingStmt struct {
	idx  int
	key  string
	stmt *sqlparse.SelectStmt
	in   *unaryInput
	ests [maxPlacements]core.Estimate
	// bad marks a statement whose estimate group failed; it re-plans through
	// the scalar path so its own error (or success) is exactly what
	// sequential planning would have produced.
	bad bool
}

// specRef addresses one (statement, candidate-system) estimate slot inside a
// per-system group.
type specRef struct {
	p   *pendingStmt
	pos int
}

// PlanBatch plans a group of statements together, returning one result per
// statement. Every plan is identical to what Plan would build for that
// statement alone; the batch only changes how the work is organized:
//
//   - the plan cache and the generation vector are consulted once per
//     distinct statement shape (duplicates share one plan, like cache hits);
//   - single-table scan and aggregation statements pool their candidate
//     placements per system, so each estimator sees one batched call per
//     operator kind (core.EstimateScans/EstimateAggs) instead of one call
//     per statement — the batched serving path's estimator amortization;
//   - join statements fall back to the scalar planner per statement (the
//     greedy chain interleaves transfers and estimates, so there is no
//     cross-statement grouping to exploit).
//
// A failed group estimate re-plans each affected statement through the
// scalar path, so per-statement errors match sequential planning.
func (o *Optimizer) PlanBatch(stmts []*sqlparse.SelectStmt) []PlanResult {
	return o.PlanBatchCtx(context.Background(), stmts)
}

// PlanBatchCtx is PlanBatch with context plumbing: a traced context records
// one costing span per (system, operator-kind) estimate group.
func (o *Optimizer) PlanBatchCtx(ctx context.Context, stmts []*sqlparse.SelectStmt) []PlanResult {
	out := make([]PlanResult, len(stmts))
	if o.Catalog == nil || o.Grid == nil || o.Estimators == nil || o.Estimators.Len() == 0 {
		err := fmt.Errorf("optimizer: catalog, grid, and estimators are required")
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if _, ok := o.Estimators.Get(querygrid.Master); !ok {
		err := fmt.Errorf("optimizer: no estimator registered for the master %q", querygrid.Master)
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	var gen uint64
	if o.Cache != nil {
		gen = o.generation()
	}
	done := func(i int, key string, p *Plan, err error) {
		out[i] = PlanResult{Plan: p, Err: err}
		if err == nil && o.Cache != nil {
			o.Cache.put(key, gen, p)
		}
	}

	// Deduplicate by normalized statement shape: repeats share one plan,
	// exactly as the plan cache would serve them.
	firstOf := make(map[string]int, len(stmts))
	dup := make([]int, len(stmts))
	var pend []*pendingStmt
	for i, stmt := range stmts {
		dup[i] = i
		if stmt == nil {
			out[i].Err = fmt.Errorf("optimizer: nil statement")
			continue
		}
		key := stmt.String()
		if j, ok := firstOf[key]; ok {
			dup[i] = j
			continue
		}
		firstOf[key] = i
		if o.Cache != nil {
			if p, ok := o.Cache.get(key, gen); ok {
				out[i].Plan = p
				out[i].CacheHit = true
				continue
			}
		}
		a, err := analyze(stmt, o.Catalog)
		if err != nil {
			out[i].Err = err
			continue
		}
		if len(stmt.Joins) > 0 {
			p, err := o.planAnalyzed(ctx, a)
			done(i, key, p, err)
			continue
		}
		in, err := o.unaryInputFor(a)
		if err != nil {
			out[i].Err = err
			continue
		}
		pend = append(pend, &pendingStmt{idx: i, key: key, stmt: stmt, in: in})
	}

	// Pool candidate placements per (operator kind, system): every statement
	// contributes one spec per candidate system, and each group resolves
	// with a single batched estimator call — scan groups first, then
	// aggregation groups, each in system order.
	groups := map[groupKey][]specRef{}
	for _, p := range pend {
		for pos, sys := range p.in.systems.list() {
			k := groupKey{agg: p.in.agg != nil, sys: sys}
			groups[k] = append(groups[k], specRef{p: p, pos: pos})
		}
	}
	for _, k := range sortedKeys(groups) {
		refs := groups[k]
		if k.agg {
			specs := make([]plan.AggSpec, len(refs))
			for i, r := range refs {
				specs[i] = *r.p.in.agg
			}
			o.resolveGroup(ctx, "aggregation", k.sys, refs, func(est core.Estimator) ([]core.Estimate, error) {
				return core.EstimateAggs(est, specs)
			})
			continue
		}
		specs := make([]plan.ScanSpec, len(refs))
		for i, r := range refs {
			specs[i] = *r.p.in.scan
		}
		o.resolveGroup(ctx, "scan", k.sys, refs, func(est core.Estimator) ([]core.Estimate, error) {
			return core.EstimateScans(est, specs)
		})
	}

	// Assemble each pending statement's candidates from the pooled estimates
	// and select exactly as the scalar sweep would.
	for _, p := range pend {
		if p.bad {
			pl, err := o.planUncached(ctx, p.stmt, nil)
			done(p.idx, p.key, pl, err)
			continue
		}
		pl, err := o.assemble(p.in, p.ests[:p.in.systems.n])
		if err == nil {
			pl, err = o.finishPlan(p.stmt, pl)
		}
		done(p.idx, p.key, pl, err)
	}

	// Duplicates share the representative's result (plans are immutable).
	for i, j := range dup {
		if i != j {
			out[i] = out[j]
		}
	}
	return out
}

// resolveGroup runs one batched estimator call for a per-system group and
// scatters the estimates back into each statement's slot. Any failure —
// missing estimator or a failed batch — marks every member statement for
// scalar re-planning instead of failing the group wholesale.
func (o *Optimizer) resolveGroup(ctx context.Context, operator, sys string, refs []specRef, batch func(core.Estimator) ([]core.Estimate, error)) {
	sp := costSpan(ctx, operator, sys)
	sp.SetInt("specs", len(refs))
	est, err := o.estimator(sys)
	if err == nil {
		var ests []core.Estimate
		if ests, err = batch(est); err == nil {
			for i, r := range refs {
				r.p.ests[r.pos] = ests[i]
			}
			if sp != nil && len(ests) > 0 {
				sp.SetAttr("approach", string(ests[0].Approach))
			}
			sp.End()
			return
		}
	}
	sp.EndErr(err)
	for _, r := range refs {
		r.p.bad = true
	}
}

// assemble builds the candidate sweep from precomputed estimates and picks
// the best placement, mirroring the scalar planUnary selection.
func (o *Optimizer) assemble(in *unaryInput, ests []core.Estimate) (*Plan, error) {
	var buf [maxPlacements]candidate
	cands := buf[:len(ests)]
	for pos := range cands {
		c, err := o.price(in, in.systems.sys[pos], ests[pos])
		if err != nil {
			return nil, err
		}
		cands[pos] = c
	}
	return in.pick(cands), nil
}

// groupKey names one pooled estimator call: an operator kind on a system.
type groupKey struct {
	agg bool
	sys string
}

// sortedKeys orders the groups: scans before aggregations, then by system.
func sortedKeys(m map[groupKey][]specRef) []groupKey {
	keys := make([]groupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].agg != keys[j].agg {
			return keys[j].agg
		}
		return keys[i].sys < keys[j].sys
	})
	return keys
}
