package optimizer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"intellisphere/internal/catalog"
	"intellisphere/internal/core"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/jsonstr"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/registry"
	"intellisphere/internal/sqlparse"
	"intellisphere/internal/trace"
)

// Optimizer is the master engine's federated planner. Estimators is a
// read-mostly registry (keyed by system name, incl. querygrid.Master) so
// concurrent planners never contend with registration; lookups are
// lock-free.
type Optimizer struct {
	Catalog    *catalog.Catalog
	Grid       *querygrid.Grid
	Estimators *registry.Map[core.Estimator]
	// Cache, when non-nil, memoizes finished plans keyed by the statement's
	// canonical text (rendered per lookup) and stamped with the Epoch read
	// before each was built; a plan from another epoch is re-planned and
	// replaced. Cached plans are byte-identical to freshly built ones — the
	// cache only skips the candidate enumeration. The engine leaves it nil:
	// its statement cache keeps each statement's plan beside its parse.
	Cache *PlanCache
}

// Step is one unit of a physical plan: either a data transfer or an
// operator execution on a system.
type Step struct {
	// Kind is "transfer", "scan", "join", or "aggregation".
	Kind string
	// System executes the step (for transfers, the destination).
	System string
	// From is the transfer source (transfers only).
	From string
	// Rows/RowSize describe the transferred volume (transfers only).
	Rows, RowSize float64
	// Join/Agg/Scan hold the operator spec for operator steps.
	Join *plan.JoinSpec
	Agg  *plan.AggSpec
	Scan *plan.ScanSpec
	// EstimatedSec is the step's predicted elapsed time.
	EstimatedSec float64
	// Estimate is the raw estimator output for operator steps.
	Estimate core.Estimate
}

// appendTo renders the step's EXPLAIN line as the inside of a JSON string:
// the names it interpolates go through the escaper, and the fixed text and
// the numbers need none.
func (s *Step) appendTo(b []byte) []byte {
	switch s.Kind {
	case "transfer":
		b = appendFixed(append(b, "transfer "...), s.Rows, 0)
		b = appendFixed(append(b, " rows × "...), s.RowSize, 0)
		b = jsonstr.Append(append(b, " B  "...), s.From)
		b = jsonstr.Append(append(b, " → "...), s.System)
		b = append(b, "  "...)
	case "join":
		b = jsonstr.Append(append(b, "join on "...), s.System)
		if s.Estimate.Algorithm != "" { // a logical-op estimate names none
			b = jsonstr.Append(append(b, " via "...), s.Estimate.Algorithm)
		}
		b = append(b, ' ')
	case "aggregation", "scan":
		b = append(jsonstr.Append(b, s.Kind), " on "...)
		b = append(jsonstr.Append(b, s.System), ' ')
	case "sort":
		b = appendFixed(append(b, "sort "...), s.Rows, 0)
		b = jsonstr.Append(append(b, " rows on "...), s.System)
		b = append(b, ' ')
	default:
		return jsonstr.Append(b, s.Kind)
	}
	return appendSeconds(b, s.EstimatedSec)
}

// appendSeconds appends "(<sec, two decimals>s)".
func appendSeconds(b []byte, sec float64) []byte {
	return append(appendFixed(append(b, '('), sec, 2), "s)"...)
}

// Alternative is one rejected placement: the operator (Kind as steps name it,
// Join its 1-based place in a chain, else 0), the system, and the plan's cost.
type Alternative struct {
	Kind         string
	Join         int
	System       string
	EstimatedSec float64
}

// appendTo renders the placement for EXPLAIN, escaped as Step.appendTo is:
// "join 2 on spark".
func (a *Alternative) appendTo(b []byte) []byte {
	b = jsonstr.Append(b, a.Kind)
	if a.Join > 0 {
		b = strconv.AppendInt(append(b, ' '), int64(a.Join), 10)
	}
	return jsonstr.Append(append(b, " on "...), a.System)
}

// Plan is a chosen physical plan with its costed alternatives. Plans are
// immutable once built (the plan cache shares one *Plan across callers), so
// the Explain rendering and the list of systems touched are derived once.
type Plan struct {
	Steps        []Step
	EstimatedSec float64
	Alternatives []Alternative
	// OutputRows/OutputRowSize describe the final result shipped to the
	// user through the master.
	OutputRows    float64
	OutputRowSize float64
	// Excluded lists the systems a degraded re-plan avoided, sorted; empty
	// for a normal plan.
	Excluded []string

	// view is the plan's rendering once there is one. The planner renders
	// into own and points view at it before it hands the plan out, so a
	// reader pays one atomic load; a plan assembled by hand renders on first
	// use, and of several first users one rendering wins.
	view atomic.Pointer[rendering]
	own  rendering

	// What the planner builds into, so that a plan is one allocation (of the
	// 1152-B size class) besides its rendering; Steps may outgrow it by append.
	stepBuf [4]Step
	altBuf  [2]Alternative
	scan    plan.ScanSpec
	agg     plan.AggSpec
	joins   [2]plan.JoinSpec
}

// plans holds the plans Release gave back, reset, for newPlan to build on.
var plans = sync.Pool{New: func() any { return new(Plan) }}

// newPlan starts a plan on its own backing, recycled when there is one.
func newPlan() *Plan {
	p := plans.Get().(*Plan)
	p.Steps, p.Alternatives = p.stepBuf[:0], p.altBuf[:0]
	return p
}

// Release gives a plan back for the planner to build another on. Only the
// plan's one owner may call it, once nothing reads the plan any more: never
// for a plan a cache holds or a caller may still read. The rendering, which
// is an allocation of its own, stays valid for whoever kept ExplainJSON's
// text or the Systems list.
func Release(p *Plan) {
	*p = Plan{}
	plans.Put(p)
}

// rendering is what a finished plan derives from its steps: EXPLAIN in the
// form an answer carries it, a quoted JSON string, and the systems list. Both
// are allocations of their own: wide events keep the systems list, and must
// not keep the plan (and everything it points to) alive through it.
type rendering struct {
	quoted  string
	systems []string
}

func (p *Plan) rendered() *rendering {
	if r := p.view.Load(); r != nil {
		return r
	}
	r := new(rendering)
	p.renderInto(r)
	p.view.CompareAndSwap(nil, r)
	return p.view.Load()
}

// Systems lists the distinct systems the plan places steps on, sorted;
// transfer steps contribute both endpoints. The list is computed once per
// plan and shared: callers must not modify it.
func (p *Plan) Systems() []string { return p.rendered().systems }

// ExplainJSON is the plan's EXPLAIN text as a quoted JSON string, escaped as
// encoding/json escapes it with HTML escaping on: what an answer's "explain"
// field holds, ready to copy. It is rendered once per plan, so cache hits
// return the same bytes without re-formatting or re-escaping.
func (p *Plan) ExplainJSON() string { return p.rendered().quoted }

// Explain is the plan's EXPLAIN text, unquoted from ExplainJSON: a new string
// on every call, for the callers that print or compare it.
func (p *Plan) Explain() string {
	q := p.rendered().quoted
	q = q[1 : len(q)-1]
	var b strings.Builder
	b.Grow(len(q)) // an escape is never shorter than what it stands for
	for {
		i := strings.IndexByte(q, '\\')
		if i < 0 {
			b.WriteString(q)
			return b.String()
		}
		b.WriteString(q[:i])
		// The escaper writes only escapes UnquoteChar reads.
		r, _, tail, _ := strconv.UnquoteChar(q[i:], '"')
		b.WriteRune(r)
		q = tail
	}
}

func (p *Plan) renderInto(r *rendering) {
	r.systems = make([]string, 0, 4)
	add := func(sys string) {
		if sys != "" && !slices.Contains(r.systems, sys) {
			r.systems = append(r.systems, sys)
		}
	}
	for i := range p.Steps {
		add(p.Steps[i].System)
		add(p.Steps[i].From)
	}
	sort.Strings(r.systems)

	// The text is rendered quoted in one pass: each line break is written as
	// its escape, each name through the escaper.
	var buf [1024]byte // most renderings fit: the text is then copied once
	b := append(buf[:0], '"')
	if len(p.Excluded) > 0 {
		b = append(b, "degraded plan (excluded: "...)
		for i, sys := range p.Excluded {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = jsonstr.Append(b, sys)
		}
		b = append(b, `)\n`...)
	}
	b = appendFixed(append(b, "plan (estimated "...), p.EstimatedSec, 2)
	b = append(b, `s):\n`...)
	for i := range p.Steps {
		b = strconv.AppendInt(append(b, "  "...), int64(i+1), 10)
		b = p.Steps[i].appendTo(append(b, ". "...))
		b = append(b, `\n`...)
	}
	if len(p.Alternatives) > 0 {
		b = append(b, `rejected alternatives:\n`...)
		for i := range p.Alternatives {
			a := &p.Alternatives[i]
			b = a.appendTo(append(b, "  - "...))
			b = append(appendSeconds(append(b, ' '), a.EstimatedSec), `\n`...)
		}
	}
	r.quoted = string(append(b, '"'))
}

// PlanCtx builds the cheapest federated plan for a parsed statement,
// consulting the plan cache first when one is configured. A cache hit returns
// the previously built plan (callers must treat plans as immutable); any
// change to the catalog, the grid links, or any estimator invalidates
// implicitly by advancing the Epoch. When the context carries an active
// trace span, candidate-costing work records per-(system, operator) spans
// under it.
func (o *Optimizer) PlanCtx(ctx context.Context, stmt *sqlparse.SelectStmt) (*Plan, error) {
	p, _, err := o.PlanCtxHit(ctx, stmt)
	return p, err
}

// PlanCtxHit is PlanCtx additionally reporting whether the plan was served
// from the plan cache — the per-query verdict the wide-event log records.
func (o *Optimizer) PlanCtxHit(ctx context.Context, stmt *sqlparse.SelectStmt) (*Plan, bool, error) {
	return o.planExcludingHit(ctx, stmt, nil)
}

// PlanExcludingCtx plans a statement avoiding the named systems entirely — no
// operator placement, no transfer endpoint, no table read touches them.
// Tables owned by an excluded system are read from a replica when one is
// linked. Degraded plans bypass the plan cache in both directions: they are
// neither served from it (cached plans assume the full federation) nor
// stored in it (the exclusion is transient — the failed remote is expected
// back). The master cannot be excluded; it anchors every plan.
func (o *Optimizer) PlanExcludingCtx(ctx context.Context, stmt *sqlparse.SelectStmt, exclude map[string]bool) (*Plan, error) {
	p, _, err := o.planExcludingHit(ctx, stmt, exclude)
	return p, err
}

// planExcludingHit is the planning entry point all public variants reduce
// to; the bool reports a plan-cache hit.
func (o *Optimizer) planExcludingHit(ctx context.Context, stmt *sqlparse.SelectStmt, exclude map[string]bool) (*Plan, bool, error) {
	if o.Catalog == nil || o.Grid == nil || o.Estimators == nil || o.Estimators.Len() == 0 {
		return nil, false, fmt.Errorf("optimizer: catalog, grid, and estimators are required")
	}
	if _, ok := o.Estimators.Get(querygrid.Master); !ok {
		return nil, false, fmt.Errorf("optimizer: no estimator registered for the master %q", querygrid.Master)
	}
	if exclude[querygrid.Master] {
		return nil, false, fmt.Errorf("optimizer: the master %q cannot be excluded", querygrid.Master)
	}
	sp := trace.SpanFromContext(ctx)
	if o.Cache == nil || len(exclude) > 0 {
		if sp != nil && len(exclude) > 0 {
			sp.SetAttr("cache", "bypass")
		}
		p, err := o.planUncached(ctx, stmt, exclude)
		return p, false, err
	}
	key := stmt.String()
	epoch := o.Epoch()
	if cur, ok := o.Cache.Get(key); ok && cur.Epoch == epoch {
		sp.SetAttr("cache", "hit")
		return cur.Plan, true, nil
	}
	sp.SetAttr("cache", "miss")
	p, err := o.planUncached(ctx, stmt, nil)
	if err != nil {
		return nil, false, err
	}
	o.Cache.Put(key, StampedPlan{Plan: p, Epoch: epoch})
	return p, false, nil
}

// Epoch is the stamp a cached plan carries: a count of every change to
// anything the planner's output depends on. Catalog mutations, link changes
// and estimator installs each advance their own object's counter; an
// estimator never changes in place, so a changed model is an install and
// keeps no counter of its own. The three objects last as long as the optimizer
// and their counters only go up, so the sum never returns to an earlier
// value — which a term that leaves the sum when its object is replaced
// would let it do.
func (o *Optimizer) Epoch() uint64 {
	return o.Catalog.Generation() + o.Grid.Generation() + o.Estimators.Generation()
}

// planUncached runs the full candidate enumeration. The bound statement and
// its backing live apart on this frame: a value pointing into itself escapes.
func (o *Optimizer) planUncached(ctx context.Context, stmt *sqlparse.SelectStmt, exclude map[string]bool) (*Plan, error) {
	var bindBuf [3]binding
	var predBuf [2]predSpan
	var joinBuf [2]joinStep
	a, err := analyze(stmt, o.Catalog, bindBuf[:], predBuf[:], joinBuf[:])
	if err != nil {
		return nil, err
	}
	a.exclude = exclude
	return o.planAnalyzed(ctx, &a)
}

// planAnalyzed enumerates the candidates of a bound statement.
func (o *Optimizer) planAnalyzed(ctx context.Context, a *analyzed) (*Plan, error) {
	var (
		p   *Plan
		err error
	)
	if len(a.stmt.Joins) > 0 {
		p, err = o.planJoin(ctx, a)
	} else {
		p, err = o.planUnary(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	if len(a.exclude) > 0 {
		p.Excluded = make([]string, 0, len(a.exclude))
		for s := range a.exclude {
			p.Excluded = append(p.Excluded, s)
		}
		sort.Strings(p.Excluded)
	}
	return o.finishPlan(a.stmt, p)
}

// finishPlan appends the final ORDER BY sort (executed on the master, where
// the result lands) and applies the LIMIT row cap to the plan metadata.
func (o *Optimizer) finishPlan(stmt *sqlparse.SelectStmt, p *Plan) (*Plan, error) {
	if len(stmt.OrderBy) > 0 {
		sec := o.masterSortCost(p.OutputRows, p.OutputRowSize)
		p.Steps = append(p.Steps, Step{Kind: "sort", System: querygrid.Master,
			Rows: p.OutputRows, RowSize: p.OutputRowSize, EstimatedSec: sec})
		p.EstimatedSec += sec
	}
	if stmt.Limit > 0 && p.OutputRows > float64(stmt.Limit) {
		p.OutputRows = float64(stmt.Limit)
	}
	p.renderInto(&p.own)
	p.view.Store(&p.own)
	return p, nil
}

// masterSortCost prices the final sort with the master's learned sub-op
// models when available, falling back to a coarse analytic estimate.
func (o *Optimizer) masterSortCost(rows, rowSize float64) float64 {
	if est, ok := o.Estimators.Get(querygrid.Master); ok {
		if sub, ok := est.(*subop.Estimator); ok && sub.Models != nil {
			return sub.Models.SortOnlyCost(rows, rowSize)
		}
	}
	return 0.05 + rows*2e-7
}

// estimator returns the cost estimator for a system.
func (o *Optimizer) estimator(system string) (core.Estimator, error) {
	e, ok := o.Estimators.Get(system)
	if !ok {
		return nil, fmt.Errorf("optimizer: no cost estimator registered for system %q", system)
	}
	return e, nil
}

// byCost orders two costs for a stable sort (first-seen wins ties).
func byCost(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// transferStep is the plan step moving rows × rowSize bytes from → to.
func transferStep(from, to string, rows, rowSize, sec float64) Step {
	return Step{Kind: "transfer", From: from, System: to, Rows: rows, RowSize: rowSize, EstimatedSec: sec}
}

// maxPlacements bounds an operator's candidate systems: the owners of its at
// most two inputs plus the master.
const maxPlacements = 3

// placements is the set of candidate systems for one operator, in sweep
// order.
type placements struct {
	sys [maxPlacements]string
	n   int
}

// list returns the systems in sweep order.
func (ps *placements) list() []string { return ps.sys[:ps.n] }

// placements enumerates candidate systems for an operator over inputs owned
// by the given (at most two) systems: every distinct non-excluded owner plus
// the master (which is never excluded).
func (a *analyzed) placements(owners ...string) (ps placements) {
	add := func(s string) {
		for _, seen := range ps.list() {
			if seen == s {
				return
			}
		}
		ps.sys[ps.n] = s
		ps.n++
	}
	for _, s := range owners {
		if !a.exclude[s] {
			add(s)
		}
	}
	add(querygrid.Master)
	return ps
}

// unaryInput is everything the placement sweep of a single-table statement
// needs — its operator is a scan or an aggregation, so exactly one of
// scan/agg is set, pointing into the plan the sweep builds, whose operator
// step points at it too.
type unaryInput struct {
	owner string
	// rows × rowSize filtered by sel is what QueryGrid prices when the table
	// ships off its owner; shipRows is the row count that transfer reports.
	rows, rowSize, sel, shipRows float64
	// outRows × outSize is the operator's result, shipped to the master.
	outRows, outSize float64
	scan             *plan.ScanSpec
	agg              *plan.AggSpec
	systems          placements // candidate placements, in sweep order
}

// kind names the operator the way plan steps and EXPLAIN do.
func (in *unaryInput) kind() string {
	if in.agg != nil {
		return "aggregation"
	}
	return "scan"
}

// unaryInputFor derives the operator spec of a single-table statement into
// p and its candidate placements into in.
func (o *Optimizer) unaryInputFor(a *analyzed, p *Plan, in *unaryInput) error {
	t := a.binds[0].table
	owner, err := a.systemOf(0)
	if err != nil {
		return err
	}
	*in = unaryInput{
		owner:   owner,
		rows:    float64(t.Rows),
		rowSize: float64(t.RowSize()),
		sel:     a.binds[0].sel,
		systems: a.placements(owner),
	}
	if a.stmt.HasAggregates() || len(a.stmt.GroupBy) > 0 {
		inRows := in.rows * in.sel
		if inRows < 1 {
			inRows = 1
		}
		outRows := a.groupRows(inRows)
		p.agg = plan.AggSpec{
			InputRows:     inRows,
			InputRowSize:  in.rowSize,
			OutputRows:    outRows,
			OutputRowSize: a.aggWidth,
			NumAggregates: a.numAggs,
		}
		in.agg = &p.agg
		in.shipRows, in.outRows, in.outSize = inRows, outRows, a.aggWidth
		return nil
	}
	proj := a.binds[0].proj
	p.scan = plan.ScanSpec{
		InputRows:     in.rows,
		InputRowSize:  in.rowSize,
		Selectivity:   in.sel,
		OutputRowSize: proj,
	}
	in.scan = &p.scan
	in.shipRows, in.outRows, in.outSize = in.rows*in.sel, in.scan.OutputRows(), proj
	return nil
}

// candidate is one costed placement of a single-table operator: what it
// takes to ship the (filtered, thanks to QueryGrid pushdown) table to sys
// unless sys owns it, run the operator there, and land the result on the
// master. Steps are only built for the placement that wins.
type candidate struct {
	sys              string
	shipSec, backSec float64
	est              core.Estimate
	total            float64
}

// pick selects the cheapest candidate (reordering cands), builds its steps
// into p, and lists the rest as alternatives.
func (in *unaryInput) pick(p *Plan, cands []candidate) {
	slices.SortStableFunc(cands, func(x, y candidate) int { return byCost(x.total, y.total) })
	best := &cands[0]
	p.EstimatedSec, p.OutputRows, p.OutputRowSize = best.total, in.outRows, in.outSize
	if best.sys != in.owner {
		p.Steps = append(p.Steps, transferStep(in.owner, best.sys, in.shipRows, in.rowSize, best.shipSec))
	}
	p.Steps = append(p.Steps, Step{Kind: in.kind(), System: best.sys, Scan: in.scan, Agg: in.agg,
		EstimatedSec: best.est.Seconds, Estimate: best.est})
	if best.sys != querygrid.Master {
		p.Steps = append(p.Steps, transferStep(best.sys, querygrid.Master, in.outRows, in.outSize, best.backSec))
	}
	for _, c := range cands[1:] {
		p.Alternatives = append(p.Alternatives, Alternative{Kind: in.kind(), System: c.sys, EstimatedSec: c.total})
	}
}

// costSpan opens one candidate-costing span (nil on untraced contexts) and
// annotates it with the placement being priced.
func costSpan(ctx context.Context, operator, system string) *trace.Span {
	_, sp := trace.Start(ctx, "cost")
	if sp != nil {
		sp.SetSystem(system)
		sp.SetAttr("operator", operator)
	}
	return sp
}

// endCostSpan closes a costing span with the estimate it produced.
func endCostSpan(sp *trace.Span, ce core.Estimate, err error) {
	if sp == nil {
		return
	}
	if err == nil {
		sp.SetAttr("approach", string(ce.Approach))
		sp.SetFloat("estimated_sec", ce.Seconds)
	}
	sp.EndErr(err)
}

// costUnary estimates in's operator on its i-th candidate system and prices
// the placement: the estimate plus the transfers there and back.
func (o *Optimizer) costUnary(ctx context.Context, in *unaryInput, i int) (candidate, error) {
	sys := in.systems.sys[i]
	est, err := o.estimator(sys)
	if err != nil {
		return candidate{}, err
	}
	sp := costSpan(ctx, in.kind(), sys)
	var ce core.Estimate
	if in.agg != nil {
		ce, err = est.EstimateAgg(*in.agg)
	} else {
		ce, err = est.EstimateScan(*in.scan)
	}
	endCostSpan(sp, ce, err)
	if err != nil {
		return candidate{}, fmt.Errorf("optimizer: %s estimate on %q: %w", in.kind(), sys, err)
	}
	c := candidate{sys: sys, est: ce}
	if sys != in.owner {
		sec, err := o.Grid.TransferCostFiltered(in.owner, sys, in.rows, in.rowSize, in.sel)
		if err != nil {
			return candidate{}, err
		}
		c.shipSec = sec
		c.total += sec
	}
	c.total += ce.Seconds
	if sys != querygrid.Master {
		sec, err := o.Grid.TransferCost(sys, querygrid.Master, in.outRows, in.outSize)
		if err != nil {
			return candidate{}, err
		}
		c.backSec = sec
		c.total += sec
	}
	return c, nil
}

// planUnary places a single-table filter/project or aggregation.
func (o *Optimizer) planUnary(ctx context.Context, a *analyzed) (*Plan, error) {
	p := newPlan()
	var in unaryInput
	err := o.unaryInputFor(a, p, &in)
	if err != nil {
		return nil, err
	}
	// The at most maxPlacements estimates cost under a microsecond each, so
	// they are swept on the calling goroutine: handing them to workers costs
	// several times the estimates themselves (DESIGN.md §6).
	var buf [maxPlacements]candidate
	cands := buf[:in.systems.n]
	for i := range cands {
		if cands[i], err = o.costUnary(ctx, &in, i); err != nil {
			return nil, err
		}
	}
	in.pick(p, cands)
	return p, nil
}

// joinSweep is one join of the chain awaiting placement: the operator spec,
// where its two inputs sit, and which of them still ship as base tables.
type joinSweep struct {
	join int // 0-based position in the chain
	spec *plan.JoinSpec
	// The left input (spec.Left) sits on curLoc; curBase is its binding
	// while it is still a base table, -1 once it is an intermediate result.
	curLoc  string
	curBase int
	// The newly joined table (spec.Right, binding newBind) is read from
	// nxtOwner.
	nxtOwner string
	newBind  int
}

// joinOption is one costed placement of a join: the transfers that bring
// each input to sys (zero when it is already there) plus the estimate.
type joinOption struct {
	sys                 string
	shipLeft, shipRight float64
	est                 core.Estimate
	cost                float64
}

// joinOption prices running sw's join on sys. a is not in the sweep, whose
// strings escape into the grid's errors and would take a to the heap.
func (o *Optimizer) joinOption(ctx context.Context, a *analyzed, sw joinSweep, sys string) (joinOption, error) {
	est, err := o.estimator(sys)
	if err != nil {
		return joinOption{}, err
	}
	opt := joinOption{sys: sys}
	if sys != sw.curLoc {
		if opt.shipLeft, err = o.shipInput(sw.curLoc, sys, sw.curBase, a, sw.spec.Left); err != nil {
			return joinOption{}, err
		}
		opt.cost += opt.shipLeft
	}
	if sys != sw.nxtOwner {
		if opt.shipRight, err = o.shipInput(sw.nxtOwner, sys, sw.newBind, a, sw.spec.Right); err != nil {
			return joinOption{}, err
		}
		opt.cost += opt.shipRight
	}
	sp := costSpan(ctx, "join", sys)
	sp.SetInt("join", sw.join+1)
	opt.est, err = est.EstimateJoin(*sw.spec)
	endCostSpan(sp, opt.est, err)
	if err != nil {
		return joinOption{}, fmt.Errorf("optimizer: join estimate on %q: %w", sys, err)
	}
	opt.cost += opt.est.Seconds
	return opt, nil
}

// planJoin places a left-deep join chain (with optional aggregation on
// top). Each join is placed greedily on the system minimizing the step's
// transfers plus estimated execution; intermediate results stay where they
// were produced until a cheaper placement pulls them (Section 2's "results
// ... may remain on that remote system for further computations").
func (o *Optimizer) planJoin(ctx context.Context, a *analyzed) (*Plan, error) {
	// The first join always probes binding 0 (a CROSS one probes nothing).
	cur := a.side(0, a.joins[0].probeCol)
	curLoc, err := a.systemOf(0)
	if err != nil {
		return nil, err
	}
	curBase := 0 // the intermediate's binding while it is still a base table
	p := newPlan()

	for i, st := range a.joins {
		nxt := a.side(st.newBind, st.newCol)
		nxtOwner, err := a.systemOf(st.newBind)
		if err != nil {
			return nil, err
		}

		// The probe side's key statistics: NDV of the probe column on its
		// base table, capped by the intermediate cardinality.
		left := cur
		if st.probe >= 0 && st.probe != curBase {
			left.KeyNDV = math.Min(a.binds[st.probe].table.NDV(st.probeCol), cur.Rows)
			left.PartitionedOn, left.SortedOn = false, false
		}

		// Output cardinality.
		var outRows float64
		if st.cross {
			outRows = left.Rows * nxt.Rows
		} else {
			maxNDV := math.Max(left.KeyNDV, nxt.KeyNDV)
			if maxNDV < 1 {
				maxNDV = 1
			}
			outRows = left.Rows * nxt.Rows / maxNDV
		}
		// A cross-table predicate becomes applicable with the join that
		// brings in the last of its tables, and is taken over the join key's
		// domain when the join has one.
		minNDV := math.Min(left.KeyNDV, nxt.KeyNDV)
		for pi, span := range a.preds {
			if span.lo == span.hi || span.hi != st.newBind {
				continue
			}
			ndv := span.ndv
			if minNDV > 0 {
				ndv = minNDV
			}
			outRows *= selectivity(a.stmt.Where[pi], ndv)
		}
		if outRows < 1 {
			outRows = 1
		}
		// In the plan: the winning placement's step keeps pointing at it.
		var spec *plan.JoinSpec
		if i < len(p.joins) {
			spec = &p.joins[i]
		} else {
			spec = new(plan.JoinSpec)
		}
		*spec = plan.JoinSpec{Left: left, Right: nxt, OutputRows: outRows, Cartesian: st.cross}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("optimizer: join %d spec: %w", i+1, err)
		}

		// Greedy placement of this join step: cost every candidate system,
		// then select from the ordered results (first-seen wins cost ties).
		sw := joinSweep{join: i, spec: spec,
			curLoc: curLoc, curBase: curBase, nxtOwner: nxtOwner, newBind: st.newBind}
		systems := a.placements(curLoc, nxtOwner)
		var optBuf [maxPlacements]joinOption
		options := optBuf[:systems.n]
		for oi, sys := range systems.list() {
			if options[oi], err = o.joinOption(ctx, a, sw, sys); err != nil {
				return nil, err
			}
		}
		best := 0
		var rejBuf [maxPlacements]int
		rejected := rejBuf[:0]
		for oi := 1; oi < len(options); oi++ {
			if options[oi].cost < options[best].cost {
				rejected = append(rejected, best)
				best = oi
			} else {
				rejected = append(rejected, oi)
			}
		}
		win := &options[best]
		if win.sys != curLoc {
			p.Steps = append(p.Steps, transferStep(curLoc, win.sys, left.Rows, left.RowSize, win.shipLeft))
		}
		if win.sys != nxtOwner {
			p.Steps = append(p.Steps, transferStep(nxtOwner, win.sys, nxt.Rows, nxt.RowSize, win.shipRight))
		}
		p.Steps = append(p.Steps, Step{Kind: "join", System: win.sys, Join: spec,
			EstimatedSec: win.est.Seconds, Estimate: win.est})
		p.EstimatedSec += win.cost
		for _, r := range rejected {
			p.Alternatives = append(p.Alternatives, Alternative{Kind: "join", Join: i + 1, System: options[r].sys,
				EstimatedSec: p.EstimatedSec - win.cost + options[r].cost})
		}

		// The intermediate result: projected attributes of both inputs.
		cur = plan.TableSide{
			Rows:          outRows,
			RowSize:       spec.OutputRowSize(),
			ProjectedSize: spec.OutputRowSize(),
			KeyNDV:        outRows,
		}
		curLoc = win.sys
		curBase = -1
	}

	finalRows, finalSize := cur.Rows, cur.RowSize
	if a.stmt.HasAggregates() || len(a.stmt.GroupBy) > 0 {
		aggRows := a.groupRows(cur.Rows)
		p.agg = plan.AggSpec{
			InputRows: cur.Rows, InputRowSize: cur.RowSize,
			OutputRows: aggRows, OutputRowSize: a.aggWidth, NumAggregates: a.numAggs,
		}
		est, err := o.estimator(curLoc)
		if err != nil {
			return nil, err
		}
		sp := costSpan(ctx, "aggregation", curLoc)
		ace, err := est.EstimateAgg(p.agg)
		endCostSpan(sp, ace, err)
		if err != nil {
			return nil, fmt.Errorf("optimizer: post-join aggregation on %q: %w", curLoc, err)
		}
		p.Steps = append(p.Steps, Step{Kind: "aggregation", System: curLoc, Agg: &p.agg,
			EstimatedSec: ace.Seconds, Estimate: ace})
		p.EstimatedSec += ace.Seconds
		finalRows, finalSize = aggRows, a.aggWidth
	}
	if curLoc != querygrid.Master {
		sec, err := o.Grid.TransferCost(curLoc, querygrid.Master, finalRows, finalSize)
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, transferStep(curLoc, querygrid.Master, finalRows, finalSize, sec))
		p.EstimatedSec += sec
	}
	slices.SortStableFunc(p.Alternatives, func(x, y Alternative) int { return byCost(x.EstimatedSec, y.EstimatedSec) })
	p.OutputRows, p.OutputRowSize = finalRows, finalSize
	return p, nil
}

// shipInput prices moving one join input to sys: base tables (binding ≥ 0)
// ship with QueryGrid predicate pushdown applied to their single-table
// filters; intermediates ship at full volume.
func (o *Optimizer) shipInput(from, to string, binding int, a *analyzed, side plan.TableSide) (float64, error) {
	if binding >= 0 {
		b := &a.binds[binding]
		return o.Grid.TransferCostFiltered(from, to, float64(b.table.Rows), float64(b.table.RowSize()), b.sel)
	}
	return o.Grid.TransferCost(from, to, side.Rows, side.RowSize)
}
