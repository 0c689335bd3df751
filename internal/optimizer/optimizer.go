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
	// 1280-B size class) besides its rendering: room for the rejected
	// placements of one operator over the demo federation's five systems.
	// Steps and Alternatives may outgrow it by append.
	stepBuf [4]Step
	altBuf  [fixedSites - 1]Alternative
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
	// Each operator's rejected placements come out in order of cost; a chain
	// interleaves its joins' placements by cost too.
	slices.SortStableFunc(p.Alternatives, func(x, y Alternative) int { return byCost(x.EstimatedSec, y.EstimatedSec) })
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

// fixedSites is how many systems a placement sweep holds on the stack: the
// demo federation's five, the master and four remotes. A table's replicas are
// registered systems, so a sweep over a larger federation grows onto the
// heap, bounded by the number of registered systems.
const fixedSites = 5

// addSite appends sys to a sweep's candidate systems unless it is there
// already, so the first-seen order stands.
func addSite(sites []string, sys string) []string {
	if slices.Contains(sites, sys) {
		return sites
	}
	return append(sites, sys)
}

// operand is one input of an operator being placed: the systems holding a
// copy of it, in preference order, and the volume its transfer moves.
type operand struct {
	copies []string
	// rows × rowSize filtered by sel is what QueryGrid prices when the input
	// ships (sel is 1 for an intermediate result, which ships whole);
	// shipRows is the row count that transfer reports.
	rows, rowSize, sel, shipRows float64
}

// bring prices bringing an operand to sys: free where a copy already sits,
// else shipped from the copy with the cheapest transfer (the first copy on a
// tie). from is where it ships from, sys itself when it does not ship.
func (o *Optimizer) bring(in *operand, sys string) (from string, sec float64, err error) {
	if slices.Contains(in.copies, sys) {
		return sys, 0, nil
	}
	for i, c := range in.copies {
		cs, err := o.Grid.TransferCostFiltered(c, sys, in.rows, in.rowSize, in.sel)
		if err != nil {
			return "", 0, err
		}
		if i == 0 || cs < sec {
			from, sec = c, cs
		}
	}
	return from, sec, nil
}

// baseOperand describes binding b's table as an operand, its copies not yet
// listed: it ships with QueryGrid predicate pushdown of its single-table
// filters, and a transfer of it reports shipRows.
func (a *analyzed) baseOperand(b int, shipRows float64) operand {
	bd := &a.binds[b]
	return operand{rows: float64(bd.table.Rows), rowSize: float64(bd.table.RowSize()), sel: bd.sel, shipRows: shipRows}
}

// sweep is what placing one operator weighs: its inputs (ins[:n], the left
// then the right one of a join) and, for the plan's last operator, where its
// result lands. The operator itself travels beside it, never in it: the
// compiler does not follow a field through a pointer, so a spec read from a
// sweep and stored into the plan would move the operands' copies and the
// landing to the heap.
type sweep struct {
	ins  [2]operand
	n    int
	join int      // the operator's 1-based place in a join chain, else 0
	land *landing // nil before the plan's last operator
}

// landing is the rest of a plan after its last operator: when agg is set,
// the aggregation of a join's result by the plan's agg spec, then the rows ×
// rowSize shipped to the master.
type landing struct {
	agg           bool
	rows, rowSize float64
}

// option is one costed placement of an operator: the transfers that bring
// each input to sys from where they ship (zero when a copy is already there)
// plus the estimate, and for the last operator what landing the result from
// sys costs: the aggregation there and the transfer to the master.
type option struct {
	sys            string
	from           [2]string
	ship           [2]float64
	est, aggEst    core.Estimate
	backSec        float64
	cost, landCost float64
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

// price costs running op, with sw's inputs and landing, on sys. The
// landing's aggregation is p.agg.
func (o *Optimizer) price(ctx context.Context, p *Plan, sw *sweep, op *Step, sys string) (option, error) {
	est, err := o.estimator(sys)
	if err != nil {
		return option{}, err
	}
	opt := option{sys: sys}
	for i := range sw.n {
		if opt.from[i], opt.ship[i], err = o.bring(&sw.ins[i], sys); err != nil {
			return option{}, err
		}
		opt.cost += opt.ship[i]
	}
	sp := costSpan(ctx, op.Kind, sys)
	if sw.join > 0 {
		sp.SetInt("join", sw.join)
	}
	switch op.Kind {
	case "join":
		opt.est, err = est.EstimateJoin(*op.Join)
	case "aggregation":
		opt.est, err = est.EstimateAgg(*op.Agg)
	default:
		opt.est, err = est.EstimateScan(*op.Scan)
	}
	endCostSpan(sp, opt.est, err)
	if err != nil {
		return option{}, fmt.Errorf("optimizer: %s estimate on %q: %w", op.Kind, sys, err)
	}
	opt.cost += opt.est.Seconds
	land := sw.land
	if land == nil {
		return opt, nil
	}
	if land.agg {
		sp := costSpan(ctx, "aggregation", sys)
		opt.aggEst, err = est.EstimateAgg(p.agg)
		endCostSpan(sp, opt.aggEst, err)
		if err != nil {
			return option{}, fmt.Errorf("optimizer: post-join aggregation on %q: %w", sys, err)
		}
	}
	if sys != querygrid.Master {
		if opt.backSec, err = o.Grid.TransferCost(sys, querygrid.Master, land.rows, land.rowSize); err != nil {
			return option{}, err
		}
	}
	opt.landCost = opt.aggEst.Seconds + opt.backSec
	return opt, nil
}

// place is the one placement sweep, for a scan, an aggregation and each join
// of a chain alike. It prices op on every copy of every input, then on the
// master; the cheapest option, counting its landing, wins, and on a cost
// tie the first listed does: the owner, then the replicas in catalog order,
// then the master. The winner's steps go into p and the other options, in
// that order, into its alternatives, which planAnalyzed sorts by cost;
// place returns the winner's system.
func (o *Optimizer) place(ctx context.Context, p *Plan, sw *sweep, op Step) (string, error) {
	var siteBuf [fixedSites]string
	sites := siteBuf[:0]
	for i := range sw.n {
		for _, sys := range sw.ins[i].copies {
			sites = addSite(sites, sys)
		}
	}
	sites = addSite(sites, querygrid.Master)
	// The few estimates cost under a microsecond each, so they are swept on
	// the calling goroutine: handing them to workers costs several times the
	// estimates themselves (DESIGN.md §6).
	var optBuf [fixedSites]option
	opts := optBuf[:0]
	for _, sys := range sites {
		opt, err := o.price(ctx, p, sw, &op, sys)
		if err != nil {
			return "", err
		}
		opts = append(opts, opt)
	}
	best := 0
	for i := 1; i < len(opts); i++ {
		if opts[i].cost+opts[i].landCost < opts[best].cost+opts[best].landCost {
			best = i
		}
	}
	win := &opts[best]
	for i := range sw.n {
		if in := &sw.ins[i]; win.from[i] != win.sys {
			p.Steps = append(p.Steps, transferStep(win.from[i], win.sys, in.shipRows, in.rowSize, win.ship[i]))
		}
	}
	op.System, op.EstimatedSec, op.Estimate = win.sys, win.est.Seconds, win.est
	p.Steps = append(p.Steps, op)
	p.EstimatedSec += win.cost
	for i := range opts {
		if r := &opts[i]; i != best {
			p.Alternatives = append(p.Alternatives, Alternative{Kind: op.Kind, Join: sw.join, System: r.sys,
				EstimatedSec: p.EstimatedSec - win.cost + r.cost + r.landCost})
		}
	}
	if land := sw.land; land != nil {
		if land.agg {
			p.Steps = append(p.Steps, Step{Kind: "aggregation", System: win.sys, Agg: &p.agg,
				EstimatedSec: win.aggEst.Seconds, Estimate: win.aggEst})
			p.EstimatedSec += win.aggEst.Seconds
		}
		if win.sys != querygrid.Master {
			p.Steps = append(p.Steps, transferStep(win.sys, querygrid.Master, land.rows, land.rowSize, win.backSec))
			p.EstimatedSec += win.backSec
		}
		p.OutputRows, p.OutputRowSize = land.rows, land.rowSize
	}
	return win.sys, nil
}

// planUnary derives a single-table statement's operator, a filter/project
// scan or an aggregation, and places it.
func (o *Optimizer) planUnary(ctx context.Context, a *analyzed) (*Plan, error) {
	var copyBuf [fixedSites]string
	copies, err := a.copiesOf(0, copyBuf[:0])
	if err != nil {
		return nil, err
	}
	p := newPlan()
	bd := &a.binds[0]
	rows := float64(bd.table.Rows)
	var land landing
	sw := sweep{n: 1, land: &land}
	var op Step
	if a.stmt.HasAggregates() || len(a.stmt.GroupBy) > 0 {
		inRows := max(rows*bd.sel, 1)
		p.agg = plan.AggSpec{
			InputRows:     inRows,
			InputRowSize:  float64(bd.table.RowSize()),
			OutputRows:    a.groupRows(inRows),
			OutputRowSize: a.aggWidth,
			NumAggregates: a.numAggs,
		}
		op = Step{Kind: "aggregation", Agg: &p.agg}
		sw.ins[0] = a.baseOperand(0, inRows)
		land.rows, land.rowSize = p.agg.OutputRows, a.aggWidth
	} else {
		p.scan = plan.ScanSpec{
			InputRows:     rows,
			InputRowSize:  float64(bd.table.RowSize()),
			Selectivity:   bd.sel,
			OutputRowSize: bd.proj,
		}
		op = Step{Kind: "scan", Scan: &p.scan}
		sw.ins[0] = a.baseOperand(0, rows*bd.sel)
		land.rows, land.rowSize = p.scan.OutputRows(), bd.proj
	}
	sw.ins[0].copies = copies
	if _, err := o.place(ctx, p, &sw, op); err != nil {
		return nil, err
	}
	return p, nil
}

// planJoin places a left-deep join chain (with optional aggregation on
// top). Each join is placed greedily on the system minimizing the step's
// transfers plus estimated execution, among every copy of either input and
// the master; the last join adds what landing its result from there costs.
// Intermediate results stay where they were produced until a cheaper
// placement pulls them (Section 2's "results ... may remain on that remote
// system for further computations").
func (o *Optimizer) planJoin(ctx context.Context, a *analyzed) (*Plan, error) {
	// The first join always probes binding 0 (a CROSS one probes nothing).
	cur := a.side(0, a.joins[0].probeCol)
	var leftBuf, rightBuf [fixedSites]string
	sw := sweep{n: 2}
	sw.ins[0] = a.baseOperand(0, cur.Rows)
	var err error
	if sw.ins[0].copies, err = a.copiesOf(0, leftBuf[:0]); err != nil {
		return nil, err
	}
	curBase := 0 // the intermediate's binding while it is still a base table
	var land landing
	p := newPlan()

	for i, st := range a.joins {
		nxt := a.side(st.newBind, st.newCol)
		sw.ins[1] = a.baseOperand(st.newBind, nxt.Rows)
		if sw.ins[1].copies, err = a.copiesOf(st.newBind, rightBuf[:0]); err != nil {
			return nil, err
		}

		// The probe side's key statistics: NDV of the probe column on its
		// base table, capped by the intermediate cardinality.
		lside := cur
		if st.probe >= 0 && st.probe != curBase {
			lside.KeyNDV = math.Min(a.binds[st.probe].table.NDV(st.probeCol), cur.Rows)
			lside.PartitionedOn, lside.SortedOn = false, false
		}

		// Output cardinality.
		var outRows float64
		if st.cross {
			outRows = lside.Rows * nxt.Rows
		} else {
			maxNDV := math.Max(lside.KeyNDV, nxt.KeyNDV)
			if maxNDV < 1 {
				maxNDV = 1
			}
			outRows = lside.Rows * nxt.Rows / maxNDV
		}
		// A cross-table predicate becomes applicable with the join that
		// brings in the last of its tables, and is taken over the join key's
		// domain when the join has one.
		minNDV := math.Min(lside.KeyNDV, nxt.KeyNDV)
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
		*spec = plan.JoinSpec{Left: lside, Right: nxt, OutputRows: outRows, Cartesian: st.cross}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("optimizer: join %d spec: %w", i+1, err)
		}
		// The intermediate result: projected attributes of both inputs.
		cur = plan.TableSide{
			Rows:          outRows,
			RowSize:       spec.OutputRowSize(),
			ProjectedSize: spec.OutputRowSize(),
			KeyNDV:        outRows,
		}
		sw.join = i + 1
		if i == len(a.joins)-1 {
			land.rows, land.rowSize = cur.Rows, cur.RowSize
			if a.stmt.HasAggregates() || len(a.stmt.GroupBy) > 0 {
				p.agg = plan.AggSpec{
					InputRows: cur.Rows, InputRowSize: cur.RowSize,
					OutputRows: a.groupRows(cur.Rows), OutputRowSize: a.aggWidth, NumAggregates: a.numAggs,
				}
				land.agg = true
				land.rows, land.rowSize = p.agg.OutputRows, a.aggWidth
			}
			sw.land = &land
		}
		sys, err := o.place(ctx, p, &sw, Step{Kind: "join", Join: spec})
		if err != nil {
			return nil, err
		}
		curBase = -1
		sw.ins[0] = operand{copies: append(leftBuf[:0], sys), rows: cur.Rows, rowSize: cur.RowSize, sel: 1, shipRows: cur.Rows}
	}
	return p, nil
}
