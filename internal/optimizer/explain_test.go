package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"intellisphere/internal/core"
	"intellisphere/internal/demo"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/registry"
	"intellisphere/internal/sqlparse"
)

// refDescribe and refExplain are the fmt-based renderers Step.Describe and
// Plan.Explain replaced, kept as the reference: the rendering is part of
// every /query and /explain answer and must not change by a byte.
func refDescribe(s optimizer.Step) string {
	switch s.Kind {
	case "transfer":
		return fmt.Sprintf("transfer %.0f rows × %.0f B  %s → %s  (%.2fs)", s.Rows, s.RowSize, s.From, s.System, s.EstimatedSec)
	case "join":
		return fmt.Sprintf("join on %s via %s (%.2fs)", s.System, s.Estimate.Algorithm, s.EstimatedSec)
	case "aggregation":
		return fmt.Sprintf("aggregation on %s (%.2fs)", s.System, s.EstimatedSec)
	case "scan":
		return fmt.Sprintf("scan on %s (%.2fs)", s.System, s.EstimatedSec)
	case "sort":
		return fmt.Sprintf("sort %.0f rows on %s (%.2fs)", s.Rows, s.System, s.EstimatedSec)
	default:
		return s.Kind
	}
}

func refExplain(p *optimizer.Plan) string {
	var b strings.Builder
	if len(p.Excluded) > 0 {
		fmt.Fprintf(&b, "degraded plan (excluded: %s)\n", strings.Join(p.Excluded, ", "))
	}
	fmt.Fprintf(&b, "plan (estimated %.2fs):\n", p.EstimatedSec)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, refDescribe(s))
	}
	if len(p.Alternatives) > 0 {
		b.WriteString("rejected alternatives:\n")
		for _, a := range p.Alternatives {
			fmt.Fprintf(&b, "  - %s (%.2fs)\n", a.Description, a.EstimatedSec)
		}
	}
	return b.String()
}

// planStats tallies what the differential test below walked over, so it can
// insist that the interesting cases really occurred.
type planStats struct {
	plans, degraded, sorts, hugeRows, tinyEstimates int
}

func (st *planStats) check(t *testing.T, what string, p *optimizer.Plan) {
	t.Helper()
	st.plans++
	if len(p.Excluded) > 0 {
		st.degraded++
	}
	for _, s := range p.Steps {
		if s.Kind == "sort" {
			st.sorts++
		}
		if s.Rows >= 1e15 {
			st.hugeRows++
		}
		if s.EstimatedSec < 0.005 {
			st.tinyEstimates++
		}
		if got, want := s.Describe(), refDescribe(s); got != want {
			t.Fatalf("%s: Describe() = %q, reference %q", what, got, want)
		}
	}
	if got, want := p.Explain(), refExplain(p); got != want {
		t.Fatalf("%s: Explain() differs from the reference\n got:\n%s\nwant:\n%s", what, got, want)
	}
}

// demoOptimizer rebuilds the demo engine's planner over its public catalog,
// grid and estimators, without a plan cache.
func demoOptimizer(t *testing.T) *optimizer.Optimizer {
	t.Helper()
	eng, err := demo.Build(demo.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ests := registry.New[core.Estimator]()
	for _, name := range eng.Systems() {
		est, err := eng.Estimator(name)
		if err != nil {
			t.Fatal(err)
		}
		ests.Set(name, est)
	}
	return &optimizer.Optimizer{Catalog: eng.Catalog(), Grid: eng.Grid(), Estimators: ests}
}

// TestExplainMatchesReference renders every plan the demo statements and a
// seeded literal sweep over the three serving templates produce — normal and
// degraded, with and without a final sort — and compares with the reference.
func TestExplainMatchesReference(t *testing.T) {
	opt := demoOptimizer(t)
	stmts := append([]string{
		// 6.4e15 rows to sort, and estimates beyond 2^52 hundredths.
		"SELECT * FROM t80000000_1000 r CROSS JOIN t80000000_250 s ORDER BY r.a1",
		"SELECT * FROM t80000000_1000 r CROSS JOIN t80000000_250 s CROSS JOIN users u",
		"SELECT r.a1, s.a2, u.a1 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 JOIN warehouse u ON u.a1 = s.a1 WHERE r.a1 + u.a2 < 1000 ORDER BY r.a1",
	}, demo.Statements()...)
	rng := rand.New(rand.NewSource(1))
	tables := []struct {
		name string
		rows float64
	}{{"t1000000_100", 1e6}, {"t80000000_250", 8e7}, {"t10000_250", 1e4}, {"events", 2e6}, {"users", 2e5}, {"warehouse", 5e6}, {"dim_local", 5e4}}
	for i := 0; i < 600; i++ {
		tb, partner := tables[i%len(tables)], tables[(i/2+3)%len(tables)]
		lit := fmt.Sprintf("%v", math.Max(1, math.Round(tb.rows*math.Pow(10, -4*rng.Float64()))))
		order := ""
		if i%4 == 0 {
			order = " ORDER BY a1 DESC LIMIT 100"
		}
		stmts = append(stmts,
			"SELECT a1, a5 FROM "+tb.name+" WHERE a5 < "+lit+order,
			"SELECT a100, SUM(a1), COUNT(*) FROM "+tb.name+" WHERE a2 < "+lit+" GROUP BY a100",
		)
		if tb.name != partner.name {
			stmts = append(stmts, "SELECT r.a1, s.a2 FROM "+tb.name+" r JOIN "+partner.name+" s ON r.a1 = s.a1 WHERE r.a10 < "+lit)
		}
	}
	var st planStats
	for i, sql := range stmts {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.Plan(stmt)
		if err != nil {
			t.Fatalf("Plan(%q): %v", sql, err)
		}
		st.check(t, sql, p)
		if i%7 == 0 || i < 10 {
			for _, exclude := range []map[string]bool{{"hive": true}, {"spark": true, "presto": true}} {
				// A table with every copy excluded has no degraded plan.
				if p, err := opt.PlanExcluding(stmt, exclude); err == nil {
					st.check(t, fmt.Sprint(sql, " excluding ", exclude), p)
				}
			}
		}
	}
	if st.degraded == 0 || st.sorts == 0 || st.hugeRows == 0 {
		t.Errorf("the sweep missed a case it is there for: %+v", st)
	}
}

// TestExplainHandBuiltPlans pushes values no planner run over the demo
// produces through the renderers (its cost models bottom out near 0.05 s and
// it keeps huge intermediates where they are): sub-0.005 s estimates,
// ≥ 1e15-row transfers, empty and unknown steps, non-finite and negative
// numbers, magnitudes around the formatter's hand-over to strconv, and a
// rendering longer than Explain's stack buffer.
func TestExplainHandBuiltPlans(t *testing.T) {
	var st planStats
	values := []float64{0, 0.004, 0.005, 0.015, 0.995, 1e-9, -0.001, -3.5, 1e15, 6.4e15, 4503599627370496.5, 1e18, 1e25, math.Inf(1), math.NaN()}
	for i, v := range values {
		w := values[(i+1)%len(values)]
		st.check(t, fmt.Sprint("values ", v, w), &optimizer.Plan{
			EstimatedSec: v,
			Steps: []optimizer.Step{
				{Kind: "transfer", From: "hive", System: "spark", Rows: v, RowSize: w, EstimatedSec: w},
				{Kind: "join", System: "spark", Estimate: core.Estimate{Algorithm: "broadcast-hash"}, EstimatedSec: v},
				{Kind: "aggregation", System: "hive", EstimatedSec: w},
				{Kind: "scan", System: "teradata", EstimatedSec: v},
				{Kind: "sort", System: "teradata", Rows: w, EstimatedSec: v},
				{Kind: "mystery", System: "x", EstimatedSec: 1},
				{},
			},
			Alternatives: []optimizer.Alternative{{Description: "scan on hive", EstimatedSec: w}, {EstimatedSec: v}},
			Excluded:     []string{"presto", "spark"},
		})
	}
	if st.tinyEstimates == 0 || st.hugeRows == 0 {
		t.Errorf("the values missed a case they are there for: %+v", st)
	}
	st.check(t, "empty plan", &optimizer.Plan{})
	long := &optimizer.Plan{EstimatedSec: 12.345}
	for i := 0; i < 60; i++ {
		long.Steps = append(long.Steps, optimizer.Step{Kind: "transfer", From: "hive", System: "a-system-with-a-long-name", Rows: 1e9 + float64(i), RowSize: 128, EstimatedSec: float64(i) / 7})
	}
	if len(long.Explain()) < 4096 {
		t.Fatalf("long rendering is only %d bytes", len(long.Explain()))
	}
	st.check(t, "long plan", long)
}

func TestPlanSystems(t *testing.T) {
	p := &optimizer.Plan{Steps: []optimizer.Step{
		{Kind: "transfer", From: "spark", System: "hive"},
		{Kind: "join", System: "hive"},
		{Kind: "transfer", From: "hive", System: "teradata"},
		{Kind: "sort", System: "teradata"},
	}}
	if got := fmt.Sprint(p.Systems()); got != "[hive spark teradata]" {
		t.Errorf("Systems() = %s", got)
	}
	if &p.Systems()[0] != &p.Systems()[0] {
		t.Error("Systems() is not memoized")
	}
	if got := (&optimizer.Plan{}).Systems(); len(got) != 0 {
		t.Errorf("empty plan touches %v", got)
	}
}

// A plan assembled by hand renders on first use with no planner to do it
// first: concurrent first users (run under -race) must all end up with the
// one rendering that won.
func TestHandBuiltPlanRendersOnceConcurrently(t *testing.T) {
	p := &optimizer.Plan{EstimatedSec: 1.5}
	for _, sys := range []string{"e", "d", "c", "b", "a", "c"} {
		p.Steps = append(p.Steps, optimizer.Step{Kind: "scan", System: sys})
	}
	var wg sync.WaitGroup
	texts, lists := make([]string, 8), make([][]string, 8)
	for g := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts[g], lists[g] = p.Explain(), p.Systems()
		}()
	}
	wg.Wait()
	if got := fmt.Sprint(lists[0]); got != "[a b c d e]" {
		t.Errorf("Systems() = %s", got)
	}
	for g := range texts {
		if unsafe.StringData(texts[g]) != unsafe.StringData(texts[0]) || &lists[g][0] != &lists[0][0] {
			t.Fatalf("caller %d got a rendering of its own", g)
		}
	}
}
