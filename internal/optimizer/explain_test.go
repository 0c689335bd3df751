package optimizer_test

import (
	"context"
	"encoding/json"
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

// refDescribe and refExplain are the fmt-based renderers the step lines and
// Plan.Explain replaced, kept as the reference: the rendering is part of
// every /query and /explain answer and must not change by a byte.
func refDescribe(s optimizer.Step) string {
	switch s.Kind {
	case "transfer":
		return fmt.Sprintf("transfer %.0f rows × %.0f B  %s → %s  (%.2fs)", s.Rows, s.RowSize, s.From, s.System, s.EstimatedSec)
	case "join":
		if s.Estimate.Algorithm == "" {
			return fmt.Sprintf("join on %s (%.2fs)", s.System, s.EstimatedSec)
		}
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
			fmt.Fprintf(&b, "  - %s (%.2fs)\n", refAlternative(a), a.EstimatedSec)
		}
	}
	return b.String()
}

// refAlternative is the description the planner used to build by string
// concatenation for every rejected placement.
func refAlternative(a optimizer.Alternative) string {
	if a.Join > 0 {
		return fmt.Sprintf("%s %d on %s", a.Kind, a.Join, a.System)
	}
	return a.Kind + " on " + a.System
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
	}
	want := refExplain(p)
	if got := p.Explain(); got != want {
		t.Fatalf("%s: Explain() differs from the reference\n got:\n%s\nwant:\n%s", what, got, want)
	}
	quoted, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ExplainJSON(); got != string(quoted) {
		t.Fatalf("%s: ExplainJSON() is not encoding/json's quoting of the reference\n got: %s\nwant: %s", what, got, quoted)
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
		p, err := opt.PlanCtx(context.Background(), stmt)
		if err != nil {
			t.Fatalf("Plan(%q): %v", sql, err)
		}
		st.check(t, sql, p)
		if i%7 == 0 || i < 10 {
			for _, exclude := range []map[string]bool{{"hive": true}, {"spark": true, "presto": true}} {
				// A table with every copy excluded has no degraded plan.
				if p, err := opt.PlanExcludingCtx(context.Background(), stmt, exclude); err == nil {
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
// ≥ 1e15-row transfers, empty and unknown steps, a join with no algorithm (a
// logical-op estimate names none), non-finite and negative numbers,
// magnitudes around the formatter's hand-over to strconv, and a rendering
// longer than Explain's stack buffer.
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
				{Kind: "join", System: "flink", EstimatedSec: w},
				{Kind: "aggregation", System: "hive", EstimatedSec: w},
				{Kind: "scan", System: "teradata", EstimatedSec: v},
				{Kind: "sort", System: "teradata", Rows: w, EstimatedSec: v},
				{Kind: "mystery", System: "x", EstimatedSec: 1},
				{},
			},
			Alternatives: []optimizer.Alternative{{Kind: "scan", System: "hive", EstimatedSec: w}, {Kind: "join", Join: 12, System: "spark", EstimatedSec: v}, {EstimatedSec: v}},
			Excluded:     []string{"presto", "spark"},
		})
	}
	if st.tinyEstimates == 0 || st.hugeRows == 0 {
		t.Errorf("the values missed a case they are there for: %+v", st)
	}
	st.check(t, "empty plan", &optimizer.Plan{})
	// A join priced by a logical-op model has no algorithm to name.
	flink := &optimizer.Plan{EstimatedSec: 139.52, Steps: []optimizer.Step{{Kind: "join", System: "flink", EstimatedSec: 139.52}}}
	if got := flink.Explain(); !strings.Contains(got, "  1. join on flink (139.52s)\n") {
		t.Errorf("logical-op join renders as\n%s", got)
	}
	st.check(t, "logical-op join", flink)
	long := &optimizer.Plan{EstimatedSec: 12.345}
	for i := 0; i < 60; i++ {
		long.Steps = append(long.Steps, optimizer.Step{Kind: "transfer", From: "hive", System: "a-system-with-a-long-name", Rows: 1e9 + float64(i), RowSize: 128, EstimatedSec: float64(i) / 7})
	}
	if len(long.Explain()) < 4096 {
		t.Fatalf("long rendering is only %d bytes", len(long.Explain()))
	}
	st.check(t, "long plan", long)
}

// TestExplainHostileNames renders plans whose every interpolated name — step
// system, source, kind and algorithm, alternative kind and system, excluded
// systems — holds what a JSON string must escape: the quoted form must be
// encoding/json's, and Explain() must unquote it back to the reference text.
func TestExplainHostileNames(t *testing.T) {
	var st planStats
	for i, name := range []string{`"quoted"`, `back\slash`, "<tag>", "a&b", "ctl\x00\x01\x1f\x7f", "tab\tline\nret\r\b\f",
		"sep\u2028par\u2029", "héllo → ×", `\u0041 is not an escape here`, `<"&\>`} {
		other := fmt.Sprintf("%s-%d", name, i)
		st.check(t, fmt.Sprintf("name %q", name), &optimizer.Plan{
			EstimatedSec: 1.25,
			Steps: []optimizer.Step{
				{Kind: "transfer", From: name, System: other, Rows: 10, RowSize: 8, EstimatedSec: 0.5},
				{Kind: "join", System: name, Estimate: core.Estimate{Algorithm: other}, EstimatedSec: 0.25},
				{Kind: "aggregation", System: other, EstimatedSec: 0.125},
				{Kind: "scan", System: name},
				{Kind: "sort", System: other, Rows: 3},
				{Kind: name},
			},
			Alternatives: []optimizer.Alternative{{Kind: name, System: other, EstimatedSec: 2}, {Kind: other, Join: 2, System: name}},
			Excluded:     []string{name, other},
		})
	}
	// Invalid UTF-8 is the one input the quoted form does not carry through:
	// it reads U+FFFD there, as it does in every answer, and so in Explain().
	// No registration path produces such a name (DESIGN §11).
	bad := &optimizer.Plan{Steps: []optimizer.Step{{Kind: "scan", System: "hive\xff"}}}
	if got, want := bad.Explain(), strings.ToValidUTF8(refExplain(bad), "\ufffd"); got != want {
		t.Errorf("invalid UTF-8 name: Explain() = %q, want %q", got, want)
	}
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
// one rendering that won — the same memoized quoted text and systems list.
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
			texts[g], lists[g] = p.ExplainJSON(), p.Systems()
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

// TestExplainPastInlineBacking renders the plans that outgrow or bypass what
// a plan holds inline — four steps, two alternatives, the specs of two joins
// — and compares them with the reference: a three-join chain, whose third
// spec, later steps and later alternatives come from the heap; the degraded
// re-plan of a join; and a single-table plan with a final sort under a
// LIMIT.
func TestExplainPastInlineBacking(t *testing.T) {
	opt := demoOptimizer(t)
	plan := func(sql string, exclude map[string]bool) *optimizer.Plan {
		t.Helper()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.PlanExcludingCtx(context.Background(), stmt, exclude)
		if err != nil {
			t.Fatalf("PlanExcludingCtx(%q, %v): %v", sql, exclude, err)
		}
		return p
	}
	var st planStats
	three := plan("SELECT r.a1, s.a2, u.a1, w.a1 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 "+
		"JOIN warehouse u ON u.a1 = s.a1 JOIN users w ON w.a1 = r.a1 WHERE r.a10 < 1000", nil)
	if len(three.Steps) <= 4 || len(three.Alternatives) <= 2 {
		t.Fatalf("the three-join plan fits the inline backing (%d steps, %d alternatives)\n%s",
			len(three.Steps), len(three.Alternatives), three.Explain())
	}
	joins := 0
	for _, s := range three.Steps {
		if s.Kind == "join" {
			joins++
			if s.Join == nil || s.Join.OutputRows <= 0 {
				t.Fatalf("join step %+v has no spec", s)
			}
		}
	}
	if joins != 3 {
		t.Fatalf("%d join steps, want 3\n%s", joins, three.Explain())
	}
	st.check(t, "three joins", three)

	degraded := plan("SELECT r.a1, s.a2 FROM t1000000_100 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123",
		map[string]bool{"hive": true})
	if len(degraded.Excluded) == 0 {
		t.Fatalf("degraded plan lists no exclusions\n%s", degraded.Explain())
	}
	st.check(t, "degraded join", degraded)

	sorted := plan("SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234 ORDER BY a1 DESC LIMIT 100", nil)
	if last := sorted.Steps[len(sorted.Steps)-1]; last.Kind != "sort" || sorted.OutputRows != 100 {
		t.Fatalf("ORDER BY / LIMIT plan ends in %q with %v output rows\n%s", last.Kind, sorted.OutputRows, sorted.Explain())
	}
	st.check(t, "order by, limit", sorted)
}

// TestSharedPlanConcurrentReaders shares one cached plan among eight
// goroutines reading its rendering while four others plan fresh statements
// through the same optimizer (run under -race): a plan's steps, alternatives
// and specs live inside it, and a reader must see them exactly as the
// planner left them.
func TestSharedPlanConcurrentReaders(t *testing.T) {
	opt := demoOptimizer(t)
	opt.Cache = optimizer.NewPlanCache(64)
	stmt, err := sqlparse.Parse("SELECT r.a1, s.a2 FROM t1000000_100 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := opt.PlanCtx(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := opt.PlanCtx(context.Background(), stmt); err != nil || again != shared {
		t.Fatalf("second Plan did not come from the cache (%v)", err)
	}
	wantText, wantSystems := refExplain(shared), fmt.Sprint(shared.Systems())
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := shared.Explain(); got != wantText {
					errs <- fmt.Errorf("shared Explain() changed:\n%s", got)
					return
				}
				if got := fmt.Sprint(shared.Systems()); got != wantSystems {
					errs <- fmt.Errorf("shared Systems() = %s, want %s", got, wantSystems)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := fmt.Sprintf("SELECT a100, SUM(a1), COUNT(*) FROM events WHERE a2 < %d GROUP BY a100", 1000*g+i+1)
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					errs <- err
					return
				}
				p, err := opt.PlanCtx(context.Background(), stmt)
				if err != nil {
					errs <- err
					return
				}
				if got, want := p.Explain(), refExplain(p); got != want {
					errs <- fmt.Errorf("%s: Explain() differs from the reference\n got:\n%s\nwant:\n%s", sql, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
