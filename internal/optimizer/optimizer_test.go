package optimizer

import (
	"context"
	"strings"
	"testing"

	"intellisphere/internal/catalog"
	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/registry"
	"intellisphere/internal/remote"
	"intellisphere/internal/sqlparse"
)

// fixture builds a two-remote federation: Figure 10 tables on "hive", a few
// on "spark", plus master-resident copies, with sub-op estimators for all
// three systems.
type fixture struct {
	cat *catalog.Catalog
	opt *Optimizer
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cat := catalog.New()
	tables, err := datagen.Tables("hive")
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	// A couple of spark-owned and master-owned tables.
	for _, spec := range []struct {
		rows   int64
		size   int
		system string
		rename string
	}{
		{1000000, 100, "spark", "s_orders"},
		{100000, 100, "spark", "s_items"},
		{50000, 100, "", "local_dim"},
	} {
		tb, err := datagen.Table(spec.rows, spec.size, spec.system)
		if err != nil {
			t.Fatal(err)
		}
		tb.Name = spec.rename
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}

	hive, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spark, err := remote.NewSpark("spark", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tdCfg := cluster.Config{Name: "teradata", Nodes: 2, DataNodes: 2, CoresPerNode: 8,
		MemoryPerNode: 64 << 30, DFSBlockBytes: 64 << 20, Replication: 1, MemoryFraction: 0.5}
	td, err := remote.NewRDBMS(querygrid.Master, tdCfg, remote.Options{NoiseAmp: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	estimators := registry.New[core.Estimator]()
	for name, sys := range map[string]remote.System{"hive": hive, "spark": spark, querygrid.Master: td} {
		ms, _, err := subop.Train(sys, subop.TrainConfig{})
		if err != nil {
			t.Fatalf("train %s: %v", name, err)
		}
		kind := remote.EngineHive
		if name == "spark" {
			kind = remote.EngineSpark
		}
		est, err := subop.NewEstimator(ms, kind, subop.InHouseComparable)
		if err != nil {
			t.Fatal(err)
		}
		estimators.Set(name, est)
	}
	grid, err := querygrid.New(querygrid.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: cat, opt: &Optimizer{Catalog: cat, Grid: grid, Estimators: estimators}}
}

func (f *fixture) plan(t *testing.T, sql string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := f.opt.PlanCtx(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Plan(%q): %v", sql, err)
	}
	return p
}

func TestPlanScanStaysOnOwner(t *testing.T) {
	f := newFixture(t)
	// 80 GB unfiltered: QueryGrid pushdown cannot shrink the transfer, so
	// shipping the table to the master would cost minutes; the scan must
	// run on hive with only the projected result transferred back.
	p := f.plan(t, "SELECT a1 FROM t80000000_1000 WHERE a1 < 60000000")
	var scanSys string
	for _, s := range p.Steps {
		if s.Kind == "scan" {
			scanSys = s.System
		}
	}
	if scanSys != "hive" {
		t.Errorf("scan placed on %q, want hive\n%s", scanSys, p.Explain())
	}
	if p.EstimatedSec <= 0 || len(p.Alternatives) == 0 {
		t.Errorf("plan = %+v", p)
	}
}

func TestPlanScanSelectivityFlowsToOutput(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT a1 FROM t1000000_100 WHERE a1 < 250000")
	// a1 is unique on 1e6 rows: threshold 250000 keeps 25%.
	if p.OutputRows < 2e5 || p.OutputRows > 3e5 {
		t.Errorf("output rows = %v, want ≈250000", p.OutputRows)
	}
}

func TestPlanAggregationOnOwner(t *testing.T) {
	// 80M × 500 B = 40 GB: shipping the table to the master would cost
	// minutes of transfer, so the aggregation must stay on hive.
	f := newFixture(t)
	p := f.plan(t, "SELECT a10, SUM(a1), SUM(a2) FROM t80000000_500 GROUP BY a10")
	var aggStep *Step
	for i := range p.Steps {
		if p.Steps[i].Kind == "aggregation" {
			aggStep = &p.Steps[i]
		}
	}
	if aggStep == nil {
		t.Fatalf("no aggregation step\n%s", p.Explain())
	}
	if aggStep.System != "hive" {
		t.Errorf("aggregation on %q, want hive", aggStep.System)
	}
	if aggStep.Agg.NumAggregates != 2 {
		t.Errorf("aggregate count = %d, want 2", aggStep.Agg.NumAggregates)
	}
	// Group by a10 on 8e7 rows → 8e6 groups.
	if aggStep.Agg.OutputRows != 8e6 {
		t.Errorf("output rows = %v, want 8e6", aggStep.Agg.OutputRows)
	}
}

func TestPlanJoinCoLocated(t *testing.T) {
	// 80M × 1000 B = 80 GB on hive: shipping it anywhere dwarfs executing
	// in place, so the join must stay on hive with only the result moving.
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a1, s.a1 FROM t80000000_1000 r JOIN t1000000_100 s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500000")
	var joinStep *Step
	transfers := 0
	for i := range p.Steps {
		switch p.Steps[i].Kind {
		case "join":
			joinStep = &p.Steps[i]
		case "transfer":
			transfers++
		}
	}
	if joinStep == nil {
		t.Fatal("no join step")
	}
	if joinStep.System != "hive" {
		t.Errorf("co-located join placed on %q, want hive\n%s", joinStep.System, p.Explain())
	}
	// Figure 10 semantics: threshold 500000 on a 1e6-row subset side → 50%.
	if joinStep.Join.OutputRows < 4e5 || joinStep.Join.OutputRows > 6e5 {
		t.Errorf("join output = %v, want ≈5e5", joinStep.Join.OutputRows)
	}
	// Both inputs already on hive: only the result moves.
	if transfers != 1 {
		t.Errorf("%d transfers, want 1 (result to master)\n%s", transfers, p.Explain())
	}
}

func TestPlanJoinCrossSystem(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a1 FROM t1000000_100 r JOIN s_items s ON r.a1 = s.a1")
	// Inputs live on hive and spark; some transfer is mandatory.
	hasTransfer := false
	var joinSys string
	for _, s := range p.Steps {
		if s.Kind == "transfer" && s.From != s.System {
			hasTransfer = true
		}
		if s.Kind == "join" {
			joinSys = s.System
		}
	}
	if !hasTransfer {
		t.Errorf("cross-system join needs a transfer\n%s", p.Explain())
	}
	valid := map[string]bool{"hive": true, "spark": true, querygrid.Master: true}
	if !valid[joinSys] {
		t.Errorf("join on unexpected system %q", joinSys)
	}
	// All three placements must have been considered.
	if len(p.Alternatives) != 2 {
		t.Errorf("%d alternatives, want 2\n%s", len(p.Alternatives), p.Explain())
	}
}

func TestPlanJoinWithAggregation(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a10, SUM(s.a1) FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1 GROUP BY r.a10")
	kinds := map[string]int{}
	for _, s := range p.Steps {
		kinds[s.Kind]++
	}
	if kinds["join"] != 1 || kinds["aggregation"] != 1 {
		t.Errorf("step kinds = %v\n%s", kinds, p.Explain())
	}
}

func TestPlanCrossJoin(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a1 FROM t10000_40 r CROSS JOIN t10000_40 b")
	var joinStep *Step
	for i := range p.Steps {
		if p.Steps[i].Kind == "join" {
			joinStep = &p.Steps[i]
		}
	}
	if joinStep == nil || !joinStep.Join.Cartesian {
		t.Fatalf("cross join not marked cartesian\n%s", p.Explain())
	}
	if joinStep.Join.OutputRows != 1e8 {
		t.Errorf("cartesian output = %v, want 1e8", joinStep.Join.OutputRows)
	}
}

func TestPlanErrors(t *testing.T) {
	f := newFixture(t)
	bad := []string{
		"SELECT a1 FROM no_such_table",
		"SELECT nope FROM t10000_40",
		"SELECT r.a1 FROM t10000_40 r JOIN t10000_70 s ON r.a1 = r.a2", // one-sided condition
		"SELECT x.a1 FROM t10000_40 r",                                 // unknown qualifier
		"SELECT a1 FROM t10000_40 r JOIN t10000_40 s ON r.a1 = s.a1",   // ambiguous unqualified a1? (qualified is fine; duplicate binding names differ)
	}
	for _, sql := range bad[:4] {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if _, err := f.opt.PlanCtx(context.Background(), stmt); err == nil {
			t.Errorf("Plan(%q) succeeded, want error", sql)
		}
	}
	// Duplicate binding: same table twice without distinct aliases.
	stmt, err := sqlparse.Parse("SELECT r.a1 FROM t10000_40 JOIN t10000_40 ON a1 = a1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.opt.PlanCtx(context.Background(), stmt); err == nil {
		t.Error("duplicate binding accepted")
	}
}

func TestPlanRequiresMasterEstimator(t *testing.T) {
	f := newFixture(t)
	noMaster := registry.New[core.Estimator]()
	for _, name := range f.opt.Estimators.Names() {
		if est, _ := f.opt.Estimators.Get(name); name != querygrid.Master {
			noMaster.Set(name, est)
		}
	}
	f.opt.Estimators = noMaster
	stmt, _ := sqlparse.Parse("SELECT a1 FROM t10000_40")
	if _, err := f.opt.PlanCtx(context.Background(), stmt); err == nil {
		t.Error("plan without master estimator accepted")
	}
	empty := &Optimizer{}
	if _, err := empty.PlanCtx(context.Background(), stmt); err == nil {
		t.Error("unconfigured optimizer accepted")
	}
}

func TestExplainOutput(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a1 FROM t1000000_100 r JOIN s_items s ON r.a1 = s.a1")
	out := p.Explain()
	for _, want := range []string{"plan (estimated", "join on", "rejected alternatives"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestAlternativesOrdered(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT r.a1 FROM t1000000_100 r JOIN s_items s ON r.a1 = s.a1")
	last := p.EstimatedSec
	for _, alt := range p.Alternatives {
		if alt.EstimatedSec < last {
			t.Errorf("alternative %s on %s (%v) cheaper than chosen plan (%v)", alt.Kind, alt.System, alt.EstimatedSec, last)
		}
		last = alt.EstimatedSec
	}
}

func TestPlanOrderByAddsSortStep(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT a1 FROM t1000000_100 WHERE a1 < 250000 ORDER BY a1 DESC LIMIT 100")
	last := p.Steps[len(p.Steps)-1]
	if last.Kind != "sort" || last.System != querygrid.Master {
		t.Fatalf("final step = %+v, want a master-side sort\n%s", last, p.Explain())
	}
	if last.EstimatedSec <= 0 {
		t.Errorf("sort cost = %v", last.EstimatedSec)
	}
	if p.OutputRows != 100 {
		t.Errorf("LIMIT not applied to output rows: %v", p.OutputRows)
	}
	if !strings.Contains(p.Explain(), "sort") {
		t.Error("Explain missing the sort step")
	}
}

func TestPlanLimitWithoutOrder(t *testing.T) {
	f := newFixture(t)
	p := f.plan(t, "SELECT a1 FROM t1000000_100 LIMIT 10")
	for _, s := range p.Steps {
		if s.Kind == "sort" {
			t.Fatal("LIMIT alone must not add a sort step")
		}
	}
	if p.OutputRows != 10 {
		t.Errorf("output rows = %v, want 10", p.OutputRows)
	}
}

func TestPlanThreeWayJoin(t *testing.T) {
	f := newFixture(t)
	// hive ⋈ hive ⋈ spark: two join steps, left-deep, with transfers where
	// needed and cardinality flowing through the chain.
	p := f.plan(t, "SELECT r.a1 FROM t10000000_100 r JOIN t1000000_100 s ON r.a1 = s.a1 JOIN s_items u ON s.a1 = u.a1 WHERE r.a1 + u.z < 50000")
	joins := 0
	var last *Step
	for i := range p.Steps {
		if p.Steps[i].Kind == "join" {
			joins++
			last = &p.Steps[i]
		}
	}
	if joins != 2 {
		t.Fatalf("join steps = %d, want 2\n%s", joins, p.Explain())
	}
	// The final join's output carries the cross predicate: ≈ 50k rows.
	if last.Join.OutputRows < 2e4 || last.Join.OutputRows > 1e5 {
		t.Errorf("final join output = %v, want ≈5e4\n%s", last.Join.OutputRows, p.Explain())
	}
	if p.EstimatedSec <= 0 || len(p.Alternatives) == 0 {
		t.Errorf("plan = %+v", p)
	}
}

func TestPlanThreeWayJoinProbesFirstTable(t *testing.T) {
	f := newFixture(t)
	// The second join's condition references the FIRST table (r.a1 = u.a1).
	p := f.plan(t, "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1 JOIN t10000_100 u ON r.a1 = u.a1")
	joins := 0
	for _, s := range p.Steps {
		if s.Kind == "join" {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("join steps = %d\n%s", joins, p.Explain())
	}
}

func TestPlanJoinConditionMustLinkChain(t *testing.T) {
	f := newFixture(t)
	stmt, err := sqlparse.Parse("SELECT r.a1 FROM t10000_40 r JOIN t10000_70 s ON r.a1 = s.a1 JOIN t10000_100 u ON r.a1 = s.a2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.opt.PlanCtx(context.Background(), stmt); err == nil {
		t.Error("dangling join condition accepted")
	}
}

func TestPlanThreeWayKeepsIntermediateRemote(t *testing.T) {
	f := newFixture(t)
	// Over a slow QueryGrid link (12.5 MB/s), shipping gigabytes to the
	// faster master can never pay off: both joins must stay on hive, with
	// the intermediate result remaining remote between them (Section 2).
	slow := querygrid.LinkConfig{BandwidthBytesPerSec: 12.5e6, LatencySec: 0.5, PerRowOverheadUS: 0.2}
	if err := f.opt.Grid.SetLink("hive", slow); err != nil {
		t.Fatal(err)
	}
	p := f.plan(t, "SELECT * FROM t80000000_500 r JOIN t8000000_500 s ON r.a1 = s.a1 JOIN t1000000_100 u ON s.a1 = u.a1")
	for _, s := range p.Steps {
		if s.Kind == "join" && s.System != "hive" {
			t.Errorf("join placed on %q, want hive\n%s", s.System, p.Explain())
		}
		if s.Kind == "transfer" && s.From == "hive" && s.System == querygrid.Master && s.Rows > 1e7 {
			t.Errorf("bulk intermediate shipped over the slow link\n%s", p.Explain())
		}
	}
}
