package optimizer

import (
	"context"
	"strings"
	"testing"

	"intellisphere/internal/datagen"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/sqlparse"
)

// planExcluding parses and plans with exclusions, failing the test on error.
func (f *fixture) planExcluding(t *testing.T, sql string, exclude map[string]bool) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := f.opt.PlanExcludingCtx(context.Background(), stmt, exclude)
	if err != nil {
		t.Fatalf("PlanExcludingCtx(%q): %v", sql, err)
	}
	return p
}

// registerReplicated adds a hive-owned table with a spark replica.
func registerReplicated(t *testing.T, f *fixture, name string, rows int64) {
	t.Helper()
	tb, err := datagen.Table(rows, 100, "hive")
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = name
	tb.Replicas = []string{"spark"}
	if err := f.cat.Register(tb); err != nil {
		t.Fatal(err)
	}
}

// touches collects every system a plan's steps reference (including
// transfer sources).
func touches(p *Plan) map[string]bool {
	out := map[string]bool{}
	for _, s := range p.Steps {
		out[s.System] = true
		if s.From != "" {
			out[s.From] = true
		}
	}
	return out
}

func TestPlanExcludingFallsBackToReplica(t *testing.T) {
	f := newFixture(t)
	registerReplicated(t, f, "rep_orders", 1000000)

	// Healthy plan reads from the primary owner.
	healthy := f.plan(t, "SELECT a1 FROM rep_orders WHERE a1 < 1000")
	if !touches(healthy)["hive"] {
		t.Fatalf("healthy plan avoids the owner: %v", healthy.Explain())
	}
	if len(healthy.Excluded) != 0 {
		t.Errorf("healthy plan marked degraded: %v", healthy.Excluded)
	}

	// With hive excluded, the replica serves and no step touches hive.
	deg := f.planExcluding(t, "SELECT a1 FROM rep_orders WHERE a1 < 1000", map[string]bool{"hive": true})
	tt := touches(deg)
	if tt["hive"] {
		t.Fatalf("degraded plan still touches hive:\n%s", deg.Explain())
	}
	if !tt["spark"] && !tt[querygrid.Master] {
		t.Fatalf("degraded plan reads from nowhere:\n%s", deg.Explain())
	}
	if len(deg.Excluded) != 1 || deg.Excluded[0] != "hive" {
		t.Errorf("Excluded = %v", deg.Excluded)
	}
	if !strings.Contains(deg.Explain(), "degraded plan (excluded: hive)") {
		t.Errorf("explain missing degraded banner:\n%s", deg.Explain())
	}
}

func TestPlanExcludingJoinAndAggregation(t *testing.T) {
	f := newFixture(t)
	registerReplicated(t, f, "rep_fact", 2000000)
	registerReplicated(t, f, "rep_dim", 100000)

	for _, sql := range []string{
		"SELECT r.a1 FROM rep_fact r JOIN rep_dim d ON r.a1 = d.a1",
		"SELECT a5, COUNT(a1) FROM rep_fact GROUP BY a5",
	} {
		deg := f.planExcluding(t, sql, map[string]bool{"hive": true})
		if touches(deg)["hive"] {
			t.Errorf("%q: degraded plan touches hive:\n%s", sql, deg.Explain())
		}
	}
}

func TestPlanExcludingUnreachableAndMaster(t *testing.T) {
	f := newFixture(t)
	stmt, err := sqlparse.Parse("SELECT a1 FROM t1000000_100")
	if err != nil {
		t.Fatal(err)
	}
	// t1000000_100 is hive-owned with no replica.
	if _, err := f.opt.PlanExcludingCtx(context.Background(), stmt, map[string]bool{"hive": true}); err == nil {
		t.Error("plan for an unreachable table succeeded")
	}
	if _, err := f.opt.PlanExcludingCtx(context.Background(), stmt, map[string]bool{querygrid.Master: true}); err == nil {
		t.Error("excluding the master succeeded")
	}
}

func TestPlanExcludingBypassesCache(t *testing.T) {
	f := newFixture(t)
	registerReplicated(t, f, "rep_c", 500000)
	f.opt.Cache = NewPlanCache(16)
	const sql = "SELECT a1 FROM rep_c WHERE a1 < 500"

	normal := f.plan(t, sql)
	stats := f.opt.Cache.Stats()
	if stats.Size != 1 {
		t.Fatalf("cache size = %d after normal plan", stats.Size)
	}
	deg := f.planExcluding(t, sql, map[string]bool{"hive": true})
	if touches(deg)["hive"] {
		t.Fatal("degraded plan served from cache (touches hive)")
	}
	// The degraded plan must not have displaced or polluted the cached one.
	if s := f.opt.Cache.Stats(); s.Size != 1 {
		t.Errorf("cache size = %d after degraded plan", s.Size)
	}
	again := f.plan(t, sql)
	if again != normal {
		t.Error("normal plan no longer served from cache after degraded plan")
	}
}

// A local table listing the master among its replicas has one copy there:
// the master is costed once and never offered as an alternative to itself.
func TestLocalTableMasterReplicaIsOneCopy(t *testing.T) {
	f := newFixture(t)
	tb, err := datagen.Table(50000, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = "local_rep"
	tb.Replicas = []string{querygrid.Master, "spark"}
	if err := f.cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a1 FROM local_rep WHERE a1 < 1000",
		"SELECT a5, COUNT(a1) FROM local_rep GROUP BY a5",
		"SELECT r.a1 FROM local_rep r JOIN t10000_100 d ON r.a1 = d.a1",
	} {
		p := f.plan(t, sql)
		seen := map[Alternative]bool{}
		for _, alt := range p.Alternatives {
			key := Alternative{Kind: alt.Kind, Join: alt.Join, System: alt.System}
			if seen[key] {
				t.Errorf("%q: %s %d on %s offered twice:\n%s", sql, alt.Kind, alt.Join, alt.System, p.Explain())
			}
			seen[key] = true
		}
		for _, s := range p.Steps {
			if s.Kind != "transfer" && s.Kind != "join" && seen[Alternative{Kind: s.Kind, System: s.System}] {
				t.Errorf("%q: %s on %s is its own rejected alternative:\n%s", sql, s.Kind, s.System, p.Explain())
			}
		}
	}
}

// On a cost tie the owner wins, then the replicas in catalog order, then the
// master, for a scan, an aggregation and a join alike: hive2 runs hive's
// estimator over the same link, so each of its placements ties with hive's,
// and where both lose they are listed hive first.
func TestTiedPlacementsListOwnerFirst(t *testing.T) {
	f := newFixture(t)
	hive, _ := f.opt.Estimators.Get("hive")
	f.opt.Estimators.Set("hive2", hive)
	for _, name := range []string{"tie_small", "tie_small2"} {
		tb, err := datagen.Table(10000, 100, "hive")
		if err != nil {
			t.Fatal(err)
		}
		tb.Name, tb.Replicas = name, []string{"hive2"}
		if err := f.cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT a1, a5 FROM tie_small WHERE a5 < 100",
		"SELECT a10, COUNT(*) FROM tie_small GROUP BY a10",
		"SELECT r.a1, s.a2 FROM tie_small r JOIN tie_small2 s ON r.a1 = s.a1",
	} {
		p := f.plan(t, sql)
		at := map[string]int{}
		for i, alt := range p.Alternatives {
			at[alt.System] = i
		}
		h, ok1 := at["hive"]
		h2, ok2 := at["hive2"]
		if !ok1 || !ok2 {
			t.Errorf("%q: want hive and hive2 both rejected:\n%s", sql, p.Explain())
			continue
		}
		if p.Alternatives[h].EstimatedSec != p.Alternatives[h2].EstimatedSec {
			t.Errorf("%q: hive and hive2 do not tie:\n%s", sql, p.Explain())
		}
		if h > h2 {
			t.Errorf("%q: tied hive2 listed before the owner hive:\n%s", sql, p.Explain())
		}
	}
}
