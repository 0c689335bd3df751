package engine

import (
	"fmt"
	"sync"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/remote"
)

// registerLogicalHive trains a blackbox hive remote over a small table set so
// concurrent tests exercise the logical-op feedback and remedy paths without
// long training runs.
func registerLogicalHive(t *testing.T, e *Engine) *hybrid.Estimator {
	t.Helper()
	bb, err := remote.NewHive("hivebb", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ts{{10000, 40}, {100000, 100}, {40000, 250}, {80000000, 500}} {
		tb, err := datagen.Table(spec.rows, spec.size, "hivebb")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Catalog().Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	cfg := logicalop.DefaultConfig(4, 1)
	cfg.NN.Train = nn.TrainConfig{Iterations: 100, Optimizer: nn.Adam, BatchSize: 32, Seed: 1}
	jcfg := logicalop.DefaultConfig(7, 2)
	jcfg.NN.Train = cfg.NN.Train
	est, _, err := e.RegisterRemoteLogicalOp(bb, remote.EngineHive, LogicalTrainOptions{
		JoinPairs: 4, TrainScan: true, Agg: cfg, Join: jcfg, Scan: cfg, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestConcurrentQueriesLogicalOpFeedback hammers Query from many goroutines
// against a logical-op remote, driving concurrent model estimates (including
// the out-of-range online-remedy path) and the async feedback pipeline. Run
// under -race this is the serving-path safety check for the whole stack:
// lock-free registry lookups, shared cached plans, batched Observe* delivery.
func TestConcurrentQueriesLogicalOpFeedback(t *testing.T) {
	e := newEngine(t)
	est := registerLogicalHive(t, e)
	// An out-of-range table (row size beyond the trained grid) forces the
	// remedy estimate during planning.
	big, err := datagen.Table(160000000, 1000, "hivebb")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable(big); err != nil {
		t.Fatal(err)
	}
	prof := est.Profile()
	before := prof.LogicalAgg.PendingLog()
	queries := []string{
		// In-range aggregation: executes on hivebb, logs feedback.
		"SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10",
		// Out-of-range aggregation: the estimate goes through the remedy.
		"SELECT a10, SUM(a1) FROM t160000000_1000 GROUP BY a10",
		// Join across the trained tables.
		"SELECT r.a1 FROM t80000000_500 r JOIN t100000_100 s ON r.a1 = s.a1",
		// Filtered scan.
		"SELECT a1 FROM t40000_250 WHERE a1 < 1000",
	}
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, sql := range queries {
					if _, err := e.Query(sql); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query failed: %v", err)
	}
	e.FlushFeedback()
	if got := e.FeedbackBacklog(); got != 0 {
		t.Errorf("feedback backlog after flush = %d", got)
	}
	if prof.LogicalAgg.PendingLog() <= before {
		t.Error("no feedback reached the logical aggregation model")
	}
	st := e.Stats()
	want := uint64(goroutines * rounds * len(queries))
	if st.Queries != want {
		t.Errorf("Stats.Queries = %d, want %d", st.Queries, want)
	}
	if st.QueryErrors != 0 {
		t.Errorf("Stats.QueryErrors = %d", st.QueryErrors)
	}
	if st.PlanCache.Hits == 0 {
		t.Error("no plan-cache hits across identical concurrent statements")
	}
	if st.Plan.Count == 0 || st.Execute.Count == 0 {
		t.Errorf("stage histograms empty: plan=%d execute=%d", st.Plan.Count, st.Execute.Count)
	}
}

// TestPlanCacheInvalidationThroughEngine checks the generation plumbing end
// to end: a resident statement hits, and every profile/catalog/link mutation
// (RegisterTable, SetLink, InstallLogicalModels, Switch) makes its next
// sighting a re-plan — the two model changes made the way a library user makes
// them, on the registered estimator itself and not through the engine, which
// reach the engine's epoch through the OnChange hook it attached at install
// (TestSwitchoverInvalidatesCachedPlans does the same for the switchover, the
// tuner tests for promotion and rollback). The entry goes stale in place: the
// re-plan is counted once, the sighting after it hits again, nothing is
// evicted or inserted, and the statement is never parsed again.
func TestPlanCacheInvalidationThroughEngine(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{1000000, 100}, ts{100000, 100})
	const sql = "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"

	var outs [3]string
	for i := range outs {
		var err error
		if outs[i], err = e.Explain(sql); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Error("cached Explain output not byte-identical")
	}
	warm := e.PlanCacheStats()
	if warm.Hits != 1 || warm.Misses != 2 || warm.Size != 1 {
		t.Fatalf("after three Explains: %+v", warm)
	}
	parsed := e.Stats().Parse.Count

	est, err := e.Estimator("hive")
	if err != nil {
		t.Fatal(err)
	}
	h := est.(*hybrid.Estimator)
	for i, mut := range []struct {
		name  string
		apply func() error
	}{
		{"RegisterTable", func() error { // bumps the catalog generation
			tb, err := datagen.Table(10000, 100, "hive")
			if err != nil {
				return err
			}
			return e.RegisterTable(tb)
		}},
		{"SetLink", func() error { // bumps the grid generation
			slow := querygrid.DefaultLink()
			slow.BandwidthBytesPerSec /= 4
			return e.SetLink("hive", slow)
		}},
		// On the estimator, which reports to the registry (nil models leave
		// the routing untouched but still signal a profile change).
		{"InstallLogicalModels", func() error { h.InstallLogicalModels(nil, nil, nil); return nil }},
		{"Switch", func() error { return h.Switch(core.SubOp) }},
	} {
		if err := mut.apply(); err != nil {
			t.Fatalf("%s: %v", mut.name, err)
		}
		// The first sighting after the change re-plans, the second hits.
		stale := uint64(i + 1)
		for sighting := uint64(0); sighting < 2; sighting++ {
			if _, err := e.Explain(sql); err != nil {
				t.Fatal(err)
			}
			s, hits := e.PlanCacheStats(), warm.Hits+uint64(i)+sighting
			if s.Stale != stale || s.Hits != hits || s.Misses != warm.Misses+stale {
				t.Fatalf("sighting %d after %s: %+v, want %d stale and %d hits", sighting+1, mut.name, s, stale, hits)
			}
		}
	}
	if s := e.PlanCacheStats(); s.Size != 1 || s.Evicted != 0 {
		t.Errorf("going stale moved the cache: %+v", s)
	}
	if got := e.Stats().Parse.Count; got != parsed {
		t.Errorf("the resident statement was parsed %d more times", got-parsed)
	}
}

// TestSwitchoverInvalidatesCachedPlans covers the one in-place model change
// nobody calls: a registered profile's SwitchAfter switchover fires inside an
// estimate, in the middle of planning some other statement, and must still
// invalidate every plan the engine cached while sub-op costing was active.
func TestSwitchoverInvalidatesCachedPlans(t *testing.T) {
	e, bb, _ := newTuneRig(t) // hivebb's trained logical models, reused below
	hive, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := subop.Train(hive, subop.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := hybrid.NewEstimator(&hybrid.Profile{
		SystemName: "hive", Engine: remote.EngineHive, Active: core.SubOp, SwitchAfter: 8,
		PerOperator: map[string]core.Approach{"scan": core.SubOp, "join": core.SubOp},
		Policy:      subop.InHouseComparable, SubOpModels: ms, LogicalAgg: bb.Profile().LogicalAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRemote(hive, est); err != nil {
		t.Fatal(err)
	}
	registerTables(t, e, "hive", ts{80000000, 250})
	const sql = "SELECT a10, SUM(a1) FROM t80000000_250 GROUP BY a10"
	before, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.Explain(sql); err != nil || again != before { // the second sighting: now it is cached
		t.Fatalf("second Explain: %v\n%s", err, again)
	}
	if est.Active() != core.SubOp {
		t.Fatalf("switched over after %d estimates, before the statement was cached", est.Queries())
	}
	stale := e.PlanCacheStats().Stale
	for i := 0; est.Active() == core.SubOp; i++ {
		if i > 20 {
			t.Fatalf("no switchover after %d estimates", est.Queries())
		}
		if _, err := e.Explain(fmt.Sprintf("SELECT a1 FROM t80000000_250 WHERE a1 < %d", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Stale != stale+1 {
		t.Errorf("after the switchover: stale = %d, want %d", s.Stale, stale+1)
	}
	if after == before {
		t.Error("the plan priced by sub-op costing is still served after the switchover to logical-op")
	}
}

// TestPlanCacheDisabled verifies Config.PlanCacheSize < 0 turns caching off.
func TestPlanCacheDisabled(t *testing.T) {
	e, err := New(Config{Seed: 9, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100})
	for i := 0; i < 2; i++ {
		if _, err := e.Explain("SELECT a1 FROM t100000_100"); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.PlanCacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", s)
	}
}
