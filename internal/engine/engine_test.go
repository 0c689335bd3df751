package engine

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/nn"
	intplan "intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func registerHive(t *testing.T, e *Engine) remote.System {
	t.Helper()
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RegisterRemoteSubOp(h, remote.EngineHive, subop.InHouseComparable); err != nil {
		t.Fatalf("RegisterRemoteSubOp: %v", err)
	}
	return h
}

func registerTables(t *testing.T, e *Engine, system string, specs ...struct {
	rows int64
	size int
}) {
	t.Helper()
	for _, s := range specs {
		tb, err := datagen.Table(s.rows, s.size, system)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
}

type ts = struct {
	rows int64
	size int
}

func TestNewEngineCalibratesMaster(t *testing.T) {
	e := newEngine(t)
	est, err := e.Estimator("teradata")
	if err != nil {
		t.Fatalf("Estimator: %v", err)
	}
	if est.Approach() != core.SubOp {
		t.Errorf("master approach = %v", est.Approach())
	}
	if got := e.Systems(); len(got) != 1 || got[0] != "teradata" {
		t.Errorf("Systems = %v", got)
	}
}

func TestRegisterRemoteValidation(t *testing.T) {
	e := newEngine(t)
	if err := e.RegisterRemote(nil, nil); err == nil {
		t.Error("nil remote accepted")
	}
	h := registerHive(t, e)
	// Duplicate registration.
	est, _ := e.Estimator("hive")
	if err := e.RegisterRemote(h, est); err == nil {
		t.Error("duplicate remote accepted")
	}
	// Reserved name.
	td, err := remote.NewHive("teradata", cluster.DefaultHive(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRemote(td, est); err == nil {
		t.Error("reserved master name accepted")
	}
	if _, err := e.Remote("hive"); err != nil {
		t.Errorf("Remote(hive): %v", err)
	}
	if _, err := e.Remote("nope"); err == nil {
		t.Error("unknown remote lookup succeeded")
	}
	if _, err := e.Estimator("nope"); err == nil {
		t.Error("unknown estimator lookup succeeded")
	}
}

func TestRegisterTableChecksSystem(t *testing.T) {
	e := newEngine(t)
	tb, _ := datagen.Table(10000, 100, "ghost")
	if err := e.RegisterTable(tb); err == nil {
		t.Error("table referencing unregistered system accepted")
	}
	registerHive(t, e)
	tb2, _ := datagen.Table(10000, 100, "hive")
	if err := e.RegisterTable(tb2); err != nil {
		t.Errorf("RegisterTable: %v", err)
	}
	local, _ := datagen.Table(1000, 40, "")
	local.Name = "local_t"
	if err := e.RegisterTable(local); err != nil {
		t.Errorf("local table: %v", err)
	}
}

func TestExplainAndQueryScan(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{80000000, 1000})
	out, err := e.Explain("SELECT a1 FROM t80000000_1000 WHERE a1 < 60000000")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "plan (estimated") {
		t.Errorf("Explain output: %s", out)
	}
	res, err := e.Query("SELECT a1 FROM t80000000_1000 WHERE a1 < 60000000")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.ActualSec <= 0 || len(res.StepActuals) != len(res.Plan.Steps) {
		t.Errorf("result = %+v", res)
	}
	if res.Rows != nil {
		t.Error("unmaterialized query returned rows")
	}
}

func TestQueryJoinEstimateAccuracy(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{80000000, 500}, ts{1000000, 100})
	res, err := e.Query("SELECT r.a1, s.a1 FROM t80000000_500 r JOIN t1000000_100 s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500000")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Find the join step and compare estimate to actual.
	for i, step := range res.Plan.Steps {
		if step.Kind != "join" {
			continue
		}
		ratio := step.EstimatedSec / res.StepActuals[i]
		if ratio < 0.5 || ratio > 2.5 {
			t.Errorf("join estimate %v vs actual %v (ratio %.2f)", step.EstimatedSec, res.StepActuals[i], ratio)
		}
	}
}

func TestQueryWithRows(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{10000, 100}, ts{100000, 100})
	for _, name := range []string{"t10000_100", "t100000_100"} {
		if err := e.Materialize(name); err != nil {
			t.Fatalf("Materialize(%s): %v", name, err)
		}
	}
	res, err := e.Query("SELECT r.a1 FROM t100000_100 r JOIN t10000_100 s ON r.a1 = s.a1 WHERE r.a1 + s.z < 2500")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rows == nil {
		t.Fatal("materialized query returned no rows")
	}
	if len(res.Rows.Rows) != 2500 {
		t.Errorf("got %d rows, want 2500 (Figure 10 semantics)", len(res.Rows.Rows))
	}
	// Aggregation end to end.
	res, err = e.Query("SELECT a10, SUM(a1) FROM t10000_100 GROUP BY a10")
	if err != nil {
		t.Fatalf("agg Query: %v", err)
	}
	if res.Rows == nil || len(res.Rows.Rows) != 1000 {
		t.Errorf("agg rows = %v", res.Rows)
	}
}

func TestMaterializeErrors(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	if err := e.Materialize("missing"); err == nil {
		t.Error("materializing unknown table accepted")
	}
	registerTables(t, e, "hive", ts{80000000, 1000})
	if err := e.Materialize("t80000000_1000"); err == nil {
		t.Error("materializing a huge table accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Query("not sql"); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := e.Query("SELECT a1 FROM missing"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Explain("not sql"); err == nil {
		t.Error("bad SQL accepted by Explain")
	}
}

func TestRegisterRemoteLogicalOp(t *testing.T) {
	// The blackbox flow: foreign tables are registered in the catalog
	// first (directly — the system isn't registered yet), then
	// RegisterRemoteLogicalOp executes the Figure 10 workloads over them,
	// trains the neural models, and registers the remote.
	e := newEngine(t)
	bb, err := remote.NewHive("hivebb", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ts{{10000, 40}, {100000, 100}, {1000000, 250}, {40000, 500}} {
		tb, err := datagen.Table(spec.rows, spec.size, "hivebb")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Catalog().Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	fast := logicalop.DefaultConfig(4, 1)
	fast.NN.Train.Iterations = 150
	fastJoin := logicalop.DefaultConfig(7, 2)
	fastJoin.NN.Train.Iterations = 150
	est, rep, err := e.RegisterRemoteLogicalOp(bb, remote.EngineHive, LogicalTrainOptions{
		JoinPairs: 6, Agg: fast, Join: fastJoin, Seed: 5,
	})
	if err != nil {
		t.Fatalf("RegisterRemoteLogicalOp: %v", err)
	}
	if est.Active() != core.LogicalOp {
		t.Errorf("active approach = %v", est.Active())
	}
	if rep.AggQueries != 4*6*5 {
		t.Errorf("agg queries = %d, want 120", rep.AggQueries)
	}
	if rep.JoinQueries != 24 {
		t.Errorf("join queries = %d, want 24", rep.JoinQueries)
	}
	if rep.JoinTrainSec <= rep.AggTrainSec/10 {
		t.Errorf("join training (%v) suspiciously cheap vs agg (%v)", rep.JoinTrainSec, rep.AggTrainSec)
	}
	// The registered estimator answers queries end to end.
	out, err := e.Query("SELECT a10, SUM(a1) FROM t1000000_250 GROUP BY a10")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.ActualSec <= 0 {
		t.Error("no actual time")
	}
}

func TestRegisterRemoteLogicalOpNeedsTables(t *testing.T) {
	e := newEngine(t)
	bb, _ := remote.NewHive("bb", cluster.DefaultHive(), remote.Options{})
	if _, _, err := e.RegisterRemoteLogicalOp(bb, remote.EngineHive, LogicalTrainOptions{}); err == nil {
		t.Error("training without tables accepted")
	}
}

// registerHiveBB registers "hivebb", a blackbox remote whose join and
// aggregation models are trained (briefly) over four tables of its own, the
// largest 80M rows × 500 B.
func registerHiveBB(t *testing.T, e *Engine) *hybrid.Estimator {
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
	cfg.NN.Train = nn.TrainConfig{Iterations: 100, BatchSize: 32, Seed: 1}
	jcfg := logicalop.DefaultConfig(7, 2)
	jcfg.NN.Train = cfg.NN.Train
	est, _, err := e.RegisterRemoteLogicalOp(bb, remote.EngineHive, LogicalTrainOptions{JoinPairs: 4, Agg: cfg, Join: jcfg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestFeedbackReachesLogicalModels(t *testing.T) {
	e := newEngine(t)
	prof := registerHiveBB(t, e).Profile()
	before := prof.LogicalAgg.PendingLog()
	// On one P a goroutine the query started would not have run by the time
	// Query returns: the observation must be logged by the query itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// 80M × 500 B stays on hivebb (shipping 40 GB would dominate), so the
	// aggregation executes remotely and the actual cost is logged.
	if _, err := e.Query("SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"); err != nil {
		t.Fatal(err)
	}
	if got := prof.LogicalAgg.PendingLog(); got != before+1 {
		t.Errorf("pending log %d → %d when Query returned, want one execution logged", before, got)
	}
}

// TestFeedbackLogsThePlansEstimate: an executed step is logged with the
// remedy components of the estimate its plan step was priced with — which,
// for a model nothing retuned in between, is what estimating again returns —
// and a step the sub-op side of a hybrid priced logs zeros, even where the
// hybrid's logical model sees the input out of range.
func TestFeedbackLogsThePlansEstimate(t *testing.T) {
	e := newEngine(t)
	agg := registerHiveBB(t, e).Profile().LogicalAgg
	// A second remote priced by sub-op models that also carries a copy of
	// hivebb's aggregation model.
	sub, err := remote.NewHive("hivesub", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := subop.Train(sub, subop.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	subAgg := new(logicalop.Model)
	if err := json.Unmarshal(data, subAgg); err != nil {
		t.Fatal(err)
	}
	subEst, err := hybrid.NewEstimator(&hybrid.Profile{SystemName: "hivesub", Engine: remote.EngineHive,
		Active: core.SubOp, SubOpModels: ms, LogicalAgg: subAgg})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRemote(sub, subEst); err != nil {
		t.Fatal(err)
	}
	// Registered after training: their row counts are far outside what the
	// aggregation models were trained on.
	registerTables(t, e, "hivebb", ts{1000000000, 500})
	registerTables(t, e, "hivesub", ts{2000000000, 500})

	seen := map[string]int{}
	for _, q := range []string{
		"SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10",
		"SELECT a100, COUNT(*) FROM t80000000_500 WHERE a1 < 40000000 GROUP BY a100",
		"SELECT a10, SUM(a1) FROM t1000000000_500 GROUP BY a10",
		"SELECT a100, COUNT(*) FROM t1000000000_500 WHERE a1 < 500000000 GROUP BY a100",
		"SELECT a10, SUM(a1) FROM t2000000000_500 GROUP BY a10",
	} {
		before := map[*logicalop.Model]int{agg: agg.PendingLog(), subAgg: subAgg.PendingLog()}
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, step := range res.Plan.Steps {
			if step.Kind != "aggregation" || (step.System != "hivebb" && step.System != "hivesub") {
				continue
			}
			m := agg
			if step.System == "hivesub" {
				m = subAgg
			}
			recs := m.LogRecords()
			if len(recs) <= before[m] {
				t.Fatalf("%s: the %s aggregation step logged nothing", q, step.System)
			}
			rec := recs[before[m]]
			before[m]++
			x := step.Agg.Dims()
			again, err := m.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			var want [2]float64
			switch {
			case step.Estimate.Approach == core.SubOp:
				if !again.OutOfRange {
					t.Fatalf("%s: the sub-op-priced step is in the logical model's range; the case checks nothing", q)
				}
				seen["sub-op"]++
			case step.Estimate.OutOfRange:
				want = [2]float64{step.Estimate.NNSeconds, step.Estimate.RegressionSeconds}
				if !again.OutOfRange || again.NNSeconds != want[0] || again.RegSeconds != want[1] {
					t.Errorf("%s: the plan's estimate %+v differs from estimating again %+v", q, step.Estimate, again)
				}
				seen["out of range"]++
			default:
				if again.OutOfRange {
					t.Errorf("%s: the plan priced the step in range, estimating again is out of range", q)
				}
				seen["in range"]++
			}
			if rec.NNSec != want[0] || rec.RegSec != want[1] {
				t.Errorf("%s (%s): logged components %v/%v, want %v", q, step.System, rec.NNSec, rec.RegSec, want)
			}
		}
	}
	for _, c := range []string{"in range", "out of range", "sub-op"} {
		if seen[c] == 0 {
			t.Errorf("no %s aggregation step executed (%v)", c, seen)
		}
	}
}

func TestQueryOrderByLimitEndToEnd(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{10000, 100})
	if err := e.Materialize("t10000_100"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT a10, SUM(a1) AS total FROM t10000_100 GROUP BY a10 ORDER BY total DESC LIMIT 5")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// The plan must include an executed sort step.
	foundSort := false
	for i, s := range res.Plan.Steps {
		if s.Kind == "sort" {
			foundSort = true
			if res.StepActuals[i] <= 0 {
				t.Errorf("sort actual = %v", res.StepActuals[i])
			}
		}
	}
	if !foundSort {
		t.Fatalf("no sort step executed\n%s", res.Plan.Explain())
	}
	if res.Rows == nil || len(res.Rows.Rows) != 5 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// Descending totals.
	for i := 1; i < len(res.Rows.Rows); i++ {
		if res.Rows.Rows[i][1] > res.Rows.Rows[i-1][1] {
			t.Error("results not sorted descending")
		}
	}
}

func TestProfileSaveAndRestore(t *testing.T) {
	e := newEngine(t)
	h := registerHive(t, e)
	dir := t.TempDir()
	path := dir + "/hive.json"
	if err := e.SaveProfile("hive", path); err != nil {
		t.Fatalf("SaveProfile: %v", err)
	}
	if err := e.SaveProfile("teradata", path); err == nil {
		t.Error("saving the master's non-profile estimator accepted")
	}
	if err := e.SaveProfile("ghost", path); err == nil {
		t.Error("saving unknown system accepted")
	}

	// A fresh engine restores the profile without re-training.
	e2 := newEngine(t)
	est, err := e2.RegisterRemoteFromProfile(h, path)
	if err != nil {
		t.Fatalf("RegisterRemoteFromProfile: %v", err)
	}
	if est.Active() != core.SubOp {
		t.Errorf("restored approach = %v", est.Active())
	}
	registerTables(t, e2, "hive", ts{1000000, 100})
	if _, err := e2.Query("SELECT a1 FROM t1000000_100 WHERE a1 < 100"); err != nil {
		t.Fatalf("query on restored profile: %v", err)
	}

	// Mismatched system name must be rejected.
	other, err := remote.NewHive("other", cluster.DefaultHive(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e3 := newEngine(t)
	if _, err := e3.RegisterRemoteFromProfile(other, path); err == nil {
		t.Error("profile/system name mismatch accepted")
	}
	if _, err := e3.RegisterRemoteFromProfile(h, dir+"/missing.json"); err == nil {
		t.Error("missing profile file accepted")
	}
}

func TestCalibrateLink(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	link := &querygridSimLink{}
	cfg, err := e.CalibrateLink("hive", link.measure)
	if err != nil {
		t.Fatalf("CalibrateLink: %v", err)
	}
	if cfg.BandwidthBytesPerSec < 2e8 || cfg.BandwidthBytesPerSec > 3e8 {
		t.Errorf("calibrated bandwidth = %v, truth 2.5e8", cfg.BandwidthBytesPerSec)
	}
	// Unknown system rejected.
	if _, err := e.CalibrateLink("ghost", link.measure); err == nil {
		t.Error("calibrating unknown system accepted")
	}
}

// querygridSimLink is a fast 2 Gbit/s link with hidden truth.
type querygridSimLink struct{}

func (querygridSimLink) measure(rows, rowSize float64) (float64, error) {
	return 0.2 + rows*rowSize/2.5e8 + rows*0.1/1e6, nil
}

func TestConcurrentQueries(t *testing.T) {
	// Estimators and the engine must be safe for the optimizer's concurrent
	// use — the paper's master plans many queries at once.
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive",
		ts{1000000, 100}, ts{100000, 100}, ts{10000000, 250}, ts{80000000, 500})
	queries := []string{
		"SELECT a1 FROM t1000000_100 WHERE a1 < 1000",
		"SELECT a10, SUM(a1) FROM t10000000_250 GROUP BY a10",
		"SELECT r.a1 FROM t80000000_500 r JOIN t100000_100 s ON r.a1 = s.a1",
		"SELECT a1 FROM t100000_100 ORDER BY a1 DESC LIMIT 5",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for round := 0; round < 4; round++ {
		for _, sql := range queries {
			wg.Add(1)
			go func(sql string) {
				defer wg.Done()
				if _, err := e.Query(sql); err != nil {
					errs <- err
				}
			}(sql)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query failed: %v", err)
	}
}

func TestRegisterRemoteLogicalOpWithScan(t *testing.T) {
	e := newEngine(t)
	bb, err := remote.NewHive("hivebb", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ts{{10000, 40}, {100000, 100}, {1000000, 250}} {
		tb, err := datagen.Table(spec.rows, spec.size, "hivebb")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Catalog().Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	fast := logicalop.DefaultConfig(4, 1)
	fast.NN.Train.Iterations = 150
	fastJoin := logicalop.DefaultConfig(7, 2)
	fastJoin.NN.Train.Iterations = 150
	est, rep, err := e.RegisterRemoteLogicalOp(bb, remote.EngineHive, LogicalTrainOptions{
		JoinPairs: 3, TrainScan: true, Agg: fast, Join: fastJoin, Scan: fast, Seed: 6,
	})
	if err != nil {
		t.Fatalf("RegisterRemoteLogicalOp: %v", err)
	}
	// 3 tables × 4 selectivities × 2 projections = 24 scan queries.
	if rep.ScanQueries != 24 {
		t.Errorf("scan queries = %d, want 24", rep.ScanQueries)
	}
	if rep.ScanResult == nil || rep.ScanTrainSec <= 0 {
		t.Errorf("scan report = %+v", rep)
	}
	if est.Profile().LogicalScan == nil {
		t.Fatal("scan model not installed in the profile")
	}
	// The scan model answers estimates end to end.
	ce, err := est.EstimateScan(intplan.ScanSpec{InputRows: 5e5, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 8})
	if err != nil {
		t.Fatalf("EstimateScan: %v", err)
	}
	if ce.Approach != core.LogicalOp || ce.Seconds <= 0 {
		t.Errorf("estimate = %+v", ce)
	}
}

func TestQueryThreeWayJoinEndToEnd(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{200000, 100}, ts{100000, 100}, ts{10000, 100})
	for _, name := range []string{"t200000_100", "t100000_100", "t10000_100"} {
		if err := e.Materialize(name); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Query("SELECT r.a1 FROM t200000_100 r JOIN t100000_100 s ON r.a1 = s.a1 JOIN t10000_100 u ON s.a1 = u.a1 WHERE r.a1 + u.z < 2500")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rows == nil || len(res.Rows.Rows) != 2500 {
		t.Fatalf("rows = %v, want 2500", len(res.Rows.Rows))
	}
	joins := 0
	for _, s := range res.Plan.Steps {
		if s.Kind == "join" {
			joins++
		}
	}
	if joins != 2 {
		t.Errorf("executed %d join steps, want 2\n%s", joins, res.Plan.Explain())
	}
}
