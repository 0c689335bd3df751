package subop

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
	"intellisphere/internal/stats"
)

func trainHive(t *testing.T) (*remote.Distributed, *ModelSet, *Report) {
	t.Helper()
	h, err := remote.NewHive("hive", cluster.DefaultHive(), Options())
	if err != nil {
		t.Fatalf("NewHive: %v", err)
	}
	ms, rep, err := Train(h, TrainConfig{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return h, ms, rep
}

// Options returns low-noise simulator options so fitted models are tight.
func Options() remote.Options {
	return remote.Options{NoiseAmp: 0.01, Seed: 3}
}

func TestTrainRecoversGroundTruth(t *testing.T) {
	_, ms, rep := trainHive(t)
	truth := remote.DefaultHiveCosts()

	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*math.Abs(want)
	}
	cases := []struct {
		op    remote.SubOp
		slope float64
	}{
		{remote.ReadDFS, truth.Costs[remote.ReadDFS].Slope},
		{remote.WriteDFS, truth.Costs[remote.WriteDFS].Slope},
		{remote.Shuffle, truth.Costs[remote.Shuffle].Slope},
		{remote.RecMerge, truth.Costs[remote.RecMerge].Slope},
		{remote.HashBuild, truth.Costs[remote.HashBuild].Slope},
	}
	for _, c := range cases {
		line, ok := ms.Lines.Get(c.op)
		if !ok {
			t.Fatalf("%v not learned", c.op)
		}
		if !within(line.Slope, c.slope, 0.25) {
			t.Errorf("%v learned slope %v, truth %v", c.op, line.Slope, c.slope)
		}
		if line.R2 < 0.9 {
			t.Errorf("%v fit R² = %v, want > 0.9", c.op, line.R2)
		}
	}
	// The spill regime must be recovered distinctly and steeper.
	if build, _ := ms.Lines.Get(remote.HashBuild); ms.HashSpill.Slope <= build.Slope {
		t.Errorf("spill slope %v not steeper than in-memory %v", ms.HashSpill.Slope, build.Slope)
	}
	if !within(ms.HashSpill.Slope, truth.HashSpill.Slope, 0.3) {
		t.Errorf("spill slope %v, truth %v", ms.HashSpill.Slope, truth.HashSpill.Slope)
	}
	// Baseline should sit near the job startup latency.
	if rep.BaselineSec <= 0 || rep.BaselineSec > 10 {
		t.Errorf("baseline = %v s, expected a small positive latency", rep.BaselineSec)
	}
}

func TestTrainReportShape(t *testing.T) {
	_, _, rep := trainHive(t)
	if len(rep.SubOps) != len(remote.AllSubOps()) {
		t.Fatalf("report covers %d sub-ops, want %d", len(rep.SubOps), len(remote.AllSubOps()))
	}
	if rep.SubOps[0].Target != remote.ReadDFS {
		t.Error("ReadDFS must be learned first")
	}
	total := 0
	for _, r := range rep.SubOps {
		if r.Queries <= 0 || r.TrainSec <= 0 {
			t.Errorf("%v: queries=%d trainSec=%v", r.Target, r.Queries, r.TrainSec)
		}
		if len(r.PerSize) != 6 {
			t.Errorf("%v: %d size points, want 6", r.Target, len(r.PerSize))
		}
		if len(r.PerCount) == 0 {
			t.Errorf("%v: no flatness points", r.Target)
		}
		total += r.Queries
	}
	if total != rep.TotalCount {
		t.Errorf("TotalCount %d != sum %d", rep.TotalCount, total)
	}
	// The paper's headline: sub-op training needs only tens of queries per
	// sub-op — 1-2 orders of magnitude below logical-op training.
	if rep.TotalCount > 400 {
		t.Errorf("sub-op training used %d queries; should be tiny", rep.TotalCount)
	}
	// Flatness: per-record cost varies little across record counts.
	for _, r := range rep.SubOps {
		if r.Target != remote.ReadDFS {
			continue
		}
		var vals []float64
		for _, p := range r.PerCount {
			vals = append(vals, p.PerRecordUS)
		}
		if len(vals) == 0 {
			t.Fatal("ReadDFS has no per-count points")
		}
		min, max := slices.Min(vals), slices.Max(vals)
		if min <= 0 || (max-min)/min > 0.5 {
			t.Errorf("ReadDFS per-record cost not flat across counts: [%v, %v]", min, max)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	h, err := remote.NewHive("hive", cluster.DefaultHive(), Options())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Train(h, TrainConfig{RecordCounts: []float64{1e6}}); err == nil {
		t.Error("single record count accepted")
	}
	// Restricting targets below the Basic set must be flagged.
	if _, _, err := Train(h, TrainConfig{Targets: []remote.SubOp{remote.ReadDFS, remote.WriteDFS}}); err == nil {
		t.Error("missing mandatory sub-ops accepted")
	}
}

func TestModelSetValidate(t *testing.T) {
	var ms *ModelSet
	if err := ms.Validate(); err == nil {
		t.Error("nil model set accepted")
	}
	ms = &ModelSet{}
	ms.Lines.Set(remote.ReadDFS, stats.Line{})
	if err := ms.Validate(); err == nil {
		t.Error("incomplete model set accepted")
	}
}

func TestPerRecordDefaults(t *testing.T) {
	ms := &ModelSet{Cluster: cluster.DefaultHive()}
	// Specific sub-ops fall back to rough defaults.
	if got := ms.PerRecord(remote.RecMerge, 100, true); got <= 0 {
		t.Errorf("default RecMerge = %v", got)
	}
	// Unknown basic sub-op with no model: zero.
	if got := ms.PerRecord(remote.Shuffle, 100, true); got != 0 {
		t.Errorf("unmodeled Shuffle = %v, want 0", got)
	}
	// Negative evaluations floor at zero.
	ms.Lines.Set(remote.Scan, stats.Line{Slope: -1, Intercept: 0})
	if got := ms.PerRecord(remote.Scan, 100, true); got != 0 {
		t.Errorf("negative cost not floored: %v", got)
	}
}

func TestJoinCostAccuracyBroadcast(t *testing.T) {
	h, ms, _ := trainHive(t)
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 100, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 1e5, RowSize: 100, ProjectedSize: 50, KeyNDV: 1e5},
		OutputRows: 1e5,
	}
	actual, err := h.ExecuteJoinWith(spec, remote.HiveBroadcastJoin)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ms.JoinCost(spec, remote.HiveBroadcastJoin)
	if err != nil {
		t.Fatal(err)
	}
	ratio := est / actual.ElapsedSec
	if ratio < 0.8 || ratio > 2.2 {
		t.Errorf("broadcast estimate %v vs actual %v (ratio %.2f) out of band", est, actual.ElapsedSec, ratio)
	}
}

func TestJoinCostAccuracyShuffleOverestimates(t *testing.T) {
	// The paper's Figure 13(g): the composed formula slightly overestimates
	// (it cannot know about intra-task pipelining). Check the trend over a
	// sweep.
	h, ms, _ := trainHive(t)
	var est, actual []float64
	for _, rows := range []float64{2e6, 4e6, 8e6, 16e6} {
		for _, size := range []float64{100, 250, 500} {
			spec := plan.JoinSpec{
				Left:       plan.TableSide{Rows: rows, RowSize: size, ProjectedSize: 50, KeyNDV: rows},
				Right:      plan.TableSide{Rows: rows / 2, RowSize: size, ProjectedSize: 50, KeyNDV: rows / 2},
				OutputRows: rows / 2,
			}
			ex, err := h.ExecuteJoinWith(spec, remote.HiveShuffleJoin)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ms.JoinCost(spec, remote.HiveShuffleJoin)
			if err != nil {
				t.Fatal(err)
			}
			actual = append(actual, ex.ElapsedSec)
			est = append(est, c)
		}
	}
	line, err := stats.FitLine(actual, est)
	if err != nil {
		t.Fatal(err)
	}
	if line.Slope < 1.0 || line.Slope > 2.0 {
		t.Errorf("estimate-vs-actual slope = %v, want in [1.0, 2.0] (slight overestimation)", line.Slope)
	}
	if line.R2 < 0.85 {
		t.Errorf("estimate-vs-actual R² = %v, want > 0.85", line.R2)
	}
}

func TestJoinCostUnknownAlgorithm(t *testing.T) {
	_, ms, _ := trainHive(t)
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 1e5, RowSize: 100, ProjectedSize: 10},
		Right:      plan.TableSide{Rows: 1e4, RowSize: 100, ProjectedSize: 10},
		OutputRows: 1e4,
	}
	if _, err := ms.JoinCost(spec, remote.JoinAlgorithm("bogus")); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := ms.JoinCost(plan.JoinSpec{}, remote.HiveShuffleJoin); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestAggAndScanCost(t *testing.T) {
	h, ms, _ := trainHive(t)
	agg := plan.AggSpec{InputRows: 2e6, InputRowSize: 250, OutputRows: 2e4, OutputRowSize: 28, NumAggregates: 3}
	actual, err := h.ExecuteAgg(agg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ms.AggCost(agg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := est / actual.ElapsedSec
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("agg estimate %v vs actual %v out of band", est, actual.ElapsedSec)
	}
	if _, err := ms.AggCost(plan.AggSpec{}); err == nil {
		t.Error("invalid agg accepted")
	}

	scan := plan.ScanSpec{InputRows: 2e6, InputRowSize: 250, Selectivity: 0.25, OutputRowSize: 100}
	sActual, err := h.ExecuteScan(scan)
	if err != nil {
		t.Fatal(err)
	}
	sEst, err := ms.ScanCost(scan)
	if err != nil {
		t.Fatal(err)
	}
	ratio = sEst / sActual.ElapsedSec
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("scan estimate %v vs actual %v out of band", sEst, sActual.ElapsedSec)
	}
	if _, err := ms.ScanCost(plan.ScanSpec{}); err == nil {
		t.Error("invalid scan accepted")
	}
}

func TestApplicableJoinsHive(t *testing.T) {
	_, ms, _ := trainHive(t)
	small := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 100, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 1e4, RowSize: 100, ProjectedSize: 50, KeyNDV: 1e4},
		OutputRows: 1e4,
	}
	algs := ApplicableJoins(nil, remote.EngineHive, small, ms)
	if !contains(algs, remote.HiveBroadcastJoin) || !contains(algs, remote.HiveShuffleJoin) {
		t.Errorf("small-side applicable = %v", algs)
	}
	if contains(algs, remote.HiveBucketMapJoin) || contains(algs, remote.HiveSortMergeBucketJoin) {
		t.Errorf("unpartitioned inputs must eliminate bucketed joins: %v", algs)
	}

	big := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e7, RowSize: 500, ProjectedSize: 100, KeyNDV: 4e7},
		Right:      plan.TableSide{Rows: 2e7, RowSize: 500, ProjectedSize: 100, KeyNDV: 2e7},
		OutputRows: 2e7,
	}
	algs = ApplicableJoins(nil, remote.EngineHive, big, ms)
	if len(algs) != 1 || algs[0] != remote.HiveShuffleJoin {
		t.Errorf("big unpartitioned join applicable = %v, want only shuffle", algs)
	}

	big.Left.KeyNDV = 10 // extreme skew
	algs = ApplicableJoins(nil, remote.EngineHive, big, ms)
	if !contains(algs, remote.HiveSkewJoin) {
		t.Errorf("skewed join should include skew join: %v", algs)
	}

	sorted := big
	sorted.Left.KeyNDV = 4e7
	sorted.Left.PartitionedOn, sorted.Left.SortedOn = true, true
	sorted.Right.PartitionedOn, sorted.Right.SortedOn = true, true
	algs = ApplicableJoins(nil, remote.EngineHive, sorted, ms)
	if !contains(algs, remote.HiveSortMergeBucketJoin) || !contains(algs, remote.HiveBucketMapJoin) {
		t.Errorf("bucketed+sorted applicable = %v", algs)
	}
}

func TestApplicableJoinsSpark(t *testing.T) {
	_, ms, _ := trainHive(t)
	small := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 100, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 1e4, RowSize: 100, ProjectedSize: 50, KeyNDV: 1e4},
		OutputRows: 1e4,
	}
	algs := ApplicableJoins(nil, remote.EngineSpark, small, ms)
	if !contains(algs, remote.SparkBroadcastHashJoin) || !contains(algs, remote.SparkSortMergeJoin) {
		t.Errorf("spark small applicable = %v", algs)
	}
	cart := small
	cart.Cartesian = true
	algs = ApplicableJoins(nil, remote.EngineSpark, cart, ms)
	for _, a := range algs {
		if a != remote.SparkBroadcastNLJoin && a != remote.SparkCartesianJoin {
			t.Errorf("cartesian applicable includes equi-join %v", a)
		}
	}
}

func contains(algs []remote.JoinAlgorithm, a remote.JoinAlgorithm) bool {
	for _, x := range algs {
		if x == a {
			return true
		}
	}
	return false
}

func TestEstimatorPolicies(t *testing.T) {
	_, ms, _ := trainHive(t)
	spec := plan.JoinSpec{ // broadcast + shuffle both applicable
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 100, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 1e4, RowSize: 100, ProjectedSize: 50, KeyNDV: 1e4},
		OutputRows: 1e4,
	}
	est := func(p ChoicePolicy) core0 {
		e, err := NewEstimator(ms, remote.EngineHive, p)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := e.EstimateJoin(spec)
		if err != nil {
			t.Fatal(err)
		}
		return core0{ce.Seconds, ce.Algorithm}
	}
	worst := est(WorstCase)
	best := est(InHouseComparable)
	avg := est(AverageCase)
	if worst.sec < best.sec {
		t.Errorf("worst (%v) < best (%v)", worst.sec, best.sec)
	}
	if avg.sec < best.sec || avg.sec > worst.sec {
		t.Errorf("average %v outside [best %v, worst %v]", avg.sec, best.sec, worst.sec)
	}
	if WorstCase.String() != "worst-case" || AverageCase.String() != "average" ||
		InHouseComparable.String() != "in-house-comparable" {
		t.Error("policy names wrong")
	}
	if ChoicePolicy(9).String() == "" {
		t.Error("fallback policy name empty")
	}
}

type core0 struct {
	sec float64
	alg string
}

func TestEstimatorInterface(t *testing.T) {
	_, ms, _ := trainHive(t)
	e, err := NewEstimator(ms, remote.EngineHive, InHouseComparable)
	if err != nil {
		t.Fatal(err)
	}
	if e.Approach() != "sub-op" {
		t.Errorf("Approach = %q", e.Approach())
	}
	if _, err := e.EstimateAgg(plan.AggSpec{InputRows: 1e5, InputRowSize: 100, OutputRows: 100, OutputRowSize: 12}); err != nil {
		t.Errorf("EstimateAgg: %v", err)
	}
	if _, err := e.EstimateScan(plan.ScanSpec{InputRows: 1e5, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 40}); err != nil {
		t.Errorf("EstimateScan: %v", err)
	}
	bad := &Estimator{}
	if _, err := bad.EstimateJoin(plan.JoinSpec{}); err == nil {
		t.Error("untrained estimator accepted")
	}
	if _, err := bad.EstimateAgg(plan.AggSpec{}); err == nil {
		t.Error("untrained estimator accepted")
	}
	if _, err := bad.EstimateScan(plan.ScanSpec{}); err == nil {
		t.Error("untrained estimator accepted")
	}
	if _, err := NewEstimator(&ModelSet{}, remote.EngineHive, WorstCase); err == nil {
		t.Error("invalid model set accepted")
	}
}

// The out-of-range headline: sub-op models extrapolate cleanly to 20M-row
// joins after training probes capped at 8M records (Figure 14's sub-op
// series staying in the optimal zone).
func TestSubOpExtrapolatesOutOfRange(t *testing.T) {
	h, ms, _ := trainHive(t)
	var est, actual []float64
	for _, size := range []float64{100, 250, 500, 1000} {
		spec := plan.JoinSpec{
			Left:       plan.TableSide{Rows: 20e6, RowSize: size, ProjectedSize: 50, KeyNDV: 20e6},
			Right:      plan.TableSide{Rows: 20e6, RowSize: size, ProjectedSize: 50, KeyNDV: 20e6},
			OutputRows: 20e6 * 0.25,
		}
		ex, err := h.ExecuteJoinWith(spec, remote.HiveShuffleJoin)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ms.JoinCost(spec, remote.HiveShuffleJoin)
		if err != nil {
			t.Fatal(err)
		}
		actual = append(actual, ex.ElapsedSec)
		est = append(est, c)
	}
	pct, err := stats.RMSEPercent(est, actual)
	if err != nil {
		t.Fatal(err)
	}
	if pct > 60 {
		t.Errorf("out-of-range sub-op RMSE%% = %v, want moderate", pct)
	}
	// And correlation must stay high.
	line, err := stats.FitLine(actual, est)
	if err != nil {
		t.Fatal(err)
	}
	if line.R2 < 0.9 {
		t.Errorf("out-of-range R² = %v", line.R2)
	}
}

func TestPrestoSubOpTrainingAndEstimation(t *testing.T) {
	p, err := remote.NewPresto("presto", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := Train(p, TrainConfig{})
	if err != nil {
		t.Fatalf("Train(presto): %v", err)
	}
	truth := remote.DefaultPrestoCosts()
	line, _ := ms.Lines.Get(remote.Shuffle)
	if math.Abs(line.Slope-truth.Costs[remote.Shuffle].Slope) > 0.3*truth.Costs[remote.Shuffle].Slope {
		t.Errorf("presto shuffle slope %v, truth %v", line.Slope, truth.Costs[remote.Shuffle].Slope)
	}
	est, err := NewEstimator(ms, remote.EnginePresto, InHouseComparable)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 8e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 8e6},
		Right:      plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 4e6},
		OutputRows: 2e6,
	}
	ce, err := est.EstimateJoin(spec)
	if err != nil {
		t.Fatalf("EstimateJoin: %v", err)
	}
	actual, err := p.ExecuteJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ce.Seconds / actual.ElapsedSec
	if ratio < 0.6 || ratio > 2.5 {
		t.Errorf("presto estimate %v vs actual %v (ratio %.2f)", ce.Seconds, actual.ElapsedSec, ratio)
	}
	// Applicability: cartesian only yields the cross join.
	cart := spec
	cart.Cartesian = true
	algs := ApplicableJoins(nil, remote.EnginePresto, cart, ms)
	if len(algs) != 1 || algs[0] != remote.PrestoCrossJoin {
		t.Errorf("cartesian applicable = %v", algs)
	}
	small := spec
	small.Right = plan.TableSide{Rows: 1e4, RowSize: 100, ProjectedSize: 28, KeyNDV: 1e4}
	algs = ApplicableJoins(nil, remote.EnginePresto, small, ms)
	if len(algs) != 2 {
		t.Errorf("small-side applicable = %v, want replicated+partitioned", algs)
	}
}

func TestSortOnlyCost(t *testing.T) {
	_, ms, _ := trainHive(t)
	small := ms.SortOnlyCost(1e4, 100)
	big := ms.SortOnlyCost(1e7, 100)
	if small <= 0 || big <= small {
		t.Errorf("sort costs: small %v, big %v", small, big)
	}
	// Degenerate inputs floor at the clamp.
	if got := ms.SortOnlyCost(0, 0); got <= 0 {
		t.Errorf("degenerate sort cost = %v", got)
	}
}

func TestSparkFormulaVariants(t *testing.T) {
	// Every Spark algorithm has a formula that evaluates positively and the
	// spark-specific ones differ from one another on an asymmetric join.
	_, ms, _ := trainHive(t)
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 8e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 8e6},
		Right:      plan.TableSide{Rows: 1e6, RowSize: 100, ProjectedSize: 28, KeyNDV: 1e6},
		OutputRows: 1e6,
	}
	costs := map[remote.JoinAlgorithm]float64{}
	for _, alg := range []remote.JoinAlgorithm{
		remote.SparkBroadcastHashJoin, remote.SparkShuffleHashJoin, remote.SparkSortMergeJoin,
		remote.SparkBroadcastNLJoin, remote.SparkCartesianJoin,
	} {
		c, err := ms.JoinCost(spec, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if c <= 0 {
			t.Errorf("%v cost = %v", alg, c)
		}
		costs[alg] = c
	}
	if costs[remote.SparkBroadcastNLJoin] <= costs[remote.SparkBroadcastHashJoin] {
		t.Error("nested-loop scan of the build side should dwarf the hash probe")
	}
	// Presto formulas evaluate too.
	for _, alg := range []remote.JoinAlgorithm{remote.PrestoPartitionedJoin, remote.PrestoReplicatedJoin, remote.PrestoCrossJoin} {
		c, err := ms.JoinCost(spec, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if c <= 0 {
			t.Errorf("%v cost = %v", alg, c)
		}
	}
	// Hive bucketed variants as well.
	bucketed := spec
	bucketed.Left.PartitionedOn, bucketed.Left.SortedOn = true, true
	bucketed.Right.PartitionedOn, bucketed.Right.SortedOn = true, true
	for _, alg := range []remote.JoinAlgorithm{remote.HiveBucketMapJoin, remote.HiveSortMergeBucketJoin, remote.HiveSkewJoin} {
		c, err := ms.JoinCost(bucketed, alg)
		if err != nil || c <= 0 {
			t.Errorf("%v: cost %v err %v", alg, c, err)
		}
	}
}

func TestClampFloorsEstimates(t *testing.T) {
	_, ms, _ := trainHive(t)
	floor := ms.BaselineSec
	if floor <= 0 {
		t.Fatalf("baseline = %v", floor)
	}
	// A microscopic join cannot cost less than the learned fixed latency.
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 2, RowSize: 40, ProjectedSize: 4, KeyNDV: 2},
		Right:      plan.TableSide{Rows: 1, RowSize: 40, ProjectedSize: 4, KeyNDV: 1},
		OutputRows: 1,
	}
	c, err := ms.JoinCost(spec, remote.HiveShuffleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if c < floor {
		t.Errorf("clamped cost %v below baseline %v", c, floor)
	}
}

// TestLinesJSONMatchesMap: a model set's lines encode to the bytes a map from
// sub-operator to line encodes to — full and partial sets, indented or not —
// and decode back to the same lines, so saved profiles keep their bytes.
func TestLinesJSONMatchesMap(t *testing.T) {
	_, trained, _ := trainHive(t)
	partial := &ModelSet{Cluster: cluster.DefaultHive()}
	for _, op := range []remote.SubOp{remote.RecMerge, remote.ReadDFS, remote.Sort, remote.HashProbe} {
		line, _ := trained.Lines.Get(op)
		partial.Lines.Set(op, line)
	}
	for _, ms := range []*ModelSet{trained, partial} {
		asMap := map[remote.SubOp]stats.Line{}
		for _, op := range remote.AllSubOps() {
			if line, ok := ms.Lines.Get(op); ok {
				asMap[op] = line
			}
		}
		for _, indent := range []string{"", "  "} {
			got, err := json.MarshalIndent(ms, "", indent)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(struct {
				Lines       map[remote.SubOp]stats.Line `json:"lines"`
				HashSpill   stats.Line                  `json:"hash_spill"`
				BaselineSec float64                     `json:"baseline_sec"`
				Cluster     cluster.Config              `json:"cluster"`
			}{asMap, ms.HashSpill, ms.BaselineSec, ms.Cluster}, "", indent)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("lines encode as\n%s\nwant\n%s", got, want)
			}
			var back ModelSet
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if back.Lines != ms.Lines {
				t.Errorf("decoded lines %+v, want %+v", back.Lines, ms.Lines)
			}
		}
	}
	for _, bad := range []string{`{"11":{}}`, `{"-1":{}}`, `{"x":{}}`, `[]`} {
		var l Lines
		if err := json.Unmarshal([]byte(bad), &l); err == nil {
			t.Errorf("lines %s decoded without an error", bad)
		}
	}
	var l Lines
	if err := json.Unmarshal([]byte(`null`), &l); err != nil || l.Len() != 0 {
		t.Errorf("null lines: %v, %d modeled", err, l.Len())
	}
}
