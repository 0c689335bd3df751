package hybrid

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

func trainSubOp(t *testing.T) *subop.ModelSet {
	t.Helper()
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := subop.Train(h, subop.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func trainLogicalJoin(t *testing.T) *logicalop.Model {
	t.Helper()
	var x [][]float64
	var y []float64
	for rows := 1.0; rows <= 8; rows++ {
		for _, size := range []float64{40, 250, 1000} {
			spec := plan.JoinSpec{
				Left:       plan.TableSide{Rows: rows * 1e6, RowSize: size, ProjectedSize: 20},
				Right:      plan.TableSide{Rows: rows * 1e5, RowSize: size, ProjectedSize: 20},
				OutputRows: rows * 1e5,
			}
			x = append(x, spec.Dims())
			y = append(y, 3+rows*(0.002*size+1))
		}
	}
	cfg := logicalop.DefaultConfig(7, 4)
	cfg.NN.Train.Iterations = 300
	m, _, err := logicalop.Train("join", plan.JoinDimNames(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func joinSpec() plan.JoinSpec {
	return plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 20, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 4e5, RowSize: 250, ProjectedSize: 20, KeyNDV: 4e5},
		OutputRows: 4e5,
	}
}

func TestProfileValidate(t *testing.T) {
	ms := trainSubOp(t)
	good := &Profile{SystemName: "hive", Active: core.SubOp, SubOpModels: ms}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []*Profile{
		{Active: core.SubOp, SubOpModels: ms},                                 // no name
		{SystemName: "x", Active: core.SubOp},                                 // no models
		{SystemName: "x", Active: core.LogicalOp},                             // no models
		{SystemName: "x", Active: core.Approach("?")},                         // bad approach
		{SystemName: "x", Active: core.SubOp, SubOpModels: &subop.ModelSet{}}, // invalid models
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestEstimatorRoutesSubOp(t *testing.T) {
	ms := trainSubOp(t)
	p := &Profile{SystemName: "hive", Engine: remote.EngineHive, Active: core.SubOp,
		Policy: subop.InHouseComparable, SubOpModels: ms}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	if e.Approach() != core.Hybrid || e.Active() != core.SubOp {
		t.Errorf("approach=%v active=%v", e.Approach(), e.Active())
	}
	est, err := e.EstimateJoin(joinSpec())
	if err != nil {
		t.Fatalf("EstimateJoin: %v", err)
	}
	if est.Approach != core.SubOp || est.Seconds <= 0 {
		t.Errorf("estimate = %+v", est)
	}
}

func TestEstimatorPerOperatorOverride(t *testing.T) {
	ms := trainSubOp(t)
	jm := trainLogicalJoin(t)
	p := &Profile{
		SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		PerOperator: map[string]core.Approach{"join": core.LogicalOp},
		SubOpModels: ms, LogicalJoin: jm,
	}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.EstimateJoin(joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if est.Approach != core.LogicalOp {
		t.Errorf("join approach = %v, want per-operator logical-op", est.Approach)
	}
	// Aggregations still go to the active sub-op approach.
	agg, err := e.EstimateAgg(plan.AggSpec{InputRows: 1e6, InputRowSize: 100, OutputRows: 1e4, OutputRowSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Approach != core.SubOp {
		t.Errorf("agg approach = %v, want sub-op", agg.Approach)
	}
	scan, err := e.EstimateScan(plan.ScanSpec{InputRows: 1e6, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Approach != core.SubOp {
		t.Errorf("scan approach = %v", scan.Approach)
	}
}

func TestEstimatorFeedbackRouting(t *testing.T) {
	ms := trainSubOp(t)
	jm := trainLogicalJoin(t)
	p := &Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.LogicalOp,
		SubOpModels: ms, LogicalJoin: jm}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	remedy := core.Estimate{Approach: core.LogicalOp, OutOfRange: true, NNSeconds: 3, RegressionSeconds: 5}
	e.ObserveJoin(joinSpec(), remedy, 12)
	if recs := jm.LogRecords(); len(recs) != 1 || recs[0].NNSec != 3 || recs[0].RegSec != 5 {
		t.Errorf("log after ObserveJoin = %+v, want one record carrying the estimate's components", recs)
	}
	// No logical models for agg/scan: must not panic.
	e.ObserveAgg(plan.AggSpec{InputRows: 1, InputRowSize: 1, OutputRows: 1, OutputRowSize: 1}, core.Estimate{}, 1)
	e.ObserveScan(plan.ScanSpec{InputRows: 1, InputRowSize: 1, Selectivity: 1, OutputRowSize: 1}, core.Estimate{}, 1)
}

// TestObserveBesideEstimates: the engine plans on one goroutine while
// another logs the steps it executed, both through the same registered
// estimator, which takes no lock of its own. Under -race this fails if the
// estimator's routing state is written after NewEstimator; without -race it
// checks no observation is lost and every estimate keeps its route.
func TestObserveBesideEstimates(t *testing.T) {
	jm := trainLogicalJoin(t)
	e, err := NewEstimator(&Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		PerOperator: map[string]core.Approach{"join": core.LogicalOp},
		SubOpModels: trainSubOp(t), LogicalJoin: jm})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if est, err := e.EstimateJoin(joinSpec()); err != nil || est.Approach != core.LogicalOp {
				t.Errorf("estimate %d: %+v, %v", i, est, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		e.ObserveJoin(joinSpec(), core.Estimate{}, 12)
	}
	wg.Wait()
	if got := jm.PendingLog(); got != n {
		t.Errorf("pending log = %d after %d observations", got, n)
	}
}

// TestDroppedProfileFieldsLoad: profiles persisted before the in-place
// switchover was removed carry its threshold. They must still load, and the
// estimator built from one must keep the approach the profile names however
// many estimates it serves.
func TestDroppedProfileFieldsLoad(t *testing.T) {
	data, err := json.Marshal(&Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		Policy: subop.InHouseComparable, SubOpModels: trainSubOp(t), LogicalJoin: trainLogicalJoin(t)})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	dropped, err := os.ReadFile("testdata/dropped_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dropped, &fields); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var old Profile
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatalf("a profile with a dropped field no longer loads: %v", err)
	}
	e, err := NewEstimator(&old)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		est, err := e.EstimateJoin(joinSpec())
		if err != nil {
			t.Fatal(err)
		}
		if est.Approach != core.SubOp || e.Active() != core.SubOp {
			t.Fatalf("estimate %d: priced by %v, active %v; the profile says sub-op", i, est.Approach, e.Active())
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	ms := trainSubOp(t)
	jm := trainLogicalJoin(t)
	p := &Profile{
		SystemName: "hive-prod", Engine: remote.EngineHive, Active: core.SubOp,
		Policy:      subop.WorstCase,
		PerOperator: map[string]core.Approach{"scan": core.SubOp},
		SubOpModels: ms, LogicalJoin: jm,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.SystemName != "hive-prod" || back.Policy != subop.WorstCase {
		t.Errorf("restored profile = %+v", back)
	}
	// Restored profile must produce identical estimates.
	e1, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEstimator(&back)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := e1.EstimateJoin(joinSpec())
	b, err := e2.EstimateJoin(joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("restored profile predicts %v, original %v", b.Seconds, a.Seconds)
	}
}

func TestProfileUnmarshalInvalid(t *testing.T) {
	var p Profile
	if err := json.Unmarshal([]byte(`{"system_name":"x","active":"sub-op"}`), &p); err == nil {
		t.Error("invalid profile deserialized without error")
	}
	if err := json.Unmarshal([]byte(`{`), &p); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestRouteErrorsWithoutModels(t *testing.T) {
	ms := trainSubOp(t)
	p := &Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		PerOperator: map[string]core.Approach{"join": core.LogicalOp},
		SubOpModels: ms}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EstimateJoin(joinSpec()); err == nil {
		t.Error("route to missing logical models accepted")
	}
}
