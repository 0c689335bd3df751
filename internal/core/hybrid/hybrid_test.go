package hybrid

import (
	"encoding/json"
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
	if e.Queries() != 1 {
		t.Errorf("queries = %d", e.Queries())
	}
}

func TestEstimatorSwitchAfter(t *testing.T) {
	ms := trainSubOp(t)
	jm := trainLogicalJoin(t)
	p := &Profile{
		SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		SwitchAfter: 3, Policy: subop.InHouseComparable,
		SubOpModels: ms, LogicalJoin: jm,
	}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		est, err := e.EstimateJoin(joinSpec())
		if err != nil {
			t.Fatal(err)
		}
		if est.Approach != core.SubOp {
			t.Fatalf("query %d used %v before switchover", i, est.Approach)
		}
	}
	est, err := e.EstimateJoin(joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if est.Approach != core.LogicalOp {
		t.Errorf("post-switch approach = %v, want logical-op", est.Approach)
	}
	if e.Active() != core.LogicalOp {
		t.Error("profile not updated after switchover")
	}
}

func TestEstimatorInstallLogicalModels(t *testing.T) {
	ms := trainSubOp(t)
	p := &Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		SwitchAfter: 1, SubOpModels: ms}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	// Before logical models exist, the switchover cannot happen.
	for i := 0; i < 3; i++ {
		est, err := e.EstimateJoin(joinSpec())
		if err != nil {
			t.Fatal(err)
		}
		if est.Approach != core.SubOp {
			t.Fatal("switched to nonexistent logical models")
		}
	}
	e.InstallLogicalModels(trainLogicalJoin(t), nil, nil)
	est, err := e.EstimateJoin(joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if est.Approach != core.LogicalOp {
		t.Errorf("approach after install = %v", est.Approach)
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

func TestEstimatorSwitchErrors(t *testing.T) {
	ms := trainSubOp(t)
	p := &Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp, SubOpModels: ms}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Switch(core.LogicalOp); err == nil {
		t.Error("switch to missing logical models accepted")
	}
	if err := e.Switch(core.Approach("?")); err == nil {
		t.Error("switch to bogus approach accepted")
	}
	if err := e.Switch(core.SubOp); err != nil {
		t.Errorf("switch to present sub-op failed: %v", err)
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
	e.ObserveJoin(joinSpec(), 12)
	if jm.PendingLog() != 1 {
		t.Errorf("pending log = %d after ObserveJoin", jm.PendingLog())
	}
	// No logical models for agg/scan: must not panic.
	e.ObserveAgg(plan.AggSpec{InputRows: 1, InputRowSize: 1, OutputRows: 1, OutputRowSize: 1}, 1)
	e.ObserveScan(plan.ScanSpec{InputRows: 1, InputRowSize: 1, Selectivity: 1, OutputRowSize: 1}, 1)
}

func TestProfileJSONRoundTrip(t *testing.T) {
	ms := trainSubOp(t)
	jm := trainLogicalJoin(t)
	p := &Profile{
		SystemName: "hive-prod", Engine: remote.EngineHive, Active: core.SubOp,
		SwitchAfter: 100, Policy: subop.WorstCase,
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
	if back.SystemName != "hive-prod" || back.SwitchAfter != 100 || back.Policy != subop.WorstCase {
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

// TestOnChangeReportsEveryInPlaceChange pins the hook the engine hangs its
// plan-cache invalidation on: it runs once per successful Switch, per
// InstallLogicalModels and per SwitchAfter switchover — after the change is
// visible, without the estimator's lock — and not for estimates that change
// nothing or a Switch that is refused.
func TestOnChangeReportsEveryInPlaceChange(t *testing.T) {
	p := &Profile{SystemName: "c", Engine: remote.EngineHive, Active: core.SubOp,
		SwitchAfter: 2, Policy: subop.InHouseComparable, SubOpModels: trainSubOp(t)}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	var seen core.Approach
	e.OnChange(func() {
		changes++
		seen = e.Active() // deadlocks if the hook ran under e.mu
	})
	step := func(what string, want int) {
		t.Helper()
		if changes != want {
			t.Fatalf("after %s: %d changes reported, want %d", what, changes, want)
		}
	}
	if err := e.Switch(core.LogicalOp); err == nil {
		t.Fatal("switch to missing logical models accepted")
	}
	step("a refused Switch", 0)
	for i := 0; i < 4; i++ { // past SwitchAfter, but no logical models yet
		if _, err := e.EstimateJoin(joinSpec()); err != nil {
			t.Fatal(err)
		}
	}
	step("estimates that switched nothing", 0)
	e.InstallLogicalModels(trainLogicalJoin(t), nil, nil)
	step("InstallLogicalModels", 1)
	if _, err := e.EstimateJoin(joinSpec()); err != nil {
		t.Fatal(err)
	}
	step("the switchover", 2)
	if seen != core.LogicalOp {
		t.Errorf("hook ran before the switchover was visible: active = %v", seen)
	}
	if _, err := e.EstimateJoin(joinSpec()); err != nil {
		t.Fatal(err)
	}
	step("an estimate after the switchover", 2)
	if err := e.Switch(core.SubOp); err != nil {
		t.Fatal(err)
	}
	step("Switch", 3)
}
