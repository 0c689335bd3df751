package logicalop

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"intellisphere/internal/core"
	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
	"intellisphere/internal/stats"
)

// synth2D builds a smooth 2-dimensional synthetic cost surface on
// x0 ∈ [1,8] (millions of rows) × x1 ∈ [40,1000] (record size):
// cost = 2 + 0.9·x0·(0.004·x1 + 0.6), which is linear in each dimension but
// has an interaction term only the NN captures exactly.
func synthCost(rows, size float64) float64 {
	return 2 + 0.9*rows*(0.004*size+0.6)
}

func synthTraining() (x [][]float64, y []float64) {
	for rows := 1.0; rows <= 8; rows++ {
		for _, size := range []float64{40, 100, 250, 500, 750, 1000} {
			x = append(x, []float64{rows, size})
			y = append(y, synthCost(rows, size))
		}
	}
	return x, y
}

func fastCfg(seed int64) Config {
	cfg := DefaultConfig(2, seed)
	cfg.NN.Train.Iterations = 800
	cfg.NN.Train.BatchSize = 16
	return cfg
}

func trainSynth(t *testing.T) *Model {
	t.Helper()
	x, y := synthTraining()
	m, _, err := Train("join", []string{"rows", "size"}, x, y, fastCfg(5))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train("j", []string{"a"}, nil, nil, Config{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, _, err := Train("j", nil, [][]float64{{1}}, []float64{1}, Config{}); err == nil {
		t.Error("missing dim names accepted")
	}
	if _, _, err := Train("j", []string{"a", "b"}, [][]float64{{1}}, []float64{1}, Config{}); err == nil {
		t.Error("row width mismatch accepted")
	}
	cfg := Config{NN: nn.RegressorConfig{Network: nn.Config{InputDim: 3}}}
	if _, _, err := Train("j", []string{"a"}, [][]float64{{1}}, []float64{1}, cfg); err == nil {
		t.Error("config dim mismatch accepted")
	}
}

func TestTrainAndEstimateInRange(t *testing.T) {
	m := trainSynth(t)
	if m.kind != "join" {
		t.Errorf("kind = %q", m.kind)
	}
	if len(m.trainX) != 48 {
		t.Errorf("training size = %d, want 48", len(m.trainX))
	}
	// In-range estimate: no remedy, decent accuracy.
	est, err := m.Estimate([]float64{4, 250})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if est.OutOfRange {
		t.Error("in-range input flagged out of range")
	}
	want := synthCost(4, 250)
	if math.Abs(est.Seconds-want) > 0.25*want {
		t.Errorf("estimate = %v, want ≈%v", est.Seconds, want)
	}
	if est.Seconds != est.NNSeconds || est.RegSeconds != 0 {
		t.Error("in-range estimate must be pure NN")
	}
}

func TestEstimateDimMismatch(t *testing.T) {
	m := trainSynth(t)
	if _, err := m.Estimate([]float64{1}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestEstimateOutOfRangeTriggersRemedy(t *testing.T) {
	m := trainSynth(t)
	// rows = 20 is way beyond the trained [1,8] (step 1, β = 2 → limit 10).
	est, err := m.Estimate([]float64{20, 250})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !est.OutOfRange {
		t.Fatal("out-of-range input not detected")
	}
	if len(est.PivotDims) != 1 || est.PivotDims[0] != 0 {
		t.Errorf("pivot dims = %v, want [0]", est.PivotDims)
	}
	if est.RegSeconds <= 0 {
		t.Error("remedy regression produced no estimate")
	}
	// The combination must sit between (or at) the two components.
	lo := math.Min(est.NNSeconds, est.RegSeconds)
	hi := math.Max(est.NNSeconds, est.RegSeconds)
	if est.Seconds < lo-1e-9 || est.Seconds > hi+1e-9 {
		t.Errorf("combined %v outside [%v, %v]", est.Seconds, lo, hi)
	}
	// The remedy must beat the raw NN for far extrapolation on this linear
	// surface: regression component should be closer to the truth.
	truth := synthCost(20, 250)
	if math.Abs(est.RegSeconds-truth) > math.Abs(est.NNSeconds-truth) {
		t.Logf("note: NN (%v) beat regression (%v) vs truth %v", est.NNSeconds, est.RegSeconds, truth)
	}
	if math.Abs(est.RegSeconds-truth) > 0.35*truth {
		t.Errorf("remedy regression %v too far from truth %v", est.RegSeconds, truth)
	}
}

func TestEstimateTwoPivots(t *testing.T) {
	m := trainSynth(t)
	est, err := m.Estimate([]float64{20, 5000})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !est.OutOfRange || len(est.PivotDims) != 2 {
		t.Errorf("two-pivot detection failed: %+v", est)
	}
}

func TestAlphaLifecycle(t *testing.T) {
	m := trainSynth(t)
	if m.Alpha() != 0.5 {
		t.Errorf("initial α = %v, want 0.5", m.Alpha())
	}
	m.SetAlpha(0.7)
	if m.Alpha() != 0.7 {
		t.Errorf("α = %v after SetAlpha(0.7)", m.Alpha())
	}
	m.SetAlpha(2)
	if m.Alpha() != 0.95 {
		t.Errorf("α = %v, want clamp at 0.95", m.Alpha())
	}
	m.SetAlpha(-1)
	if m.Alpha() != 0.05 {
		t.Errorf("α = %v, want clamp at 0.05", m.Alpha())
	}
}

func TestRefitAlphaClosedForm(t *testing.T) {
	// Records whose actual cost is exactly 0.3·NN + 0.7·regression: the
	// closed-form least-squares α is 0.3, and one refit lands on it.
	m := trainSynth(t)
	for i := 0; i < 8; i++ {
		a := 10.0 + float64(i)
		m.Observe([]float64{20, 250}, 0.3*2*a+0.7*a/2, 2*a, a/2)
	}
	a, n := m.RefitAlpha()
	if n != 8 {
		t.Fatalf("used %d records, want 8", n)
	}
	if math.Abs(a-0.3) > 1e-12 {
		t.Errorf("α = %v, want the closed form 0.3", a)
	}
	// The regression component exactly right and the NN 2× off: the fit is
	// α = 0, clamped to 0.05.
	m2 := trainSynth(t)
	for i := 0; i < 4; i++ {
		actual := 10.0 + float64(i)
		m2.Observe([]float64{20, 250}, actual, 2*actual, actual)
	}
	if a2, _ := m2.RefitAlpha(); a2 != 0.05 {
		t.Errorf("α = %v, want the fit 0 clamped to 0.05", a2)
	}
	// The reverse: NN perfect, so the fit is α = 1, clamped to 0.95.
	m3 := trainSynth(t)
	for i := 0; i < 4; i++ {
		actual := 10.0 + float64(i)
		m3.Observe([]float64{20, 250}, actual, actual, actual/2)
	}
	if a3, _ := m3.RefitAlpha(); a3 != 0.95 {
		t.Errorf("α = %v, want the fit 1 clamped to 0.95", a3)
	}
}

func TestRefitAlphaNoRemedyRecords(t *testing.T) {
	m := trainSynth(t)
	m.Observe([]float64{4, 250}, 5, 0, 0) // in-range record
	a, n := m.RefitAlpha()
	if n != 0 || a != 0.5 {
		t.Errorf("α = %v with %d records, want unchanged 0.5 with 0", a, n)
	}
}

// TestExecutionLogIsBounded: only OfflineTune empties the log, and a server
// with the tuner off never calls it. Past the bound the oldest records go —
// through Observe and through SeedLog alike — and the newest stay, in order.
func TestExecutionLogIsBounded(t *testing.T) {
	m := trainSynth(t)
	for i := 0; i < 3*maxLogRecords; i++ {
		m.Observe([]float64{4, 250}, float64(i), 0, 0)
	}
	newest := func(m *Model) {
		t.Helper()
		recs := m.LogRecords()
		if m.PendingLog() != maxLogRecords || len(recs) != maxLogRecords {
			t.Fatalf("pending log = %d (%d records), want the bound %d", m.PendingLog(), len(recs), maxLogRecords)
		}
		for i, r := range recs {
			if want := float64(2*maxLogRecords + i); r.Actual != want {
				t.Fatalf("record %d is execution %v, want %v: the newest %d in order", i, r.Actual, want, maxLogRecords)
			}
		}
	}
	newest(m)
	seeded := trainSynth(t)
	seeded.Observe([]float64{4, 250}, -1, 0, 0)
	seeded.SeedLog(m.LogRecords())
	newest(seeded)
}

func TestOfflineTuneExpandsAndImproves(t *testing.T) {
	m := trainSynth(t)
	if _, err := m.OfflineTune(nn.TrainConfig{}); err == nil {
		t.Error("tune with empty log accepted")
	}
	// Log continuous out-of-range executions at rows = 9..12.
	for rows := 9.0; rows <= 12; rows++ {
		for _, size := range []float64{100, 500, 1000} {
			m.Observe([]float64{rows, size}, synthCost(rows, size), 1, 1)
		}
	}
	if m.PendingLog() != 12 {
		t.Fatalf("pending log = %d", m.PendingLog())
	}
	res, err := m.OfflineTune(nn.TrainConfig{Iterations: 600, LearningRate: 0.01, BatchSize: 16, Seed: 5})
	if err != nil {
		t.Fatalf("OfflineTune: %v", err)
	}
	if res.FinalRMSE <= 0 {
		t.Errorf("FinalRMSE = %v", res.FinalRMSE)
	}
	if m.PendingLog() != 0 {
		t.Error("log not cleared after tuning")
	}
	dims := m.Dimensions()
	if dims[0].Max != 12 {
		t.Errorf("rows range not expanded: %+v", dims[0])
	}
	// Previously out-of-range input is now in range and accurate.
	est, err := m.Estimate([]float64{11, 500})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if est.OutOfRange {
		t.Error("tuned range still flags 11 as out of range")
	}
	truth := synthCost(11, 500)
	if math.Abs(est.Seconds-truth) > 0.3*truth {
		t.Errorf("post-tune estimate %v vs truth %v", est.Seconds, truth)
	}
}

// TestOfflineTuneFailureChangesNothing: a tune that fails must leave the
// model exactly as it was — training set, dimension metadata, normalizer
// bounds, weights and the pending log — so a retry folds every logged
// execution in once, not twice.
func TestOfflineTuneFailureChangesNothing(t *testing.T) {
	good := nn.TrainConfig{Iterations: 50, BatchSize: 16, Seed: 5}
	negBatch := good
	negBatch.BatchSize = -1
	cases := []struct {
		name      string
		extra     []float64 // one more logged record, of this shape, when set
		failing   nn.TrainConfig
		retrySize int // training size after a retry with good; 0 = the retry fails too
	}{
		{"negative batch size", nil, negBatch, 52},
		// Observe refuses such a record; one seeded from another log reaches
		// Retrain, must come back as an error, and stays in the log for every
		// later attempt.
		{"wrong-width record", []float64{9, 100, 7}, good, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := trainSynth(t)
			// Out of the trained range on purpose: a half-applied tune would
			// widen the bounds.
			for _, size := range []float64{100, 250, 500, 1000} {
				m.Observe([]float64{9, size}, synthCost(9, size), 1, 1)
			}
			if c.extra != nil {
				m.SeedLog([]Record{{X: c.extra, Actual: 1, NNSec: 1, RegSec: 1}})
			}
			before, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			pending := m.PendingLog()
			if _, err := m.OfflineTune(c.failing); err == nil {
				t.Fatal("failing tune accepted")
			}
			after, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Error("failed tune changed the model")
			}
			if len(m.trainX) != 48 || m.PendingLog() != pending {
				t.Errorf("after the failure: training size %d, pending log %d; want 48, %d", len(m.trainX), m.PendingLog(), pending)
			}
			_, err = m.OfflineTune(good)
			if c.retrySize == 0 {
				if err == nil {
					t.Error("retry over the bad record accepted")
				}
				return
			}
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if len(m.trainX) != c.retrySize || m.PendingLog() != 0 {
				t.Errorf("after the retry: training size %d, pending log %d; want %d, 0", len(m.trainX), m.PendingLog(), c.retrySize)
			}
		})
	}
}

// A record that is not the model's width never reaches the log: it is
// dropped, the log and the model are as they were, and the tune that follows
// runs over the good records alone. (Accepted, it failed that tune and
// every later one until 4096 newer records had pushed it out.)
func TestObserveRejectsWrongWidth(t *testing.T) {
	m := trainSynth(t)
	m.Observe([]float64{9, 100}, synthCost(9, 100), 1, 1)
	before, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{9, 100, 7}, {9}, nil} {
		m.Observe(x, 1, 1, 1)
	}
	if m.PendingLog() != 1 {
		t.Fatalf("pending log %d, want 1", m.PendingLog())
	}
	if recs := m.LogRecords(); len(recs[0].X) != 2 {
		t.Errorf("logged record has width %d", len(recs[0].X))
	}
	if after, err := json.Marshal(m); err != nil || string(after) != string(before) {
		t.Errorf("refused observations changed the model (%v)", err)
	}
	if _, err := m.OfflineTune(nn.TrainConfig{Iterations: 50, BatchSize: 16, Seed: 5}); err != nil {
		t.Errorf("tune after refused observations: %v", err)
	}
}

func TestOfflineTuneDiscontinuousCreatesIsland(t *testing.T) {
	m := trainSynth(t)
	for _, size := range []float64{100, 500, 1000} {
		m.Observe([]float64{80, size}, synthCost(80, size), 1, 1)
	}
	if _, err := m.OfflineTune(nn.TrainConfig{Iterations: 200, BatchSize: 16, Seed: 1}); err != nil {
		t.Fatalf("OfflineTune: %v", err)
	}
	dims := m.Dimensions()
	if dims[0].Max != 8 {
		t.Errorf("main range expanded across a gap: %+v", dims[0])
	}
	if len(dims[0].Islands) != 1 {
		t.Fatalf("islands = %v, want one at 80", dims[0].Islands)
	}
	// The paper's point: a query between the range and the island (say 40)
	// still triggers the remedy, but one inside the island does not.
	est, _ := m.Estimate([]float64{40, 500})
	if !est.OutOfRange {
		t.Error("gap value should stay out of range")
	}
	est, _ = m.Estimate([]float64{80, 500})
	if est.OutOfRange {
		t.Error("island value should be in range")
	}
}

func TestRemedyImprovesOutOfRangeRMSE(t *testing.T) {
	// The headline Figure 14 behaviour in miniature: for far out-of-range
	// queries the α-combined estimate must beat the raw NN on RMSE%.
	m := trainSynth(t)
	var actual, nnOnly, combined []float64
	for _, rows := range []float64{16, 20, 24} {
		for _, size := range []float64{100, 250, 500, 1000} {
			est, err := m.Estimate([]float64{rows, size})
			if err != nil {
				t.Fatal(err)
			}
			if !est.OutOfRange {
				t.Fatalf("rows=%v should be out of range", rows)
			}
			actual = append(actual, synthCost(rows, size))
			nnOnly = append(nnOnly, est.NNSeconds)
			combined = append(combined, est.Seconds)
		}
	}
	nnErr, err := stats.RMSEPercent(nnOnly, actual)
	if err != nil {
		t.Fatal(err)
	}
	combErr, err := stats.RMSEPercent(combined, actual)
	if err != nil {
		t.Fatal(err)
	}
	if combErr >= nnErr {
		t.Errorf("remedy RMSE%% %.2f did not improve on raw NN %.2f", combErr, nnErr)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := trainSynth(t)
	m.SetAlpha(0.62)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.kind != "join" || back.Alpha() != 0.62 {
		t.Errorf("restored kind=%q α=%v", back.kind, back.Alpha())
	}
	in := []float64{4, 250}
	a, _ := m.Estimate(in)
	b, err := back.Estimate(in)
	if err != nil {
		t.Fatalf("restored Estimate: %v", err)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("restored model predicts %v, original %v", b.Seconds, a.Seconds)
	}
	// Remedy still works after restore (training set serialized too).
	oor, err := back.Estimate([]float64{20, 250})
	if err != nil || !oor.OutOfRange || oor.RegSeconds <= 0 {
		t.Errorf("restored remedy broken: %+v err=%v", oor, err)
	}
	// A snapshot written before β became a constant carries "beta"; it
	// still decodes, to the same model.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["beta"]; ok {
		t.Error(`snapshot still writes "beta"`)
	}
	fields["beta"] = json.RawMessage("2")
	old, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var fromOld Model
	if err := json.Unmarshal(old, &fromOld); err != nil {
		t.Fatalf("old-format snapshot: %v", err)
	}
	if c, err := fromOld.Estimate([]float64{20, 250}); err != nil || c.Seconds != oor.Seconds {
		t.Errorf("old-format snapshot estimates %+v (err %v), want %+v", c, err, oor)
	}
}

// TestRemedyNeighborsArePivotNearest: the remedy regresses over the training
// records nearest the query on the pivot dimension, not the ones nearest it
// on the in-range dimensions. Here the context-nearest records (rows 1–3 at
// the query's size) carry cost 5·rows and the pivot-nearest ones (rows 6–8 at
// other sizes) carry rows+10, so the two neighbourhoods extrapolate rows = 20
// to 100 and 30.
func TestRemedyNeighborsArePivotNearest(t *testing.T) {
	var x [][]float64
	var y []float64
	for _, rows := range []float64{1, 2, 3} {
		for _, size := range []float64{240, 250, 260} {
			x = append(x, []float64{rows, size})
			y = append(y, 5*rows)
		}
	}
	for _, rows := range []float64{6, 7, 8} {
		for _, size := range []float64{600, 800, 1000} {
			x = append(x, []float64{rows, size})
			y = append(y, rows+10)
		}
	}
	cfg := fastCfg(5)
	cfg.NeighborK = 9
	cfg.NN.Train.Iterations = 50
	m, _, err := Train("join", []string{"rows", "size"}, x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.Estimate([]float64{20, 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.PivotDims) != 1 || est.PivotDims[0] != 0 {
		t.Fatalf("pivot dims = %v, want [0]", est.PivotDims)
	}
	if math.Abs(est.RegSeconds-30) > 1e-6 {
		t.Errorf("remedy regression = %v, want 30 from the pivot-nearest rows 6–8 (100 is the context-nearest rows 1–3)", est.RegSeconds)
	}
}

func TestModelUnmarshalErrors(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{`), &m); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := json.Unmarshal([]byte(`{"kind":"j"}`), &m); err == nil {
		t.Error("missing regressor accepted")
	}
}

func TestEstimatorInterface(t *testing.T) {
	// Train tiny models on join-shaped and agg-shaped data.
	rng := rand.New(rand.NewSource(3))
	var jx [][]float64
	var jy []float64
	for i := 0; i < 120; i++ {
		spec := plan.JoinSpec{
			Left:       plan.TableSide{Rows: rng.Float64()*1e6 + 1e4, RowSize: 100 + rng.Float64()*900, ProjectedSize: 20},
			Right:      plan.TableSide{Rows: rng.Float64()*1e5 + 1e3, RowSize: 100 + rng.Float64()*900, ProjectedSize: 20},
			OutputRows: 1000,
		}
		jx = append(jx, spec.Dims())
		jy = append(jy, spec.Left.Rows*1e-5+spec.Right.Rows*1e-5+3)
	}
	cfg := DefaultConfig(7, 2)
	cfg.NN.Train.Iterations = 200
	jm, _, err := Train("join", plan.JoinDimNames(), jx, jy, cfg)
	if err != nil {
		t.Fatalf("join Train: %v", err)
	}
	est := &Estimator{Join: jm}
	if est.Approach() != "logical-op" {
		t.Errorf("Approach = %q", est.Approach())
	}
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 5e5, RowSize: 500, ProjectedSize: 20},
		Right:      plan.TableSide{Rows: 5e4, RowSize: 500, ProjectedSize: 20},
		OutputRows: 1000,
	}
	ce, err := est.EstimateJoin(spec)
	if err != nil {
		t.Fatalf("EstimateJoin: %v", err)
	}
	if ce.Seconds <= 0 || ce.Approach != "logical-op" {
		t.Errorf("estimate = %+v", ce)
	}
	if _, err := est.EstimateAgg(plan.AggSpec{InputRows: 1, InputRowSize: 1, OutputRows: 1, OutputRowSize: 1}); err == nil {
		t.Error("agg without model accepted")
	}
	if _, err := est.EstimateScan(plan.ScanSpec{InputRows: 1, InputRowSize: 1, Selectivity: 1, OutputRowSize: 1}); err == nil {
		t.Error("scan without model accepted")
	}
	if _, err := est.EstimateJoin(plan.JoinSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
	// Feedback wiring: observing adds to the log, with the remedy components
	// of the estimate passed in — only a logical-op one the remedy produced.
	remedy := core.Estimate{Approach: core.LogicalOp, OutOfRange: true, NNSeconds: 3, RegressionSeconds: 5}
	subOp := core.Estimate{Approach: core.SubOp, OutOfRange: true, NNSeconds: 3, RegressionSeconds: 5}
	inRange := ce
	inRange.OutOfRange = false
	est.ObserveJoin(spec, inRange, 12.5)
	est.ObserveJoin(spec, remedy, 12.5)
	est.ObserveJoin(spec, subOp, 12.5)
	recs := jm.LogRecords()
	if len(recs) != 3 {
		t.Fatalf("pending log = %d after three ObserveJoin calls", len(recs))
	}
	for i, want := range [][2]float64{{0, 0}, {3, 5}, {0, 0}} {
		if r := recs[i]; r.NNSec != want[0] || r.RegSec != want[1] || r.Actual != 12.5 {
			t.Errorf("record %d = %+v, want components %v", i, r, want)
		}
	}
	// Observing on nil models must not panic.
	est.ObserveAgg(plan.AggSpec{InputRows: 1, InputRowSize: 1, OutputRows: 1, OutputRowSize: 1}, core.Estimate{}, 1)
	est.ObserveScan(plan.ScanSpec{InputRows: 1, InputRowSize: 1, Selectivity: 1, OutputRowSize: 1}, core.Estimate{}, 1)
}

func TestScanDims(t *testing.T) {
	s := plan.ScanSpec{InputRows: 100, InputRowSize: 50, Selectivity: 0.5, OutputRowSize: 10}
	d := scanDims(s)
	want := []float64{100, 50, 50, 10}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("scanDims[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if len(ScanDimNames()) != len(d) {
		t.Error("ScanDimNames misaligned")
	}
}

func TestRemedyFallbackVolumeScaling(t *testing.T) {
	// Exercise remedyFallback directly: degenerate neighborhoods fail, and
	// valid ones scale the mean cost by pivot volume.
	if _, err := remedyFallback(nil, nil, nil); err == nil {
		t.Error("empty neighborhood accepted")
	}
	px := [][]float64{{1e6}, {2e6}, {3e6}}
	py := []float64{10, 20, 30}
	got, err := remedyFallback(px, py, []float64{4e6})
	if err != nil {
		t.Fatalf("remedyFallback: %v", err)
	}
	// mean y = 20, mean volume = 2e6, query volume 4e6 → scale 2 → 40.
	if math.Abs(got-40) > 1e-9 {
		t.Errorf("fallback = %v, want 40", got)
	}
	// Degenerate: zero costs.
	if _, err := remedyFallback(px, []float64{0, 0, 0}, []float64{1}); err == nil {
		t.Error("zero-cost neighborhood accepted")
	}
}

func TestSetNeighborKGuards(t *testing.T) {
	m := trainSynth(t)
	m.SetNeighborK(1) // ignored
	m.SetNeighborK(24)
	// Remedy still works with the larger neighborhood.
	est, err := m.Estimate([]float64{20, 250})
	if err != nil || !est.OutOfRange {
		t.Fatalf("est = %+v err = %v", est, err)
	}
}
