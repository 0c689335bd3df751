package logicalop

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

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
	if m.Kind() != "join" {
		t.Errorf("Kind = %q", m.Kind())
	}
	if m.TrainingSize() != 48 {
		t.Errorf("TrainingSize = %d, want 48", m.TrainingSize())
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
	m := trainSynth(t)
	// Construct remedy records where the regression component is exactly
	// right and the NN is 2× off: the fit drives α toward 0 (clamped to
	// 0.05), and with heavy evidence the damped update lands close to it.
	for i := 0; i < 64; i++ {
		actual := 10.0 + float64(i)
		m.Observe([]float64{20, 250}, actual, 2*actual, actual)
	}
	a, n := m.RefitAlpha()
	if n != 64 {
		t.Fatalf("used %d records, want 64", n)
	}
	// confidence = 64/80 = 0.8 → α = 0.5 + (0.05-0.5)·0.8 = 0.14.
	if a >= 0.2 || a <= 0.05 {
		t.Errorf("α = %v, want damped move toward 0.05", a)
	}
	// Repeated refits converge onto the clamp.
	for i := 0; i < 20; i++ {
		a, _ = m.RefitAlpha()
	}
	if a > 0.05+1e-9 {
		t.Errorf("α = %v after repeated refits, want convergence to the 0.05 clamp", a)
	}
	// Now the reverse: NN perfect → α rises.
	m2 := trainSynth(t)
	for i := 0; i < 64; i++ {
		actual := 10.0 + float64(i)
		m2.Observe([]float64{20, 250}, actual, actual, actual/2)
	}
	a2, _ := m2.RefitAlpha()
	if a2 <= 0.8 {
		t.Errorf("α = %v, want damped move toward 0.95", a2)
	}
	// Damping: a small batch moves α only part of the way.
	m3 := trainSynth(t)
	for i := 0; i < 4; i++ {
		actual := 10.0 + float64(i)
		m3.Observe([]float64{20, 250}, actual, 2*actual, actual)
	}
	a3, _ := m3.RefitAlpha()
	if a3 < 0.3 || a3 >= 0.5 {
		t.Errorf("α = %v after 4 records, want a damped step below 0.5", a3)
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
	res, err := m.OfflineTune(nn.TrainConfig{Iterations: 600, LearningRate: 0.01, BatchSize: 16, Optimizer: nn.Adam, Seed: 5})
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
	good := nn.TrainConfig{Iterations: 50, BatchSize: 16, Optimizer: nn.Adam, Seed: 5}
	negBatch := good
	negBatch.BatchSize = -1
	cases := []struct {
		name      string
		extra     []float64 // one more logged record, of this shape, when set
		failing   nn.TrainConfig
		retrySize int // TrainingSize after a retry with good; 0 = the retry fails too
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
			if m.TrainingSize() != 48 || m.PendingLog() != pending {
				t.Errorf("after the failure: training size %d, pending log %d; want 48, %d", m.TrainingSize(), m.PendingLog(), pending)
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
			if m.TrainingSize() != c.retrySize || m.PendingLog() != 0 {
				t.Errorf("after the retry: training size %d, pending log %d; want %d, 0", m.TrainingSize(), m.PendingLog(), c.retrySize)
			}
		})
	}
}

// A record that is not the model's width never reaches the log: it is dropped
// and counted, the log and the model are as they were, and the tune that
// follows runs over the good records alone. (Accepted, it failed that tune and
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
	if m.PendingLog() != 1 || m.Rejected() != 3 {
		t.Fatalf("pending log %d, rejected %d; want 1, 3", m.PendingLog(), m.Rejected())
	}
	if recs := m.LogRecords(); len(recs[0].X) != 2 {
		t.Errorf("logged record has width %d", len(recs[0].X))
	}
	if after, err := json.Marshal(m); err != nil || string(after) != string(before) {
		t.Errorf("refused observations changed the model (%v)", err)
	}
	if _, err := m.OfflineTune(nn.TrainConfig{Iterations: 50, BatchSize: 16, Optimizer: nn.Adam, Seed: 5}); err != nil {
		t.Errorf("tune after refused observations: %v", err)
	}
}

func TestOfflineTuneDiscontinuousCreatesIsland(t *testing.T) {
	m := trainSynth(t)
	for _, size := range []float64{100, 500, 1000} {
		m.Observe([]float64{80, size}, synthCost(80, size), 1, 1)
	}
	if _, err := m.OfflineTune(nn.TrainConfig{Iterations: 200, Optimizer: nn.Adam, BatchSize: 16, Seed: 1}); err != nil {
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
	if back.Kind() != "join" || back.Alpha() != 0.62 {
		t.Errorf("restored kind=%q α=%v", back.Kind(), back.Alpha())
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
	// Feedback wiring: observing adds to the log.
	est.ObserveJoin(spec, 12.5)
	if jm.PendingLog() != 1 {
		t.Errorf("pending log = %d after ObserveJoin", jm.PendingLog())
	}
	// Observing on nil models must not panic.
	est.ObserveAgg(plan.AggSpec{InputRows: 1, InputRowSize: 1, OutputRows: 1, OutputRowSize: 1}, 1)
	est.ObserveScan(plan.ScanSpec{InputRows: 1, InputRowSize: 1, Selectivity: 1, OutputRowSize: 1}, 1)
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
	// valid ones scale the mean cost by pivot volume with clamps.
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
	// Upward clamp at 50×.
	got, err = remedyFallback(px, py, []float64{1e12})
	if err != nil {
		t.Fatal(err)
	}
	if got != 20*50 {
		t.Errorf("clamped fallback = %v, want %v", got, 20*50.0)
	}
	// Downward clamp at 0.1×.
	got, err = remedyFallback(px, py, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 20*0.1 {
		t.Errorf("clamped fallback = %v, want %v", got, 2.0)
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
