package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/faults"
	"intellisphere/internal/metrics"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/remote"
)

// driftSQL runs one aggregation on the tune rig's big table; every execution
// logs one (features, actual) record into the logical aggregation model.
const driftSQL = "SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"

// newTuneRig builds an engine with one blackbox remote ("hivebb") behind a
// fault injector and logical-op models trained small — the smallest
// federation whose cost models the candidate tuner can retrain.
func newTuneRig(t *testing.T) (*Engine, *hybrid.Estimator, *faults.Injector) {
	t.Helper()
	e := newEngine(t)
	bb, err := remote.NewHive("hivebb", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.Wrap(bb, faults.Config{Seed: 11})
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
	est, _, err := e.RegisterRemoteLogicalOp(inj, remote.EngineHive, LogicalTrainOptions{JoinPairs: 4, Agg: cfg, Join: jcfg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e, est, inj
}

// fastTune is the bounded retraining pass the rig's tests share.
func fastTune() TuneOptions {
	return TuneOptions{
		Holdout: 2,
		MinLog:  4,
		Train:   nn.TrainConfig{Iterations: 300, BatchSize: 32, Seed: 3},
	}
}

// driftRig slows every hivebb call 20x and executes driftSQL n times, so the
// aggregation model's log fills with actuals far above its estimates and the
// accuracy window flags drift.
func driftRig(t *testing.T, e *Engine, inj *faults.Injector, n int) {
	t.Helper()
	inj.SetRates(faults.Rates{Latency: 1, LatencyFactor: 20})
	for i := 0; i < n; i++ {
		if _, err := e.Query(driftSQL); err != nil {
			t.Fatalf("drift query %d: %v", i, err)
		}
	}
}

func TestTuneCandidatePromotion(t *testing.T) {
	e, est, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	acc := accuracyOf(e, "hivebb", "aggregation")
	if !acc.Drifting || acc.MeanQError < metrics.DefaultDriftQError {
		t.Fatalf("rig not drifting before tune: %+v", acc)
	}
	staleBefore := e.PlanCacheStats().Stale

	out, err := e.TuneCandidate(context.Background(), "hivebb", fastTune())
	if err != nil {
		t.Fatalf("TuneCandidate: %v", err)
	}
	if !out.Promoted || out.Reason != "improved" {
		t.Fatalf("candidate not promoted: %+v", out)
	}
	if len(out.Tuned) != 1 || out.Tuned[0] != "aggregation" {
		t.Fatalf("Tuned = %v, want [aggregation]", out.Tuned)
	}
	if out.Holdout.Samples != 2 || out.Holdout.CandidateQ >= out.Holdout.LiveQ {
		t.Fatalf("holdout = %+v, want 2 improved samples", out.Holdout)
	}
	if out.Version == nil || out.Version.Origin != modelver.OriginTuned || !out.Version.Live {
		t.Fatalf("promotion version = %+v", out.Version)
	}

	// The promoted estimator replaced the trained one in the registry.
	cur, err := e.Estimator("hivebb")
	if err != nil {
		t.Fatal(err)
	}
	if cur == est {
		t.Error("promotion left the old estimator serving")
	}

	// Promotion bumps the registry generation: the cached plan for driftSQL
	// was costed against the replaced model and must not be served again.
	if _, err := e.Explain(driftSQL); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Stale != staleBefore+1 {
		t.Errorf("plan cache stale = %d, want %d (stale plan served?)", s.Stale, staleBefore+1)
	}

	// The accuracy window scored the replaced model; promotion resets it so
	// the drift flag does not latch against the new one.
	acc = accuracyOf(e, "hivebb", "aggregation")
	if acc.Drifting || acc.Window != 0 {
		t.Errorf("drift flag latched after promotion: %+v", acc)
	}

	// Version history: the pre-tune baseline plus the promoted candidate.
	vs := e.ModelVersions("hivebb")
	if len(vs) != 2 {
		t.Fatalf("versions = %d, want 2 (baseline + tuned)", len(vs))
	}
	if vs[0].Origin != modelver.OriginInitial || vs[0].Live {
		t.Errorf("baseline version = %+v", vs[0])
	}
	if vs[1].Origin != modelver.OriginTuned || !vs[1].Live || vs[1].Holdout == nil {
		t.Errorf("tuned version = %+v", vs[1])
	}
	if ts := e.Stats().Tuning; ts.Attempts != 1 || ts.Promotions != 1 || ts.Rejections != 0 {
		t.Errorf("tuning stats = %+v", ts)
	}
}

// TestTuneCandidateRejectsMinGainOutOfRange: a MinGain below 0 would promote
// a candidate worse than the live model as "improved" (up to twice as bad at
// -1). TuneCandidate refuses one outside [0, 1] before it trains anything,
// and the live model and its versions stay as they were.
func TestTuneCandidateRejectsMinGainOutOfRange(t *testing.T) {
	e, est, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)
	before, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	versions := len(e.ModelVersions("hivebb"))
	for _, gain := range []float64{-0.5, 1.5, math.NaN()} {
		opts := fastTune()
		opts.MinGain = gain
		if out, err := e.TuneCandidate(context.Background(), "hivebb", opts); err == nil {
			t.Errorf("MinGain %v accepted: %+v", gain, out)
		}
	}
	if cur, err := e.Estimator("hivebb"); err != nil || cur != est {
		t.Fatalf("live estimator replaced (err %v)", err)
	}
	after, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused tune changed the live model")
	}
	if n := len(e.ModelVersions("hivebb")); n != versions {
		t.Errorf("versions %d -> %d after refused tunes", versions, n)
	}
	if ts := e.Stats().Tuning; ts.Attempts != 0 || ts.Promotions != 0 {
		t.Errorf("tuning stats = %+v, want no attempt", ts)
	}
}

func TestTuneCandidateRejectionLeavesLiveUntouched(t *testing.T) {
	e, est, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	before, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastTune()
	opts.MinGain = 1 // candidate < live·0 is impossible: promotion must not happen
	out, err := e.TuneCandidate(context.Background(), "hivebb", opts)
	if err != nil {
		t.Fatalf("TuneCandidate: %v", err)
	}
	if out.Promoted || out.Reason != "no-improvement" {
		t.Fatalf("rejection outcome = %+v", out)
	}
	if out.Holdout.Samples == 0 {
		t.Fatal("rejection skipped shadow scoring")
	}
	after, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("rejected candidate mutated the live model weights")
	}
	if cur, _ := e.Estimator("hivebb"); cur != est {
		t.Error("rejected candidate swapped the registry entry")
	}
	if vs := e.ModelVersions("hivebb"); len(vs) != 0 {
		t.Errorf("rejection archived versions: %+v", vs)
	}
	if ts := e.Stats().Tuning; ts.Attempts != 1 || ts.Rejections != 1 || ts.Promotions != 0 {
		t.Errorf("tuning stats = %+v", ts)
	}
}

// A tune asked for without a training config (POST /models with no
// train_iterations) retrains with DefaultTuneTrain. The profile clone carries
// no training config of its own, so the model's restored default (1500
// full-batch epochs) would otherwise have run.
func TestTuneCandidateZeroTrainUsesDefault(t *testing.T) {
	candidateQ := func(train nn.TrainConfig) float64 {
		e, _, inj := newTuneRig(t)
		driftRig(t, e, inj, 8)
		opts := fastTune()
		opts.Train = train
		out, err := e.TuneCandidate(context.Background(), "hivebb", opts)
		if err != nil {
			t.Fatalf("TuneCandidate: %v", err)
		}
		if out.Holdout.Samples == 0 {
			t.Fatalf("no holdout scored: %+v", out)
		}
		return out.Holdout.CandidateQ
	}
	zero, explicit := candidateQ(nn.TrainConfig{}), candidateQ(DefaultTuneTrain)
	if zero != explicit {
		t.Errorf("candidate q-error %v with a zero Train, %v with DefaultTuneTrain; want the same run", zero, explicit)
	}
}

func TestRollbackModelRestoresBytes(t *testing.T) {
	e, est, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	baseline, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastTune()
	opts.Force = true
	out, err := e.TuneCandidate(context.Background(), "hivebb", opts)
	if err != nil || !out.Promoted {
		t.Fatalf("forced tune: %+v, %v", out, err)
	}
	promoted, err := profileJSON(mustHybrid(t, e, "hivebb"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(promoted, baseline) {
		t.Fatal("promotion did not change the serving model")
	}

	staleBefore := e.PlanCacheStats().Stale
	if _, err := e.Explain(driftSQL); err != nil { // warm the cache on the promoted model
		t.Fatal(err)
	}
	restored, err := e.RollbackModel("hivebb")
	if err != nil {
		t.Fatalf("RollbackModel: %v", err)
	}
	if restored.Origin != modelver.OriginInitial || !restored.Live {
		t.Fatalf("restored version = %+v", restored)
	}
	got, err := profileJSON(mustHybrid(t, e, "hivebb"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline) {
		t.Error("rollback did not restore the prior model byte-identically")
	}
	// Rollback is a model change like any promotion: generation bump (the
	// plan cached against the promoted model goes stale) and window reset.
	if _, err := e.Explain(driftSQL); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Stale != staleBefore+2 {
		t.Errorf("plan cache stale = %d, want %d", s.Stale, staleBefore+2)
	}
	if acc := accuracyOf(e, "hivebb", "aggregation"); acc.Window != 0 {
		t.Errorf("accuracy window not reset by rollback: %+v", acc)
	}
	vs := e.ModelVersions("hivebb")
	if len(vs) != 2 || !vs[0].Live || vs[1].Live {
		t.Fatalf("live flag after rollback: %+v", vs)
	}
	if ts := e.Stats().Tuning; ts.Rollbacks != 1 {
		t.Errorf("tuning stats = %+v", ts)
	}
	// History is exhausted: nothing older than the restored baseline.
	if _, err := e.RollbackModel("hivebb"); err == nil {
		t.Error("rollback past the oldest version accepted")
	}
}

// TestModelSwapAfterInPlaceChangeInvalidates began as the regression test for
// the plan-cache stamp that summed per-estimator counters: an estimator that
// had changed in place exactly once took its 1 out of the sum when a
// promotion or a rollback replaced it, the registry's +1 put it back, and the
// plan priced by the replaced model kept being served. Estimators no longer
// change in place; what stays is that each swap — the promotion, then the
// rollback — moves exactly the one cached plan and serves the new model's.
func TestModelSwapAfterInPlaceChangeInvalidates(t *testing.T) {
	e, _, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)
	explain := func() string {
		t.Helper()
		out, err := e.Explain(driftSQL)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	initial := explain()
	stale := e.PlanCacheStats().Stale

	out, err := e.TuneCandidate(context.Background(), "hivebb", fastTune())
	if err != nil || !out.Promoted {
		t.Fatalf("TuneCandidate: %+v, %v", out, err)
	}
	promoted := explain()
	if s := e.PlanCacheStats(); s.Stale != stale+1 {
		t.Errorf("promotion: stale = %d, want %d", s.Stale, stale+1)
	}
	if promoted == initial {
		t.Error("promotion: the replaced model's plan is still served")
	}

	stale = e.PlanCacheStats().Stale
	if _, err := e.RollbackModel("hivebb"); err != nil {
		t.Fatalf("RollbackModel: %v", err)
	}
	restored := explain()
	if s := e.PlanCacheStats(); s.Stale != stale+1 {
		t.Errorf("rollback: stale = %d, want %d", s.Stale, stale+1)
	}
	if restored != initial {
		t.Errorf("rollback restored the model byte-identically but not its plan:\n%s\nwant:\n%s", restored, initial)
	}
}

// TestModelChangeResetsOnlyItsSystem: a promotion or a rollback of hivebb's
// model empties hivebb's accuracy windows and leaves the master's — here the
// ORDER BY sort, which runs on the master — with their fill.
func TestModelChangeResetsOnlyItsSystem(t *testing.T) {
	e, _, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)
	if _, err := e.Query(driftSQL + " ORDER BY a10"); err != nil {
		t.Fatal(err)
	}
	masterFill := map[string]int{}
	for _, s := range e.AccuracyStats() {
		if s.System == "teradata" {
			masterFill[s.Operator] = s.Window
		}
	}
	if masterFill["sort"] == 0 {
		t.Fatalf("no filled master sort window: %+v", e.AccuracyStats())
	}
	check := func(after string) {
		t.Helper()
		for _, s := range e.AccuracyStats() {
			switch s.System {
			case "hivebb":
				if s.Window != 0 {
					t.Errorf("after %s: hivebb/%s window holds %d samples, want 0", after, s.Operator, s.Window)
				}
			case "teradata":
				if s.Window != masterFill[s.Operator] {
					t.Errorf("after %s: teradata/%s window holds %d samples, want %d", after, s.Operator, s.Window, masterFill[s.Operator])
				}
			}
		}
	}

	opts := fastTune()
	opts.Force = true
	if out, err := e.TuneCandidate(context.Background(), "hivebb", opts); err != nil || !out.Promoted {
		t.Fatalf("forced tune: %+v, %v", out, err)
	}
	check("promotion")
	if _, err := e.RollbackModel("hivebb"); err != nil {
		t.Fatalf("RollbackModel: %v", err)
	}
	check("rollback")

	// Both swaps moved the estimator registry's generation, so the next step
	// rebuilds its step-table entry; the rebuilt entry keeps the window.
	if _, err := e.Query(driftSQL + " ORDER BY a10"); err != nil {
		t.Fatal(err)
	}
	if got := accuracyOf(e, "teradata", "sort"); got.Window != masterFill["sort"]+1 {
		t.Errorf("teradata/sort window after the rebuild holds %d samples, want %d", got.Window, masterFill["sort"]+1)
	}
}

func TestTuneCandidateValidation(t *testing.T) {
	e, _, _ := newTuneRig(t)

	// No executed queries: every model's log is short, nothing retrains.
	out, err := e.TuneCandidate(context.Background(), "hivebb", fastTune())
	if err != nil {
		t.Fatalf("TuneCandidate: %v", err)
	}
	if out.Promoted || out.Reason != "insufficient-log" || len(out.Tuned) != 0 {
		t.Fatalf("empty-log outcome = %+v", out)
	}
	if ts := e.Stats().Tuning; ts.Attempts != 1 || ts.Rejections != 0 || ts.Promotions != 0 {
		t.Errorf("tuning stats = %+v", ts)
	}
	if vs := e.ModelVersions("hivebb"); len(vs) != 0 {
		t.Errorf("no-op tune archived versions: %+v", vs)
	}
	// The master and unknown systems are not tunable.
	if _, err := e.TuneCandidate(context.Background(), "teradata", fastTune()); err == nil {
		t.Error("tuning the master accepted")
	}
	if _, err := e.TuneCandidate(context.Background(), "ghost", fastTune()); err == nil {
		t.Error("tuning an unknown system accepted")
	}
	if _, err := e.RollbackModel("ghost"); err == nil {
		t.Error("rolling back an unknown system accepted")
	}
	if _, err := e.RollbackModel("hivebb"); err == nil {
		t.Error("rolling back without history accepted")
	}
}

// TestRefusedTuneIsNoAttempt: a tune refused for its system (an unknown one,
// or the master) never started, so /models' tuning.attempts must not count it.
func TestRefusedTuneIsNoAttempt(t *testing.T) {
	e := newEngine(t)
	for _, system := range []string{"ghost", "teradata"} {
		if _, err := e.TuneCandidate(context.Background(), system, fastTune()); err == nil {
			t.Errorf("tuning %q accepted", system)
		}
	}
	if ts := e.Stats().Tuning; ts.Attempts != 0 {
		t.Errorf("tuning stats = %+v after two refused tunes, want no attempt", ts)
	}
}

// TestTunerBackgroundLoop drives the watch loop end to end: drifting windows
// debounce into a tune pass, the pass promotes, and the drift flag clears.
func TestTunerBackgroundLoop(t *testing.T) {
	e, _, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	opts := fastTune()
	opts.Force = true // pin loop mechanics, not the holdout verdict
	tuner := e.StartTuner(TunerConfig{Interval: 5 * time.Millisecond, Tune: opts})
	defer tuner.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Tuning.Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tuner never promoted: %+v", e.Stats().Tuning)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if acc := accuracyOf(e, "hivebb", "aggregation"); acc.Drifting {
		t.Errorf("drift flag still set after background promotion: %+v", acc)
	}
	if vs := e.ModelVersions("hivebb"); len(vs) < 2 {
		t.Errorf("background promotion archived %d versions, want >= 2", len(vs))
	}
}

// accuracyOf returns one (system, operator) pair's accuracy window, the zero
// value when the pair has not executed.
func accuracyOf(e *Engine, system, operator string) AccuracyStat {
	for _, s := range e.AccuracyStats() {
		if s.System == system && s.Operator == operator {
			return s
		}
	}
	return AccuracyStat{}
}

func mustHybrid(t *testing.T, e *Engine, system string) *hybrid.Estimator {
	t.Helper()
	est, err := e.Estimator(system)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := est.(*hybrid.Estimator)
	if !ok {
		t.Fatalf("estimator for %q is not hybrid", system)
	}
	return h
}

// TestSaveProfileAtomic verifies SaveProfile's write-rename discipline: a
// reader racing repeated saves must never observe a partially written file,
// and no temporary files survive.
func TestSaveProfileAtomic(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	dir := t.TempDir()
	path := filepath.Join(dir, "hive.profile.json")
	if err := e.SaveProfile("hive", path); err != nil {
		t.Fatalf("SaveProfile: %v", err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				// The file exists before the reader starts and rename never
				// removes it; any read error is a broken invariant.
				errCh <- err
				return
			}
			if !json.Valid(data) {
				errCh <- os.ErrInvalid
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := e.SaveProfile("hive", path); err != nil {
			t.Fatalf("SaveProfile %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("reader observed a torn save: %v", err)
	default:
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "hive.profile.json" {
		names := make([]string, 0, len(entries))
		for _, en := range entries {
			names = append(names, en.Name())
		}
		t.Errorf("stray files after atomic saves: %v", names)
	}
}
