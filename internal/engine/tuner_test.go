package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/faults"
	"intellisphere/internal/metrics"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
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
	cfg.NN.Train = nn.TrainConfig{Iterations: 100, Optimizer: nn.Adam, BatchSize: 32, Seed: 1}
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
		Train:   nn.TrainConfig{Iterations: 300, Optimizer: nn.Adam, BatchSize: 32, Seed: 3},
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
	e.FlushFeedback()
}

func TestTuneCandidatePromotion(t *testing.T) {
	e, est, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	acc := e.AccuracyStats()["hivebb/aggregation"]
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
	if out.Holdout.Samples != 2 || !out.Holdout.Improved() {
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
	acc = e.AccuracyStats()["hivebb/aggregation"]
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
	if acc := e.AccuracyStats()["hivebb/aggregation"]; acc.Window != 0 {
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

// TestModelSwapAfterInPlaceChangeInvalidates is the regression test for the
// plan-cache stamp that summed per-estimator counters: an estimator that had
// changed in place exactly once (here a no-op InstallLogicalModels, then a
// SwitchProfile on the promoted one) took its 1 out of the sum when a
// promotion or a rollback replaced it, the registry's +1 put it back, and the
// plan priced by the replaced model kept being served.
func TestModelSwapAfterInPlaceChangeInvalidates(t *testing.T) {
	e, _, inj := newTuneRig(t)
	if err := e.InstallLogicalModels("hivebb", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("promotion after one in-place change: stale = %d, want %d", s.Stale, stale+1)
	}
	if promoted == initial {
		t.Error("promotion after one in-place change: the replaced model's plan is still served")
	}

	if err := e.SwitchProfile("hivebb", core.LogicalOp); err != nil {
		t.Fatal(err)
	}
	if explain() != promoted {
		t.Error("a switch to the approach already active changed the plan")
	}
	stale = e.PlanCacheStats().Stale
	if _, err := e.RollbackModel("hivebb"); err != nil {
		t.Fatalf("RollbackModel: %v", err)
	}
	restored := explain()
	if s := e.PlanCacheStats(); s.Stale != stale+1 {
		t.Errorf("rollback after one in-place change: stale = %d, want %d", s.Stale, stale+1)
	}
	if restored != initial {
		t.Errorf("rollback restored the model byte-identically but not its plan:\n%s\nwant:\n%s", restored, initial)
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

// TestTuneSystemResetsDriftWindow pins the in-place tuning path's share of
// the fix: consuming the log and refitting must clear the accuracy window,
// or the drift flag stays latched against observations the old weights made.
func TestTuneSystemResetsDriftWindow(t *testing.T) {
	e, _, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	if acc := e.AccuracyStats()["hivebb/aggregation"]; !acc.Drifting {
		t.Fatalf("rig not drifting before tune: %+v", acc)
	}
	rep, err := e.TuneSystem("hivebb", nn.TrainConfig{Iterations: 50, Optimizer: nn.Adam, BatchSize: 32, Seed: 3})
	if err != nil {
		t.Fatalf("TuneSystem: %v", err)
	}
	if !rep.AggTuned {
		t.Fatalf("aggregation not tuned: %+v", rep)
	}
	acc := e.AccuracyStats()["hivebb/aggregation"]
	if acc.Drifting || acc.Window != 0 {
		t.Errorf("drift flag latched after TuneSystem: %+v", acc)
	}
	if acc.Count == 0 {
		t.Error("window reset erased the lifetime observation count")
	}
	vs := e.ModelVersions("hivebb")
	if len(vs) != 1 || vs[0].Origin != modelver.OriginTuneSystem || !vs[0].Live {
		t.Errorf("TuneSystem versions = %+v", vs)
	}
}

// TestTuneSystemPublishesPartialTune: TuneSystem re-trains the join,
// aggregation and scan models in place, one after another. When the join
// model has been re-trained and the aggregation tune then fails, the change is
// made and must be published like any other — plans priced by the old join
// model invalidated, a model version (and with it a WAL record) written — and
// the error must come with the report of what was tuned. It used to return
// (nil, err) before any of that, so the cached join plan kept being served. A
// pass that fails before it changes anything still publishes nothing.
func TestTuneSystemPublishesPartialTune(t *testing.T) {
	e, est, _ := newTuneRig(t)
	prof := est.Profile()
	tc := nn.TrainConfig{Iterations: 50, Optimizer: nn.Adam, BatchSize: 32, Seed: 3}
	// The one way left to make a later model's tune fail: Observe refuses a
	// record of the wrong width, a seeded log is taken as it comes.
	prof.LogicalAgg.SeedLog([]logicalop.Record{{X: []float64{1, 2}, Actual: 1}})
	epoch := e.opt.Epoch()
	rep, err := e.TuneSystem("hivebb", tc)
	if err == nil || rep == nil || rep.JoinTuned || rep.AggTuned {
		t.Fatalf("pass with no join log: report %+v, error %v", rep, err)
	}
	if e.opt.Epoch() != epoch || len(e.ModelVersions("hivebb")) != 0 {
		t.Error("a pass that changed no model published one")
	}

	const joinSQL = "SELECT r.a1 FROM t80000000_500 r JOIN t100000_100 s ON r.a1 = s.a1"
	for i, wantHit := range []bool{false, false, true} {
		res, err := e.Query(joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("query %d: CacheHit = %v", i, res.CacheHit)
		}
	}
	e.FlushFeedback()
	if prof.LogicalJoin.PendingLog() == 0 {
		t.Fatal("the join did not run on hivebb: no join log to tune")
	}
	stale := e.PlanCacheStats().Stale
	rep, err = e.TuneSystem("hivebb", tc)
	if err == nil || !strings.Contains(err.Error(), "aggregation model") {
		t.Fatalf("TuneSystem over a wrong-width aggregation record: %v", err)
	}
	if rep == nil || !rep.JoinTuned || rep.AggTuned || rep.ScanTuned {
		t.Fatalf("partial report = %+v, want the join tuned and nothing else", rep)
	}
	if e.opt.Epoch() == epoch {
		t.Error("the re-trained join model did not move the optimizer epoch")
	}
	res, err := e.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || e.PlanCacheStats().Stale != stale+1 {
		t.Errorf("the join statement was served its old plan: hit %v, stale %d → %d", res.CacheHit, stale, e.PlanCacheStats().Stale)
	}
	vs := e.ModelVersions("hivebb")
	if len(vs) != 1 || vs[0].Origin != modelver.OriginTuneSystem || !vs[0].Live {
		t.Errorf("versions after the partial tune = %+v", vs)
	}
}

// TestTunerBackgroundLoop drives the watch loop end to end: drifting windows
// debounce into a tune pass, the pass promotes, and the drift flag clears.
func TestTunerBackgroundLoop(t *testing.T) {
	e, _, inj := newTuneRig(t)
	driftRig(t, e, inj, 8)

	opts := fastTune()
	opts.Force = true // pin loop mechanics, not the holdout verdict
	tuner := e.StartTuner(TunerConfig{Interval: 5 * time.Millisecond, Debounce: 2, Tune: opts})
	defer tuner.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Tuning.Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tuner never promoted: %+v", e.Stats().Tuning)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if acc := e.AccuracyStats()["hivebb/aggregation"]; acc.Drifting {
		t.Errorf("drift flag still set after background promotion: %+v", acc)
	}
	if vs := e.ModelVersions("hivebb"); len(vs) < 2 {
		t.Errorf("background promotion archived %d versions, want >= 2", len(vs))
	}
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

// countFeedback records applied observations, standing in for an estimator.
type countFeedback struct {
	mu      sync.Mutex
	applied []float64
}

func (c *countFeedback) observe(sec float64) {
	c.mu.Lock()
	c.applied = append(c.applied, sec)
	c.mu.Unlock()
}
func (c *countFeedback) ObserveJoin(_ plan.JoinSpec, sec float64) { c.observe(sec) }
func (c *countFeedback) ObserveAgg(_ plan.AggSpec, sec float64)   { c.observe(sec) }
func (c *countFeedback) ObserveScan(_ plan.ScanSpec, sec float64) { c.observe(sec) }

// TestFeedbackQueueBounded saturates the batcher while its drainer is held
// off and checks drop-oldest semantics: the queue never exceeds cap, the
// newest observations survive, and every drop is counted.
func TestFeedbackQueueBounded(t *testing.T) {
	cf := &countFeedback{}
	b := newFeedbackBatcher(4)
	// Pretend a drainer is already active so enqueue does not start one —
	// the deterministic stand-in for an estimator too slow to keep up.
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()

	for i := 0; i < 10; i++ {
		b.enqueue(feedbackItem{est: cf, kind: "scan", actualSec: float64(i)})
	}
	b.mu.Lock()
	queued := make([]float64, 0, len(b.queue))
	for _, it := range b.queue {
		queued = append(queued, it.actualSec)
	}
	b.draining = false
	b.mu.Unlock()

	if len(queued) != 4 {
		t.Fatalf("queue length = %d, want cap 4", len(queued))
	}
	for i, sec := range queued {
		if want := float64(6 + i); sec != want {
			t.Errorf("queue[%d] = %v, want %v (newest must survive)", i, sec, want)
		}
	}
	if got := b.dropped.Value(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}

	// Release the queue: the next enqueue evicts one more (the queue is
	// still at cap), starts a real drainer, and flush applies the rest.
	b.enqueue(feedbackItem{est: cf, kind: "scan", actualSec: 10})
	b.flush()
	cf.mu.Lock()
	applied := append([]float64(nil), cf.applied...)
	cf.mu.Unlock()
	if len(applied) != 4 || applied[0] != 7 || applied[3] != 10 {
		t.Errorf("applied = %v, want [7 8 9 10]", applied)
	}
	if got := b.dropped.Value(); got != 7 {
		t.Errorf("dropped after releasing enqueue = %d, want 7", got)
	}
	if b.backlog() != 0 {
		t.Errorf("backlog = %d after flush", b.backlog())
	}
}

// TestFeedbackCapConfig pins the Config.FeedbackCap resolution: zero selects
// the default bound, negative disables it, positive passes through.
func TestFeedbackCapConfig(t *testing.T) {
	for _, tc := range []struct {
		in, want int
	}{
		{0, defaultFeedbackCap},
		{-1, 0},
		{7, 7},
	} {
		e, err := New(Config{Seed: 9, FeedbackCap: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if e.fb.cap != tc.want {
			t.Errorf("FeedbackCap %d: batcher cap = %d, want %d", tc.in, e.fb.cap, tc.want)
		}
		if e.FeedbackDropped() != 0 {
			t.Errorf("fresh engine reports drops")
		}
	}
}
