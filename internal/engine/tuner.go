package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/metrics"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/trace"
)

// This file closes the adaptivity loop the paper leaves to operations:
// the accuracy windows (estimate vs. observed, Figure 3's logging phase)
// detect when a remote's cost model has drifted, and the tuner retrains the
// affected logical-op models from their execution logs — into a *candidate*
// copy, never the serving model. The candidate is shadow-scored against the
// live model on a holdout of the most recent logged executions and promoted
// through the copy-on-write estimator registry only when it measurably
// improves; the registry generation bump invalidates cached plans for free.
// Every promotion archives the model it replaced, so RollbackModel can
// restore the prior version byte-identically.

// Default tuning knobs.
const (
	// DefaultTuneHoldout is how many of the most recent logged executions
	// per model are withheld from candidate training and used to shadow-score
	// candidate against live.
	DefaultTuneHoldout = 8
	// DefaultTuneMinLog is the minimum pending log a model needs — beyond
	// the holdout — before a candidate tune is worth attempting.
	DefaultTuneMinLog = 16
	// DefaultTuneInterval is the tuner's drift poll period.
	DefaultTuneInterval = 30 * time.Second
	// tuneDebounce is how many consecutive drifting polls a system must
	// accumulate before the tuner retrains it — one bad window snapshot is
	// noise, a streak is drift.
	tuneDebounce = 2
)

// DefaultTuneTrain is the candidate retraining run a zero TuneOptions.Train
// selects (a profile clone carries no training config of its own), bounded to
// keep tune latency predictable on a live server.
var DefaultTuneTrain = nn.TrainConfig{Iterations: 300, LearningRate: 0.01, BatchSize: 32}

// TuneOptions controls one candidate tune pass.
type TuneOptions struct {
	// Train is the candidate retraining run (the zero value selects
	// DefaultTuneTrain).
	Train nn.TrainConfig
	// Holdout is the per-model count of most-recent log records withheld for
	// shadow scoring (0 selects DefaultTuneHoldout).
	Holdout int
	// MinLog is the minimum per-model training log (holdout excluded)
	// required to tune that model (0 selects DefaultTuneMinLog).
	MinLog int
	// MinGain is the fraction by which the candidate's holdout mean q-error
	// must undercut the live model's to promote: candidate < live·(1-MinGain).
	// It must lie in [0, 1]: 0 promotes on any strict improvement; 1 makes
	// promotion impossible (tests use it to pin the rejection path). A
	// negative value would promote a worse model as "improved", so
	// TuneCandidate refuses one outside that range before it trains.
	MinGain float64
	// Force promotes the candidate regardless of the holdout verdict
	// (operator override through POST /models).
	Force bool
}

func (o *TuneOptions) normalize() {
	if o.Train == (nn.TrainConfig{}) {
		o.Train = DefaultTuneTrain
	}
	if o.Holdout <= 0 {
		o.Holdout = DefaultTuneHoldout
	}
	if o.MinLog <= 0 {
		o.MinLog = DefaultTuneMinLog
	}
}

// TuneOutcome reports how one candidate tune resolved.
type TuneOutcome struct {
	System string `json:"system"`
	// Promoted reports the candidate replaced the live model.
	Promoted bool `json:"promoted"`
	// Reason is "improved", "forced", "no-improvement", or
	// "insufficient-log" (no model had enough logged executions; no
	// candidate was trained).
	Reason string `json:"reason"`
	// Tuned lists the operator kinds whose models the candidate retrained.
	Tuned []string `json:"tuned,omitempty"`
	// Holdout is the shadow-scoring result (zero when Reason is
	// "insufficient-log").
	Holdout modelver.HoldoutScore `json:"holdout"`
	// Version is the archived version the promotion produced (nil when the
	// candidate was rejected).
	Version *modelver.Version `json:"version,omitempty"`
}

// hybridFor resolves a system's estimator as a tunable hybrid profile.
func (e *Engine) hybridFor(system string) (*hybrid.Estimator, error) {
	if system == querygrid.Master {
		return nil, fmt.Errorf("engine: the master's cost model is not tunable")
	}
	est, err := e.Estimator(system)
	if err != nil {
		return nil, err
	}
	h, ok := est.(*hybrid.Estimator)
	if !ok {
		return nil, fmt.Errorf("engine: system %q has no tunable profile", system)
	}
	return h, nil
}

// profileJSON serializes a hybrid estimator's profile — the bytes the
// version store archives and rollback restores.
func profileJSON(h *hybrid.Estimator) ([]byte, error) {
	return json.Marshal(h.Profile())
}

// recordModelVersion archives r's profile bytes as the system's live version
// and installs its estimator, WAL-logged (resulting bytes, not the operation:
// replay reproduces IDs, live markers, and the serving estimator without the
// in-memory execution logs tuning consumed). Caller holds tuneMu.
func (e *Engine) recordModelVersion(r *modelVersion) (*modelver.Version, error) {
	r.SavedAt = time.Now()
	if err := e.mutate("model_version", r); err != nil {
		return nil, err
	}
	v, _ := e.versions.Live(r.System)
	return &v, nil
}

// tunePair is one (operator kind, live model) the candidate pass considers.
type tunePair struct {
	kind string
	live *logicalop.Model
	cand *logicalop.Model
}

// candidatePairs aligns the live profile's logical models with the
// candidate clone's.
func candidatePairs(live, cand *hybrid.Profile) []tunePair {
	return []tunePair{
		{"join", live.LogicalJoin, cand.LogicalJoin},
		{"aggregation", live.LogicalAgg, cand.LogicalAgg},
		{"scan", live.LogicalScan, cand.LogicalScan},
	}
}

// TuneCandidate runs one drift-remediation pass for a system: clone the
// live costing profile, retrain the clone's logical-op models from the live
// models' execution logs (withholding the most recent records), shadow-score
// candidate against live on the withheld records, and promote the candidate
// through the estimator registry only if it improves (or opts.Force). The
// live model is never mutated; a rejected candidate is discarded whole.
//
// Promotion swaps the registry entry, which bumps the registry generation —
// invalidating every cached plan costed against the old model — and resets
// the system's accuracy windows so the drift signal reflects the new model.
func (e *Engine) TuneCandidate(ctx context.Context, system string, opts TuneOptions) (out *TuneOutcome, err error) {
	if !(opts.MinGain >= 0 && opts.MinGain <= 1) {
		return nil, fmt.Errorf("engine: min gain %v outside [0, 1]", opts.MinGain)
	}
	opts.normalize()
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()

	h, err := e.hybridFor(system)
	if err != nil {
		return nil, err
	}
	e.tuneAttempts.Inc()
	_, csp := trace.Start(ctx, "clone")
	liveJSON, err := profileJSON(h)
	if err != nil {
		csp.EndErr(err)
		return nil, fmt.Errorf("engine: serialize live profile for %q: %w", system, err)
	}
	var candProf hybrid.Profile
	if err = json.Unmarshal(liveJSON, &candProf); err != nil {
		csp.EndErr(err)
		return nil, fmt.Errorf("engine: clone profile for %q: %w", system, err)
	}
	csp.End()

	liveProf := h.Profile()
	out = &TuneOutcome{System: system, Reason: "insufficient-log"}
	type scored struct {
		recs []logicalop.Record // holdout records
		live *logicalop.Model
		cand *logicalop.Model
	}
	var holdouts []scored
	for _, p := range candidatePairs(liveProf, &candProf) {
		if p.live == nil || p.cand == nil {
			continue
		}
		recs := p.live.LogRecords()
		if len(recs) < opts.MinLog+opts.Holdout {
			continue
		}
		_, tsp := trace.Start(ctx, "retrain")
		tsp.SetAttr("operator", p.kind)
		tsp.SetInt("log", len(recs))
		// Candidate trains on everything but the holdout tail; the clone's
		// own log is empty (the model wire format excludes it), so seeding
		// transfers exactly the live model's history.
		cut := len(recs) - opts.Holdout
		p.cand.SeedLog(recs[:cut])
		p.cand.RefitAlpha()
		if _, terr := p.cand.OfflineTune(opts.Train); terr != nil {
			tsp.EndErr(terr)
			return nil, fmt.Errorf("engine: tune %q %s candidate: %w", system, p.kind, terr)
		}
		tsp.End()
		out.Tuned = append(out.Tuned, p.kind)
		holdouts = append(holdouts, scored{recs: recs[cut:], live: p.live, cand: p.cand})
	}
	if len(holdouts) == 0 {
		// Nothing retrained: not a rejection, just not enough evidence yet.
		return out, nil
	}

	_, ssp := trace.Start(ctx, "shadow-score")
	var liveQ, candQ float64
	samples := 0
	for _, s := range holdouts {
		for _, rec := range s.recs {
			le, lerr := s.live.Estimate(rec.X)
			ce, cerr := s.cand.Estimate(rec.X)
			if lerr != nil || cerr != nil {
				continue
			}
			liveQ += metrics.QError(le.Seconds, rec.Actual)
			candQ += metrics.QError(ce.Seconds, rec.Actual)
			samples++
		}
	}
	if samples > 0 {
		liveQ /= float64(samples)
		candQ /= float64(samples)
	}
	out.Holdout = modelver.HoldoutScore{Samples: samples, LiveQ: liveQ, CandidateQ: candQ}
	ssp.SetInt("samples", samples)
	ssp.SetFloat("live_q", liveQ)
	ssp.SetFloat("candidate_q", candQ)
	ssp.End()

	improved := samples > 0 && candQ < liveQ*(1-opts.MinGain)
	if !improved && !opts.Force {
		out.Promoted = false
		out.Reason = "no-improvement"
		e.tuneRejections.Inc()
		_, rsp := trace.Start(ctx, "reject")
		rsp.End()
		return out, nil
	}

	_, psp := trace.Start(ctx, "promote")
	candEst, err := hybrid.NewEstimator(&candProf)
	if err != nil {
		psp.EndErr(err)
		return nil, fmt.Errorf("engine: build candidate estimator for %q: %w", system, err)
	}
	candJSON, err := profileJSON(candEst)
	if err != nil {
		psp.EndErr(err)
		return nil, fmt.Errorf("engine: serialize candidate profile for %q: %w", system, err)
	}
	if e.versions.Count(system) == 0 {
		// The first promotion archives the live model first, so that it has
		// a rollback target.
		_, err = e.recordModelVersion(&modelVersion{System: system, Origin: modelver.OriginInitial, Profile: liveJSON, est: h})
	}
	hs := out.Holdout
	if err == nil {
		out.Version, err = e.recordModelVersion(&modelVersion{System: system, Origin: modelver.OriginTuned, Holdout: &hs, Profile: candJSON, est: candEst})
	}
	if err != nil {
		psp.EndErr(err)
		return nil, err
	}
	// The accuracy windows scored the replaced model; clear them so the
	// drift flag reflects the promoted one.
	e.resetAccuracy(system)
	e.tunePromotions.Inc()
	out.Promoted = true
	if improved {
		out.Reason = "improved"
	} else {
		out.Reason = "forced"
	}
	psp.End()
	return out, nil
}

// ModelVersions lists a system's retained model versions, oldest first.
// Profile bytes are stripped (they can run to megabytes); Size reports each
// version's serialized length.
func (e *Engine) ModelVersions(system string) []modelver.Version {
	vs := e.versions.List(system)
	for i := range vs {
		vs[i].Profile = nil
	}
	return vs
}

// RollbackModel restores a system's previous model version byte-identically:
// the newest retained version older than the live one is deserialized and
// installed through the estimator registry (generation bump, plan-cache
// invalidation), and the system's accuracy windows reset. The rolled-back
// version stays retained, so rollbacks can walk further into history.
func (e *Engine) RollbackModel(system string) (*modelver.Version, error) {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	if _, err := e.hybridFor(system); err != nil {
		return nil, err
	}
	prev, ok := e.versions.Prev(system)
	if !ok {
		return nil, fmt.Errorf("engine: system %q has no earlier model version to roll back to", system)
	}
	if err := e.mutate("model_live", &modelLive{System: system, ID: prev.ID}); err != nil {
		return nil, err
	}
	e.resetAccuracy(system)
	e.tuneRollbacks.Inc()
	prev.Live = true
	prev.Profile = nil
	return &prev, nil
}

// TunerConfig tunes the background drift watcher.
type TunerConfig struct {
	// Interval is the drift poll period (0 selects DefaultTuneInterval).
	Interval time.Duration
	// DriftQ is the mean q-error above which a (system, operator) window
	// reports Drifting — to the tuner, Stats and /metrics/prom alike
	// (0 selects metrics.DefaultDriftQError).
	DriftQ float64
	// Tune carries the candidate-tune options each triggered pass uses.
	Tune TuneOptions
}

// Tuner is the background drift watcher: it polls the accuracy windows and
// runs TuneCandidate on systems that stay drifting. One tuner per engine.
type Tuner struct {
	e    *Engine
	cfg  TunerConfig
	stop chan struct{}
	done chan struct{}

	streak   map[string]int
	lastTune map[string]time.Time
}

// StartTuner launches the drift-watch loop and returns its handle. Callers
// own exactly one tuner per engine and must Stop it on shutdown.
func (e *Engine) StartTuner(cfg TunerConfig) *Tuner {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultTuneInterval
	}
	e.driftQ.Store(math.Float64bits(cfg.DriftQ))
	t := &Tuner{
		e:        e,
		cfg:      cfg,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		streak:   map[string]int{},
		lastTune: map[string]time.Time{},
	}
	go t.loop()
	return t
}

// Stop terminates the watch loop and waits for it to exit. An in-flight
// tune pass completes first.
func (t *Tuner) Stop() {
	close(t.stop)
	<-t.done
}

func (t *Tuner) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.poll()
		}
	}
}

// drifting reports the systems with an accuracy window that currently reads
// Drifting, from one stats snapshot.
func (t *Tuner) drifting() map[string]bool {
	out := map[string]bool{}
	for _, s := range t.e.AccuracyStats() {
		if s.Drifting && s.System != querygrid.Master {
			out[s.System] = true
		}
	}
	return out
}

// poll advances each system's drift streak and fires a tune pass on those
// that stay drifting past the debounce, respecting the per-system cooldown.
func (t *Tuner) poll() {
	drifting := t.drifting()
	for system := range t.streak {
		if !drifting[system] {
			delete(t.streak, system)
		}
	}
	for system := range drifting {
		t.streak[system]++
		if t.streak[system] < tuneDebounce {
			continue
		}
		if last, ok := t.lastTune[system]; ok && time.Since(last) < 2*t.cfg.Interval {
			continue
		}
		t.lastTune[system] = time.Now()
		t.tune(system)
		// A completed pass — promoted (windows reset) or not — restarts the
		// evidence clock.
		delete(t.streak, system)
	}
}

// tune runs one traced candidate pass; the trace lands in the engine's ring
// next to the query traces, so /trace shows retrains inline with serving.
func (t *Tuner) tune(system string) {
	tr := trace.NewOp("tune", "tune "+system)
	ctx := trace.ContextWithSpan(context.Background(), tr.Root)
	out, err := t.e.TuneCandidate(ctx, system, t.cfg.Tune)
	if err == nil && out != nil {
		tr.Root.SetAttr("reason", out.Reason)
		tr.Root.SetAttr("promoted", fmt.Sprintf("%t", out.Promoted))
	}
	tr.Finish(err)
	t.e.traces.Record(tr)
}
