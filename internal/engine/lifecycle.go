package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/durable"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/remote"
)

// This file implements the operational lifecycle around the costing
// profiles: persisting and restoring them (the CP of Figure 9 survives
// master restarts), calibrating QueryGrid links from probe transfers, and
// triggering the periodic offline tuning phase of Section 3.

// SaveProfile serializes a registered remote's costing profile to path.
// Only remotes registered with a hybrid (profile-backed) estimator can be
// saved. The write goes through durable.WriteFileAtomic (temp file, fsync,
// rename) — a crash mid-write can never leave a truncated profile where
// RegisterRemoteFromProfile would later choke on it.
func (e *Engine) SaveProfile(system, path string) error {
	est, err := e.Estimator(system)
	if err != nil {
		return err
	}
	h, ok := est.(*hybrid.Estimator)
	if !ok {
		return fmt.Errorf("engine: system %q has no costing profile to save", system)
	}
	data, err := json.MarshalIndent(h.Profile(), "", " ")
	if err != nil {
		return fmt.Errorf("engine: serialize profile for %q: %w", system, err)
	}
	if err := durable.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("engine: write profile: %w", err)
	}
	return nil
}

// RegisterRemoteFromProfile registers a remote system with a costing
// profile previously saved by SaveProfile — skipping every training phase.
// The profile's system name must match the remote's.
func (e *Engine) RegisterRemoteFromProfile(sys remote.System, path string) (*hybrid.Estimator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: read profile: %w", err)
	}
	var prof hybrid.Profile
	if err := json.Unmarshal(data, &prof); err != nil {
		return nil, fmt.Errorf("engine: decode profile: %w", err)
	}
	if prof.SystemName != sys.Name() {
		return nil, fmt.Errorf("engine: profile names system %q, remote is %q", prof.SystemName, sys.Name())
	}
	est, err := hybrid.NewEstimator(&prof)
	if err != nil {
		return nil, err
	}
	if err := e.RegisterRemote(sys, est); err != nil {
		return nil, err
	}
	return est, nil
}

// CalibrateLink times probe transfers over the given measure function, fits
// the link's bandwidth/latency/per-row overhead, and installs the result as
// the QueryGrid link for the named remote system.
func (e *Engine) CalibrateLink(system string, measure querygrid.MeasureFunc) (querygrid.LinkConfig, error) {
	if _, err := e.Remote(system); err != nil {
		return querygrid.LinkConfig{}, err
	}
	cfg, err := querygrid.Calibrate(measure, querygrid.CalibrateConfig{})
	if err != nil {
		return querygrid.LinkConfig{}, err
	}
	if err := e.SetLink(system, cfg); err != nil {
		return querygrid.LinkConfig{}, err
	}
	return cfg, nil
}

// SwitchProfile forces a hybrid system's active costing approach (sub-op or
// logical-op) and WAL-logs the resulting profile, so the switch survives a
// restart.
func (e *Engine) SwitchProfile(system string, active core.Approach) error {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	h, err := e.hybridFor(system)
	if err != nil {
		return err
	}
	if err := h.Switch(active); err != nil {
		return err
	}
	data, err := profileJSON(h)
	if err != nil {
		return fmt.Errorf("engine: serialize profile for %q: %w", system, err)
	}
	return e.logMutation(opInstallProfile, profilePayload{System: system, Profile: data})
}

// InstallLogicalModels hot-swaps trained logical-op models into a hybrid
// system's profile (Figure 9's t1 moment) and WAL-logs the resulting
// profile. Nil models leave the existing ones in place.
func (e *Engine) InstallLogicalModels(system string, join, agg, scan *logicalop.Model) error {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	h, err := e.hybridFor(system)
	if err != nil {
		return err
	}
	h.InstallLogicalModels(join, agg, scan)
	data, err := profileJSON(h)
	if err != nil {
		return fmt.Errorf("engine: serialize profile for %q: %w", system, err)
	}
	return e.logMutation(opInstallProfile, profilePayload{System: system, Profile: data})
}

// TuneReport summarizes one offline tuning pass over a remote's logical
// models. Each operator model re-fits its own α, so the refit values are
// reported per model; AlphaRecords is the total remedy-record count across
// all models that tuned.
type TuneReport struct {
	JoinTuned, AggTuned, ScanTuned bool
	JoinAlpha                      float64
	AggAlpha                       float64
	ScanAlpha                      float64
	AlphaRecords                   int
}

// TuneSystem runs the offline batch tuning phase (Section 3) on a remote's
// logical-op models: each model with pending logged executions re-fits α
// from the remedy records and folds the log into its network, expanding the
// trained ranges under the continuity rule. Models without pending logs are
// skipped. The models are tuned in place, one after another, and the pass
// stops at the first that fails — so a failure can come after a change: the
// error then arrives with the report of what was tuned before it, and that
// change has been published (plans invalidated, a model version recorded) all
// the same.
func (e *Engine) TuneSystem(system string, tc nn.TrainConfig) (*TuneReport, error) {
	// tuneMu serializes this in-place pass against candidate tunes and
	// rollbacks, and orders its WAL record with every other model mutation.
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	est, err := e.Estimator(system)
	if err != nil {
		return nil, err
	}
	h, ok := est.(*hybrid.Estimator)
	if !ok {
		return nil, fmt.Errorf("engine: system %q has no tunable profile", system)
	}
	// Tuning consumes each model's pending log, so any feedback still queued
	// in the batcher has to land first or the pass would silently skip it.
	e.FlushFeedback()
	prof := h.Profile()
	rep := &TuneReport{}
	changed := false // a model is no longer what cached plans were priced by
	var tuneErr error
	for _, m := range []struct {
		kind  string
		model *logicalop.Model
		tuned *bool
		alpha *float64
	}{
		{"join", prof.LogicalJoin, &rep.JoinTuned, &rep.JoinAlpha},
		{"aggregation", prof.LogicalAgg, &rep.AggTuned, &rep.AggAlpha},
		{"scan", prof.LogicalScan, &rep.ScanTuned, &rep.ScanAlpha},
	} {
		if m.model == nil || m.model.PendingLog() == 0 {
			continue
		}
		a, n := m.model.RefitAlpha()
		*m.alpha, rep.AlphaRecords = a, rep.AlphaRecords+n
		changed = changed || n > 0
		if _, err := m.model.OfflineTune(tc); err != nil {
			tuneErr = fmt.Errorf("engine: tune %q %s model: %w", system, m.kind, err)
			break
		}
		*m.tuned, changed = true, true
	}
	if changed {
		// Offline tuning mutates the profile's models in place, which the
		// estimator cannot observe itself: cached plans costed against the
		// old models are stale.
		e.estimators.Bump()
		// The accuracy windows scored the pre-tune models; left alone they
		// would keep reporting (and re-triggering on) drift the tune already
		// fixed.
		e.ResetAccuracy(system)
		data, jerr := profileJSON(h)
		if jerr != nil {
			return rep, errors.Join(tuneErr, fmt.Errorf("engine: serialize tuned profile for %q: %w", system, jerr))
		}
		if _, verr := e.recordModelVersion(system, modelver.OriginTuneSystem, data, nil); verr != nil {
			return rep, errors.Join(tuneErr, verr)
		}
	}
	return rep, tuneErr
}
