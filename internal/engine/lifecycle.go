package engine

import (
	"encoding/json"
	"fmt"
	"os"

	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/durable"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/remote"
)

// This file implements the operational lifecycle around the costing
// profiles: persisting and restoring them (the CP of Figure 9 survives
// master restarts) and calibrating QueryGrid links from probe transfers.
// Retraining a profile's models is tuner.go's: a candidate built beside the
// live estimator and installed in its place.

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
	est, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if name := est.Profile().SystemName; name != sys.Name() {
		return nil, fmt.Errorf("engine: profile names system %q, remote is %q", name, sys.Name())
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
	cfg, err := querygrid.Calibrate(measure)
	if err != nil {
		return querygrid.LinkConfig{}, err
	}
	if err := e.SetLink(system, cfg); err != nil {
		return querygrid.LinkConfig{}, err
	}
	return cfg, nil
}
