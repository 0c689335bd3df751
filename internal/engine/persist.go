package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intellisphere/internal/catalog"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/durable"
	"intellisphere/internal/modelver"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/rowengine"
)

// This file makes the engine's learned state survive restarts: an
// engine-wide versioned snapshot (catalog, grid links, costing profiles,
// model-version archives) plus a write-ahead log of every registry
// mutation, layered on internal/durable. Boot restores the newest valid
// snapshot and replays the log past it; afterwards every acknowledged
// mutation is appended (and fsynced) before its caller sees success, so a
// SIGKILL at any point loses nothing that was acked. Model mutations log
// the *resulting* profile bytes rather than the operation: tuning outcomes
// depend on in-memory execution logs that die with the process, so
// replaying the operation could not reproduce them — replaying the bytes
// always does, which is what makes post-recovery Explain byte-identical.

// WAL op names. The vocabulary is closed: applyWALRecord rejects records
// it does not recognize, so a log written by a newer build fails loudly
// instead of replaying partially.
const (
	opRegisterTable  = "register_table"
	opSetLink        = "set_link"
	opMaterialize    = "materialize"
	opInstallProfile = "install_profile"
	opModelVersion   = "model_version"
	opModelLive      = "model_live"
)

// engineStateVersion guards the snapshot schema; a mismatch rejects the
// snapshot (recovery falls back to an older one or to WAL-only replay).
const engineStateVersion = 1

// engineState is the engine-wide snapshot: everything Explain's output
// depends on that is not rebuilt deterministically at boot. Remote
// simulators are deliberately absent — they are reconstructed from the same
// seed and flags every boot; the snapshot overlays the learned profiles
// onto them.
type engineState struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"saved_at"`
	// Tables is the full catalog (demo-registered tables included; restore
	// skips names already present).
	Tables []*catalog.Table `json:"tables,omitempty"`
	// Links holds the per-system QueryGrid overrides.
	Links map[string]querygrid.LinkConfig `json:"links,omitempty"`
	// Materialized lists tables with generated rows, re-materialized
	// deterministically on restore.
	Materialized []string `json:"materialized,omitempty"`
	// Profiles maps system → serialized hybrid costing profile (the models'
	// existing JSON wire format).
	Profiles map[string]json.RawMessage `json:"profiles,omitempty"`
	// Models is the model-version archive.
	Models modelver.State `json:"models"`
}

// WAL record payloads.
type linkPayload struct {
	System string               `json:"system"`
	Link   querygrid.LinkConfig `json:"link"`
}

type materializePayload struct {
	Table string `json:"table"`
}

type profilePayload struct {
	System  string          `json:"system"`
	Profile json.RawMessage `json:"profile"`
}

type modelVersionPayload struct {
	System  string                 `json:"system"`
	Origin  string                 `json:"origin"`
	Holdout *modelver.HoldoutScore `json:"holdout,omitempty"`
	Profile json.RawMessage        `json:"profile"`
}

type modelLivePayload struct {
	System  string          `json:"system"`
	ID      int             `json:"id"`
	Profile json.RawMessage `json:"profile"`
}

// DurabilityConfig configures OpenDurability.
type DurabilityConfig struct {
	// Dir is the data directory (created if absent).
	Dir string
	// RotateBytes is the WAL size past which a background snapshot (and log
	// rotation) triggers. 0 selects 4 MiB; negative disables size-triggered
	// snapshots (explicit Snapshot calls still rotate).
	RotateBytes int64
	// SnapshotKeep is how many snapshots to retain (0 selects 2).
	SnapshotKeep int
}

// Durability binds an engine to a durable.Store: it is the engine's
// mutation sink (every logged mutation flows through appendRecord) and the
// snapshot scheduler. One Durability per engine.
type Durability struct {
	e           *Engine
	store       *durable.Store
	rotateBytes int64
	recovery    durable.Recovery

	snapInFlight atomic.Bool
	snapErrs     atomic.Uint64
	wg           sync.WaitGroup
}

// OpenDurability opens (or creates) the data directory, restores the newest
// valid snapshot into the engine, replays WAL records past it, and attaches
// the engine's mutation sink so subsequent mutations are logged. Call it
// once, after the engine's remotes are registered (restore overlays learned
// profiles onto them) and before serving starts.
func OpenDurability(e *Engine, cfg DurabilityConfig) (*Durability, durable.Recovery, error) {
	if cfg.RotateBytes == 0 {
		cfg.RotateBytes = 4 << 20
	}
	store, rec, err := durable.Open(
		durable.StoreConfig{Dir: cfg.Dir, Keep: cfg.SnapshotKeep},
		durable.RecoverFuncs{
			Restore: func(_ uint64, data []byte) error { return e.restoreState(data) },
			Apply:   e.applyWALRecord,
		},
	)
	if err != nil {
		return nil, rec, err
	}
	d := &Durability{e: e, store: store, rotateBytes: cfg.RotateBytes, recovery: rec}
	e.dur.Store(d)
	return d, rec, nil
}

// Recovery reports what boot-time recovery did.
func (d *Durability) Recovery() durable.Recovery { return d.recovery }

// Stats exposes the store's durability counters plus snapshot failures.
func (d *Durability) Stats() (durable.Stats, uint64) {
	return d.store.Stats(), d.snapErrs.Load()
}

// appendRecord logs one mutation and, when the WAL has outgrown the
// rotation threshold, kicks off a background snapshot (single-flight).
func (d *Durability) appendRecord(op string, data json.RawMessage) error {
	if _, err := d.store.Append(op, data); err != nil {
		return err
	}
	if d.rotateBytes > 0 && d.store.WALSize() >= d.rotateBytes {
		d.snapshotAsync()
	}
	return nil
}

// snapshotAsync runs Snapshot in the background unless one is already in
// flight. Failures count into snapErrs (surfaced on /metrics/prom) but do
// not affect serving: the WAL still has every mutation.
func (d *Durability) snapshotAsync() {
	if !d.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.snapInFlight.Store(false)
		if err := d.Snapshot(); err != nil {
			d.snapErrs.Add(1)
		}
	}()
}

// Snapshot captures the engine's full state under the mutation locks,
// writes it as the snapshot covering every mutation logged so far, and
// rotates the WAL when the snapshot covers its entire contents. Serving
// (queries, Explain) is not blocked — only mutations are, for the capture.
func (d *Durability) Snapshot() error {
	e := d.e
	e.mutMu.Lock()
	e.tuneMu.Lock()
	st, err := e.captureState()
	seq := d.store.Seq()
	e.tuneMu.Unlock()
	e.mutMu.Unlock()
	if err != nil {
		return err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("engine: serialize snapshot: %w", err)
	}
	return d.store.WriteSnapshot(seq, data)
}

// Close waits for any in-flight background snapshot, then closes the store.
// Mutations logged after Close fail (callers see the error and do not ack).
func (d *Durability) Close() error {
	d.wg.Wait()
	return d.store.Close()
}

// logMutation appends one mutation to the WAL through the attached
// durability sink; without one it is a no-op. Callers hold the lock that
// serialized the in-memory apply (mutMu or tuneMu), so WAL order is exactly
// apply order. A returned error means the mutation is applied in memory but
// NOT durable — callers propagate it so the client never sees an ack.
func (e *Engine) logMutation(op string, payload any) error {
	d := e.dur.Load()
	if d == nil {
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("engine: encode %s mutation: %w", op, err)
	}
	if err := d.appendRecord(op, data); err != nil {
		return fmt.Errorf("engine: persist %s mutation: %w", op, err)
	}
	return nil
}

// captureState snapshots everything engineState carries. Caller holds
// mutMu and tuneMu, so no mutation is mid-apply; the serving read paths
// (registry snapshots, catalog list) are lock-free and unaffected.
func (e *Engine) captureState() (*engineState, error) {
	st := &engineState{
		Version: engineStateVersion,
		SavedAt: time.Now().UTC(),
		Tables:  e.cat.List(),
		Links:   e.grid.Links(),
		Models:  e.versions.Export(),
	}
	mats := e.materialized.Snapshot()
	if len(mats) > 0 {
		st.Materialized = make([]string, 0, len(mats))
		for name := range mats {
			st.Materialized = append(st.Materialized, name)
		}
		sort.Strings(st.Materialized)
	}
	ests := e.estimators.Snapshot()
	st.Profiles = make(map[string]json.RawMessage, len(ests))
	for name, est := range ests {
		h, ok := est.(*hybrid.Estimator)
		if !ok {
			continue // the master's sub-op estimator is rebuilt from seed
		}
		data, err := profileJSON(h)
		if err != nil {
			return nil, fmt.Errorf("engine: serialize profile for %q: %w", name, err)
		}
		st.Profiles[name] = data
	}
	return st, nil
}

// restoreState applies a snapshot to a freshly booted engine. It validates
// everything it can — schema version, profile decode, estimator
// construction, link configs — before mutating any engine state, so a
// rejected snapshot leaves the engine untouched and recovery can fall back
// to an older file. Systems present in the snapshot but absent this boot
// (a flag change removed a remote) are skipped rather than fatal.
func (e *Engine) restoreState(data []byte) error {
	var st engineState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if st.Version != engineStateVersion {
		return fmt.Errorf("engine: snapshot schema v%d, this build reads v%d", st.Version, engineStateVersion)
	}
	// Validate phase: build every estimator and check every link before
	// touching the engine.
	ests := make(map[string]core.Estimator, len(st.Profiles))
	for name, raw := range st.Profiles {
		if _, ok := e.remotes.Get(name); !ok {
			continue
		}
		var prof hybrid.Profile
		if err := json.Unmarshal(raw, &prof); err != nil {
			return fmt.Errorf("engine: snapshot profile for %q: %w", name, err)
		}
		est, err := hybrid.NewEstimator(&prof)
		if err != nil {
			return fmt.Errorf("engine: snapshot profile for %q: %w", name, err)
		}
		ests[name] = est
	}
	for system, cfg := range st.Links {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("engine: snapshot link for %q: %w", system, err)
		}
	}
	// Apply phase. Boot-registered tables (the deterministic demo set) are
	// already present; snapshot copies of them are skipped by name.
	for _, t := range st.Tables {
		if _, err := e.cat.Lookup(t.Name); err == nil {
			continue
		}
		if err := e.applyRegisterTable(t); err != nil {
			return fmt.Errorf("engine: restore table %q: %w", t.Name, err)
		}
	}
	for system, cfg := range st.Links {
		if _, ok := e.remotes.Get(system); !ok {
			continue
		}
		if err := e.grid.SetLink(system, cfg); err != nil {
			return fmt.Errorf("engine: restore link for %q: %w", system, err)
		}
	}
	for _, name := range st.Materialized {
		if err := e.applyMaterialize(name); err != nil {
			return fmt.Errorf("engine: re-materialize %q: %w", name, err)
		}
	}
	for name, est := range ests {
		e.installEstimator(name, est)
	}
	e.versions.Restore(st.Models)
	return nil
}

// applyWALRecord replays one logged mutation during recovery. It mirrors
// the mutation methods minus the logging (replay must not re-log) and
// minus the serving-side bookkeeping that does not affect state.
func (e *Engine) applyWALRecord(rec durable.Record) error {
	switch rec.Op {
	case opRegisterTable:
		var t catalog.Table
		if err := json.Unmarshal(rec.Data, &t); err != nil {
			return err
		}
		if _, err := e.cat.Lookup(t.Name); err == nil {
			return nil // already present (snapshot/WAL overlap is seq-gated, but stay idempotent)
		}
		return e.applyRegisterTable(&t)
	case opSetLink:
		var p linkPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return e.grid.SetLink(p.System, p.Link)
	case opMaterialize:
		var p materializePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return e.applyMaterialize(p.Table)
	case opInstallProfile:
		var p profilePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return e.applyProfile(p.System, p.Profile)
	case opModelVersion:
		var p modelVersionPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		if err := e.applyProfile(p.System, p.Profile); err != nil {
			return err
		}
		e.versions.Record(p.System, p.Origin, p.Profile, p.Holdout, true)
		return nil
	case opModelLive:
		var p modelLivePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		if err := e.applyProfile(p.System, p.Profile); err != nil {
			return err
		}
		return e.versions.SetLive(p.System, p.ID)
	default:
		return fmt.Errorf("engine: unknown wal op %q", rec.Op)
	}
}

// applyProfile installs serialized profile bytes as a system's estimator —
// the replay form of every model mutation. Unknown systems (a flag change
// removed the remote) are skipped.
func (e *Engine) applyProfile(system string, raw json.RawMessage) error {
	if _, ok := e.remotes.Get(system); !ok {
		return nil
	}
	var prof hybrid.Profile
	if err := json.Unmarshal(raw, &prof); err != nil {
		return fmt.Errorf("engine: decode profile for %q: %w", system, err)
	}
	est, err := hybrid.NewEstimator(&prof)
	if err != nil {
		return fmt.Errorf("engine: rebuild estimator for %q: %w", system, err)
	}
	e.installEstimator(system, est)
	return nil
}

// applyRegisterTable is catalog registration with referential checks but
// without WAL logging — shared by RegisterTable, snapshot restore, and
// replay.
func (e *Engine) applyRegisterTable(t *catalog.Table) error {
	if t.System != "" {
		if _, ok := e.remotes.Get(t.System); !ok {
			return fmt.Errorf("engine: table %q references unregistered system %q", t.Name, t.System)
		}
	}
	for _, r := range t.Replicas {
		if _, ok := e.remotes.Get(r); !ok {
			return fmt.Errorf("engine: table %q replica references unregistered system %q", t.Name, r)
		}
	}
	return e.cat.Register(t)
}

// applyMaterialize is row materialization without WAL logging — shared by
// Materialize, snapshot restore, and replay. Materialization is a pure
// function of (name, rows), so replaying it reproduces identical rows.
func (e *Engine) applyMaterialize(name string) error {
	t, err := e.cat.Lookup(name)
	if err != nil {
		return err
	}
	tb, err := rowengine.Materialize(name, t.Rows)
	if err != nil {
		return err
	}
	e.materialized.Set(name, tb)
	return nil
}

// MaterializedNames lists the tables with generated rows, sorted.
func (e *Engine) MaterializedNames() []string {
	snap := e.materialized.Snapshot()
	out := make([]string, 0, len(snap))
	for name := range snap {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
