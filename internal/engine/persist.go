package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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

// This file makes the engine's learned state survive restarts, layered on
// internal/durable. Each registry mutation is one record type below: its
// JSON is its write-ahead-log payload, check validates it (and, during
// recovery, fits it to this boot) and prepares what it installs, and apply
// installs it. The live methods run check, log, apply through mutate, so an
// acked mutation is fsynced before its caller sees success and a refused
// log changes nothing. Boot reads the newest valid snapshot back as the same
// records and replays the log past it, both through recoverRecords, so a
// SIGKILL at any point loses nothing that was acked. Model mutations log the
// resulting profile bytes rather than the operation: tuning outcomes depend
// on in-memory execution logs that die with the process, so replaying the
// operation could not reproduce them, and replaying the bytes always does,
// which is what makes post-recovery Explain byte-identical.

// record is one logged mutation. check runs with a nil pending on the live
// path and with recovery's pending during recovery; apply runs only after
// check passed (and, live, after the record was logged) and cannot fail.
type record interface {
	check(e *Engine, p pending) error
	apply(e *Engine)
}

// errSkip is check's answer for a recovered record with nothing to install.
var errSkip = errors.New("engine: nothing to install")

// pending holds the tables recovery has checked, installed or not (a record
// may name one that an earlier record of its snapshot registers), and nil for
// each it skipped because its owner is absent this boot.
type pending map[string]*catalog.Table

// registered reports whether system is a local owner ("") or a remote this
// boot has registered (the master among them).
func (e *Engine) registered(system string) bool {
	_, ok := e.remotes.Get(system)
	return ok || system == ""
}

// lacks is the one rule for a record that names a system this boot has not
// registered: the live path rejects it, and recovery skips it, because a flag
// change (a data dir written with -logical-remote, booted without it) is no
// reason to lose the records that do not need that system. A record that
// names a table or model version recovery lacks is different: it was logged
// against state recovery did not reach (the records between a discarded
// snapshot and the older one it fell back to), so its check fails, which
// rejects a snapshot and stops WAL replay.
func (e *Engine) lacks(p pending, what, system string) error {
	switch {
	case e.registered(system):
		return nil
	case p != nil:
		return errSkip
	}
	return fmt.Errorf("engine: %s references unregistered system %q", what, system)
}

// registerTable adds a table to the catalog. Its JSON is the table's.
type registerTable struct{ catalog.Table }

func (r *registerTable) check(e *Engine, p pending) error {
	_, seen := p[r.Name]
	if _, err := e.cat.Lookup(r.Name); err == nil || seen {
		if p != nil {
			return errSkip // registered at boot (the demo set) or by an earlier record
		}
		return fmt.Errorf("engine: table %q already registered", r.Name)
	}
	if err := e.lacks(p, fmt.Sprintf("table %q", r.Name), r.System); err != nil {
		if p != nil {
			p[r.Name] = nil
		}
		return err
	}
	if p != nil {
		r.Replicas = slices.DeleteFunc(slices.Clone(r.Replicas), func(s string) bool { return !e.registered(s) })
	}
	for _, s := range r.Replicas {
		if err := e.lacks(p, fmt.Sprintf("table %q replica", r.Name), s); err != nil {
			return err
		}
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if p != nil {
		p[r.Name] = &r.Table
	}
	return nil
}

// apply cannot fail: check validated the table and found its name free, and
// mutMu (or recovery, before serving starts) keeps it free.
func (r *registerTable) apply(e *Engine) { _ = e.cat.Register(&r.Table) }

// setLink overrides one remote system's QueryGrid link.
type setLink struct {
	System string               `json:"system"`
	Link   querygrid.LinkConfig `json:"link"`
}

func (r *setLink) check(e *Engine, p pending) error {
	if r.System == "" || r.System == querygrid.Master {
		return fmt.Errorf("engine: a link must name a remote system, got %q", r.System)
	}
	if err := e.lacks(p, "link", r.System); err != nil {
		return err
	}
	return r.Link.Validate()
}

// apply cannot fail: check ruled out both of the grid's errors, a master or
// empty system and an invalid link.
func (r *setLink) apply(e *Engine) { _ = e.grid.SetLink(r.System, r.Link) }

// materialize generates a registered table's rows. Materialization is a pure
// function of (name, rows), so replaying it reproduces identical rows.
type materialize struct {
	Table string `json:"table"`
	rows  *rowengine.Table
}

func (r *materialize) check(e *Engine, p pending) error {
	t, err := e.cat.Lookup(r.Table)
	if pt, seen := p[r.Table]; seen {
		if pt == nil {
			return errSkip // its owner is absent this boot
		}
		t, err = pt, nil
	}
	if err != nil {
		return err
	}
	r.rows, err = rowengine.Materialize(r.Table, t.Rows)
	return err
}

func (r *materialize) apply(e *Engine) { e.materialized.Set(r.Table, r.rows) }

// modelVersion archives profile bytes as a system's version. Logged, it is a
// promotion (or the baseline before the first one): the version goes live and
// its estimator is installed. A snapshot's history reads back as one per
// version, each keeping its ID, and only the snapshot's live one is
// installed. The snapshot writes these without System, the key they sit
// under.
type modelVersion struct {
	System  string                 `json:"system,omitempty"`
	ID      int                    `json:"id,omitempty"`
	Origin  string                 `json:"origin"`
	SavedAt time.Time              `json:"saved_at"`
	Holdout *modelver.HoldoutScore `json:"holdout,omitempty"`
	Profile json.RawMessage        `json:"profile"`
	// archived marks a snapshot's version that is not its live one.
	archived bool
	// est is what apply installs: the live path's estimator, or check's
	// decode of Profile.
	est core.Estimator
}

func (r *modelVersion) check(e *Engine, p pending) error {
	if err := e.lacks(p, "model version", r.System); err != nil || r.archived || r.est != nil {
		return err
	}
	est, err := decodeProfile(r.Profile)
	if err != nil {
		return fmt.Errorf("engine: profile for %q: %w", r.System, err)
	}
	r.est = est
	return nil
}

func (r *modelVersion) apply(e *Engine) {
	e.versions.Record(modelver.Version{
		ID: r.ID, System: r.System, Origin: r.Origin, SavedAt: r.SavedAt,
		Holdout: r.Holdout, Profile: r.Profile, Live: !r.archived,
	})
	if !r.archived {
		e.installEstimator(r.System, r.est)
	}
}

// modelLive makes a retained version live again (a rollback) and installs
// its profile bytes as the system's estimator.
type modelLive struct {
	System string `json:"system"`
	ID     int    `json:"id"`
	est    core.Estimator
}

func (r *modelLive) check(e *Engine, p pending) error {
	if err := e.lacks(p, "model rollback", r.System); err != nil {
		return err
	}
	v, ok := e.versions.Get(r.System, r.ID)
	if !ok {
		return fmt.Errorf("engine: system %q has no model version %d", r.System, r.ID)
	}
	est, err := decodeProfile(v.Profile)
	if err != nil {
		return fmt.Errorf("engine: restore archived profile %q v%d: %w", r.System, r.ID, err)
	}
	r.est = est
	return nil
}

// apply cannot fail: check found the version retained, and tuneMu (or
// recovery) keeps it so.
func (r *modelLive) apply(e *Engine) {
	_ = e.versions.SetLive(r.System, r.ID)
	e.installEstimator(r.System, r.est)
}

// decodeProfile rebuilds an estimator from a costing profile's JSON.
func decodeProfile(data []byte) (*hybrid.Estimator, error) {
	var prof hybrid.Profile
	if err := json.Unmarshal(data, &prof); err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	return hybrid.NewEstimator(&prof)
}

// mutate is the live path of every mutation: check, log through the attached
// durability sink (none: nothing to log), apply. A log that has outgrown the
// rotation threshold starts a background snapshot, which waits for the
// caller's lock (mutMu or tuneMu, which orders its mutations, so WAL order is
// apply order) and so covers this one. An error leaves the engine as it was:
// no client is acked a change that is not durable, and no later snapshot
// persists one.
func (e *Engine) mutate(op string, r record) error {
	if err := r.check(e, nil); err != nil {
		return err
	}
	if d := e.dur.Load(); d != nil {
		data, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("engine: encode %s mutation: %w", op, err)
		}
		if _, err := d.store.Append(op, data); err != nil {
			return fmt.Errorf("engine: persist %s mutation: %w", op, err)
		}
		if d.store.WALSize() >= d.rotateBytes {
			d.snapshotAsync()
		}
	}
	r.apply(e)
	return nil
}

// snapshotVersion guards the snapshot schema. Version 1 also carried each
// estimator's profile bytes, which this build ignores: an estimator differs
// from its boot one only through a model version, whose bytes the snapshot
// holds. A newer schema is rejected (recovery falls back to an older
// snapshot or to WAL-only replay), so an older build never restores a
// snapshot without the estimators it relies on.
const snapshotVersion = 2

// snapshot is the engine-wide snapshot: everything Explain's output depends
// on that is not rebuilt deterministically at boot, in the records that
// rebuild it. Remote simulators and their boot estimators are deliberately
// absent: every boot reconstructs them from the same seed and flags.
type snapshot struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"saved_at"`
	// Tables is the full catalog (boot-registered tables included; recovery
	// skips names already present).
	Tables       []registerTable                 `json:"tables,omitempty"`
	Links        map[string]querygrid.LinkConfig `json:"links,omitempty"`
	Materialized []string                        `json:"materialized,omitempty"`
	Models       struct {
		Systems map[string]modelHistory `json:"systems,omitempty"`
	} `json:"models"`
}

// modelHistory is one system's retained model versions, oldest first.
type modelHistory struct {
	Live     int            `json:"live,omitempty"`
	Versions []modelVersion `json:"versions"`
}

// snapshot captures the engine's state. Callers hold mutMu and tuneMu, so no
// mutation is mid-apply; the serving read paths are lock-free and unaffected.
func (e *Engine) snapshot() *snapshot {
	st := &snapshot{Version: snapshotVersion, SavedAt: time.Now().UTC(), Links: e.grid.Links(), Materialized: e.MaterializedNames()}
	for _, t := range e.cat.List() {
		st.Tables = append(st.Tables, registerTable{*t})
	}
	st.Models.Systems = map[string]modelHistory{}
	for _, system := range e.Systems() {
		var h modelHistory
		for _, v := range e.versions.List(system) {
			if v.Live {
				h.Live = v.ID
			}
			h.Versions = append(h.Versions, modelVersion{ID: v.ID, Origin: v.Origin, SavedAt: v.SavedAt, Holdout: v.Holdout, Profile: v.Profile})
		}
		if h.Versions != nil {
			st.Models.Systems[system] = h
		}
	}
	return st
}

// restore recovers a snapshot's records.
func (e *Engine) restore(p pending, data []byte) error {
	var st snapshot
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if st.Version < 1 || st.Version > snapshotVersion {
		return fmt.Errorf("engine: snapshot schema v%d, this build reads v1 to v%d", st.Version, snapshotVersion)
	}
	var recs []record
	for i := range st.Tables {
		recs = append(recs, &st.Tables[i])
	}
	for system, link := range st.Links {
		recs = append(recs, &setLink{System: system, Link: link})
	}
	for _, name := range st.Materialized {
		recs = append(recs, &materialize{Table: name})
	}
	for system, h := range st.Models.Systems {
		for i := range h.Versions {
			v := &h.Versions[i]
			v.System, v.archived = system, v.ID != h.Live
			recs = append(recs, v)
		}
	}
	return e.recoverRecords(p, recs)
}

// replay recovers one WAL record. The op vocabulary is closed: an op replay
// does not know fails, so a log written by a newer build fails loudly instead
// of replaying partially.
func (e *Engine) replay(p pending, rec durable.Record) error {
	var r record
	switch rec.Op {
	case "register_table":
		r = new(registerTable)
	case "set_link":
		r = new(setLink)
	case "materialize":
		r = new(materialize)
	case "model_version":
		r = new(modelVersion)
	case "model_live":
		r = new(modelLive)
	default:
		return fmt.Errorf("engine: unknown wal op %q", rec.Op)
	}
	if err := json.Unmarshal(rec.Data, r); err != nil {
		return err
	}
	return e.recoverRecords(p, []record{r})
}

// recoverRecords installs one batch of recovered records, a whole snapshot
// or one WAL record. It checks every record before it applies any, so a
// rejected snapshot leaves the engine untouched and recovery can fall back to
// an older one. A rejected batch is a snapshot, tried before anything else
// was recovered, or a WAL record, which ends recovery: either way, what the
// checks put in p goes with it.
func (e *Engine) recoverRecords(p pending, recs []record) error {
	var keep []record
	for _, r := range recs {
		switch err := r.check(e, p); {
		case errors.Is(err, errSkip):
		case err != nil:
			clear(p)
			return err
		default:
			keep = append(keep, r)
		}
	}
	for _, r := range keep {
		r.apply(e)
	}
	return nil
}

// DurabilityConfig configures OpenDurability.
type DurabilityConfig struct {
	// Dir is the data directory (created if absent).
	Dir string
}

// Durability binds an engine to a durable.Store: it is the engine's
// mutation sink (mutate logs through it) and the snapshot scheduler. One
// Durability per engine.
type Durability struct {
	e     *Engine
	store *durable.Store
	// rotateBytes is the WAL size past which a background snapshot (and log
	// rotation) triggers: 4 MiB, lowered only by in-package tests.
	rotateBytes int64
	recovery    durable.Recovery

	snapInFlight atomic.Bool
	snapErrs     atomic.Uint64
	wg           sync.WaitGroup
}

// OpenDurability opens (or creates) the data directory, restores the newest
// valid snapshot into the engine, replays WAL records past it, and attaches
// the engine's mutation sink so subsequent mutations are logged. Call it
// once, after the engine's remotes are registered (recovery checks records
// against them and installs learned profiles over their boot estimators) and
// before serving starts.
func OpenDurability(e *Engine, cfg DurabilityConfig) (*Durability, durable.Recovery, error) {
	p := pending{}
	store, rec, err := durable.Open(
		durable.StoreConfig{Dir: cfg.Dir},
		durable.RecoverFuncs{
			Restore: func(_ uint64, data []byte) error { return e.restore(p, data) },
			Apply:   func(r durable.Record) error { return e.replay(p, r) },
		},
	)
	if err != nil {
		return nil, rec, err
	}
	d := &Durability{e: e, store: store, rotateBytes: 4 << 20, recovery: rec}
	e.dur.Store(d)
	return d, rec, nil
}

// Recovery reports what boot-time recovery did.
func (d *Durability) Recovery() durable.Recovery { return d.recovery }

// Stats exposes the store's durability counters plus snapshot failures.
func (d *Durability) Stats() (durable.Stats, uint64) {
	return d.store.Stats(), d.snapErrs.Load()
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
	st := e.snapshot()
	seq := d.store.Seq()
	e.tuneMu.Unlock()
	e.mutMu.Unlock()
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
