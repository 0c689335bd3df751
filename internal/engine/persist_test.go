package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/datagen"
	"intellisphere/internal/durable"
	"intellisphere/internal/modelver"
	"intellisphere/internal/querygrid"
)

// persistStatements is the probe mix the durability tests byte-compare
// across restarts: the drift aggregation and joins over the tune rig's
// tables plus the mutation-registered soak table (the rig trains join and
// aggregation models only, so scans stay out of the mix).
func persistStatements() []string {
	return []string{
		driftSQL,
		"SELECT t10000_40.a1 FROM t10000_40 JOIN t100000_100 ON t10000_40.a1 = t100000_100.a1",
		"SELECT soak_t1.a1 FROM soak_t1 JOIN t10000_40 ON soak_t1.a1 = t10000_40.a1",
	}
}

func explainAll(t *testing.T, e *Engine, stmts []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(stmts))
	for _, sql := range stmts {
		s, err := e.Explain(sql)
		if err != nil {
			t.Fatalf("Explain %q: %v", sql, err)
		}
		out[sql] = s
	}
	return out
}

// buildDurableRig stands up the tune rig with durability attached and runs
// the full mutation mix. It returns the engine, its durability handle, and
// the pre-crash Explain outputs.
func buildDurableRig(t *testing.T, dir string) (*Engine, *Durability, map[string]string) {
	t.Helper()
	e, _, inj := newTuneRig(t)
	d, rec, err := OpenDurability(e, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurability: %v", err)
	}
	if rec.Restored || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}

	// Catalog mutation + materialization.
	tb, err := datagen.Table(5000, 40, "hivebb")
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = "soak_t1"
	if err := e.RegisterTable(tb); err != nil {
		t.Fatalf("RegisterTable: %v", err)
	}
	if err := e.Materialize("soak_t1"); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// Link mutation.
	if err := e.SetLink("hivebb", querygrid.LinkConfig{
		BandwidthBytesPerSec: 5e7, LatencySec: 0.1, PerRowOverheadUS: 1,
	}); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	// Model mutation: drift the aggregation model and promote a candidate.
	driftRig(t, e, inj, 8)
	out, err := e.TuneCandidate(context.Background(), "hivebb", fastTune())
	if err != nil {
		t.Fatalf("TuneCandidate: %v", err)
	}
	if !out.Promoted {
		t.Fatalf("candidate not promoted: %+v", out)
	}
	return e, d, explainAll(t, e, persistStatements())
}

// recoverRig rebuilds the deterministic boot state (a fresh tune rig) and
// recovers it from dir — the restart half of every crash test.
func recoverRig(t *testing.T, dir string) (*Engine, *Durability) {
	t.Helper()
	e, _, _ := newTuneRig(t)
	d, _, err := OpenDurability(e, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatalf("recovery OpenDurability: %v", err)
	}
	return e, d
}

// checkRecovered asserts the recovered engine matches the pre-crash one:
// byte-identical Explain, the mutation-registered table present and
// materialized, the link override installed, and the version list —
// IDs, origins, live marker, save times, holdout scores, sizes — equal to
// the pre-crash list.
func checkRecovered(t *testing.T, e *Engine, want map[string]string, wantVersions []modelver.Version) {
	t.Helper()
	got := explainAll(t, e, persistStatements())
	for sql, w := range want {
		if got[sql] != w {
			t.Errorf("Explain %q diverged after recovery:\npre-crash:\n%s\nrecovered:\n%s", sql, w, got[sql])
		}
	}
	if _, err := e.Catalog().Lookup("soak_t1"); err != nil {
		t.Errorf("mutation-registered table lost: %v", err)
	}
	found := false
	for _, name := range e.MaterializedNames() {
		if name == "soak_t1" {
			found = true
		}
	}
	if !found {
		t.Errorf("materialization lost: %v", e.MaterializedNames())
	}
	links := e.Grid().Links()
	if l, ok := links["hivebb"]; !ok || l.BandwidthBytesPerSec != 5e7 {
		t.Errorf("link override lost: %+v", links)
	}
	vs := e.ModelVersions("hivebb")
	if len(vs) != 2 {
		t.Fatalf("version history = %d entries, want 2 (baseline + tuned)", len(vs))
	}
	if vs[0].ID != 1 || vs[0].Origin != modelver.OriginInitial || vs[0].Live {
		t.Errorf("baseline version = %+v", vs[0])
	}
	if vs[1].ID != 2 || vs[1].Origin != modelver.OriginTuned || !vs[1].Live {
		t.Errorf("tuned version = %+v", vs[1])
	}
	if len(wantVersions) != len(vs) {
		t.Fatalf("recovered %d versions, %d before the crash", len(vs), len(wantVersions))
	}
	for i, w := range wantVersions {
		g := vs[i]
		sameHoldout := (g.Holdout == nil) == (w.Holdout == nil) && (g.Holdout == nil || *g.Holdout == *w.Holdout)
		if g.ID != w.ID || g.System != w.System || g.Origin != w.Origin || g.Live != w.Live || g.Size != w.Size ||
			!g.SavedAt.Equal(w.SavedAt) || !sameHoldout {
			t.Errorf("version %d after recovery:\n got %+v (holdout %+v)\nwant %+v (holdout %+v)", w.ID, g, g.Holdout, w, w.Holdout)
		}
	}
}

// TestDurabilityWALReplay crashes (Close without snapshot) and recovers
// purely from the write-ahead log.
func TestDurabilityWALReplay(t *testing.T) {
	dir := t.TempDir()
	e1, d, want := buildDurableRig(t, dir)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	e2, d2 := recoverRig(t, dir)
	defer d2.Close()
	rec := d2.Recovery()
	if rec.Restored {
		t.Fatalf("recovered from a snapshot that was never written: %+v", rec)
	}
	if rec.Replayed == 0 {
		t.Fatalf("no WAL records replayed: %+v", rec)
	}
	checkRecovered(t, e2, want, e1.ModelVersions("hivebb"))
}

// TestDurabilitySnapshotRestore snapshots before the crash: recovery must
// come from the snapshot with an empty (rotated) WAL.
func TestDurabilitySnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	e1, d, want := buildDurableRig(t, dir)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st, _ := d.Stats()
	if st.WALBytes != 0 {
		t.Fatalf("WAL not rotated after snapshot: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	e2, d2 := recoverRig(t, dir)
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.Restored || rec.Replayed != 0 {
		t.Fatalf("recovery = %+v, want snapshot restore with nothing to replay", rec)
	}
	checkRecovered(t, e2, want, e1.ModelVersions("hivebb"))

	// Mutations after recovery keep extending the same lineage: the version
	// store's ID counter survived the snapshot.
	if _, err := e2.RollbackModel("hivebb"); err != nil {
		t.Fatalf("rollback after recovery: %v", err)
	}
	vs := e2.ModelVersions("hivebb")
	if !vs[0].Live || vs[1].Live {
		t.Errorf("rollback after recovery did not move the live marker: %+v", vs)
	}
}

// TestDurabilitySizeTriggeredSnapshot lowers the rotation threshold to a few
// hundred bytes so link and table mutations outgrow it: the append path must
// snapshot and rotate the WAL on its own, with no explicit Snapshot call, and
// an engine recovered from the directory must plan byte-identically.
func TestDurabilitySizeTriggeredSnapshot(t *testing.T) {
	dir := t.TempDir()
	e1, _, _ := newTuneRig(t)
	d, _, err := OpenDurability(e1, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.rotateBytes = 400
	const rounds = 6
	for i := 1; i <= rounds; i++ {
		tb, err := datagen.Table(5000, 40, "hivebb")
		if err != nil {
			t.Fatal(err)
		}
		tb.Name = fmt.Sprintf("soak_t%d", i)
		// Let a triggered snapshot finish before the next mutation, so it
		// covers the whole log and rotates it.
		if err := e1.RegisterTable(tb); err != nil {
			t.Fatalf("RegisterTable: %v", err)
		}
		d.wg.Wait()
		if err := e1.SetLink("hivebb", querygrid.LinkConfig{
			BandwidthBytesPerSec: float64(i) * 1e7, LatencySec: 0.1, PerRowOverheadUS: 1,
		}); err != nil {
			t.Fatalf("SetLink: %v", err)
		}
		d.wg.Wait()
	}
	want := explainAll(t, e1, persistStatements())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("no snapshot after %d mutations past a %d-byte threshold: %+v", 2*rounds, d.rotateBytes, st)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot file on disk (%v)", err)
	}

	// A rotated WAL holds at most the last mutation, and no record the
	// snapshot already covers: a covered record means the log was not reset.
	e2, d2 := recoverRig(t, dir)
	defer d2.Close()
	if rec := d2.Recovery(); !rec.Restored || rec.Replayed > 1 || rec.SkippedCovered != 0 {
		t.Fatalf("recovery = %+v, want a snapshot restore and a rotated WAL", rec)
	}
	if l := e2.Grid().Links()["hivebb"]; l.BandwidthBytesPerSec != rounds*1e7 {
		t.Errorf("recovered link = %+v, want the last override", l)
	}
	got := explainAll(t, e2, persistStatements())
	for sql, w := range want {
		if got[sql] != w {
			t.Errorf("Explain %q diverged after recovery:\nbefore:\n%s\nrecovered:\n%s", sql, w, got[sql])
		}
	}
}

// TestDurabilityTornWALTail simulates a SIGKILL mid-append: garbage after
// the acked records must be truncated away, with everything acked intact.
func TestDurabilityTornWALTail(t *testing.T) {
	dir := t.TempDir()
	e1, d, want := buildDurableRig(t, dir)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x99\x00\x00\x00torn mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, d2 := recoverRig(t, dir)
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.TornTail || rec.TruncatedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	checkRecovered(t, e2, want, e1.ModelVersions("hivebb"))
}

// corruptNewestSnapshot overwrites the newer of a data dir's two snapshots.
func corruptNewestSnapshot(t *testing.T, dir string) {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %v (err %v), want 2", snaps, err)
	}
	if err := os.WriteFile(snaps[1], []byte("{ corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilitySnapshotFallback corrupts the newest snapshot: recovery
// must fall back to the older one and still land in the identical state
// (the WAL past the older snapshot was rotated away only by the newer one,
// so this exercises the snapshot-only path of the fallback). A WAL record
// past the corrupt snapshot that names what only it held is the one case
// the fallback cannot serve, and recovery refuses it.
func TestDurabilitySnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	e1, d, _ := buildDurableRig(t, dir)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A second mutation + snapshot so two snapshot files exist.
	if err := e1.SetLink("hivebb", querygrid.LinkConfig{
		BandwidthBytesPerSec: 9e7, LatencySec: 0.2, PerRowOverheadUS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	corruptNewestSnapshot(t, dir)

	e2, d2 := recoverRig(t, dir)
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.Restored || rec.SnapshotsDiscarded != 1 {
		t.Fatalf("recovery = %+v, want fallback past 1 discarded snapshot", rec)
	}
	// The older snapshot misses the second SetLink: that mutation's WAL
	// record was rotated away by the newer (now corrupt) snapshot, so the
	// fallback deliberately recovers the first override — losing at most the
	// rotation window, never the whole state.
	links := e2.Grid().Links()
	if l := links["hivebb"]; l.BandwidthBytesPerSec != 5e7 {
		t.Errorf("fallback link = %+v, want the first override (5e7)", l)
	}
	vs := e2.ModelVersions("hivebb")
	if len(vs) != 2 || !vs[1].Live {
		t.Errorf("fallback lost version lineage: %+v", vs)
	}

	// Past the corrupt snapshot, the log materializes a table registered
	// between the two snapshots. The fallback lacks that table, so the
	// record was logged against a state recovery cannot reach: boot stops
	// and names it instead of serving a state no client was acked.
	lost := t.TempDir()
	e3, d3, _ := buildDurableRig(t, lost)
	if err := d3.Snapshot(); err != nil {
		t.Fatal(err)
	}
	tb, err := datagen.Table(5000, 40, "hivebb")
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = "soak_between"
	if err := e3.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := d3.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e3.Materialize("soak_between"); err != nil {
		t.Fatal(err)
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
	corruptNewestSnapshot(t, lost)
	booted, _, _ := newTuneRig(t)
	if _, _, err := OpenDurability(booted, DurabilityConfig{Dir: lost}); err == nil || !strings.Contains(err.Error(), "soak_between") {
		t.Errorf("recovery past a lost register_table = %v, want an error naming soak_between", err)
	}
}

// TestReplayedVersionWithoutSaveTime: a model_version record written before
// the payload carried its save time still replays, stamped with the replay
// time rather than the zero time.
func TestReplayedVersionWithoutSaveTime(t *testing.T) {
	e, est, _ := newTuneRig(t)
	profile, err := profileJSON(est)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{"system": "hivebb", "origin": modelver.OriginInitial, "profile": json.RawMessage(profile)})
	if err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	if err := e.replay(pending{}, durable.Record{Op: "model_version", Data: data}); err != nil {
		t.Fatal(err)
	}
	vs := e.ModelVersions("hivebb")
	if len(vs) != 1 || vs[0].SavedAt.Before(before) {
		t.Errorf("replayed version = %+v, want one stamped at or after %v", vs, before)
	}
}
