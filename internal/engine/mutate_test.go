package engine_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"intellisphere/internal/datagen"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot_v1.golden from this build's restore of testdata/snapshot_v1.json")

// flinkFeedback executes the flink aggregation twenty times, logging the
// executions a tune retrains from (only steps executed on flink log to its
// models). round varies the literals so each call brings fresh statements.
func flinkFeedback(t testing.TB, e *engine.Engine, round int) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if _, err := e.Query(fmt.Sprintf("SELECT a10, SUM(a1) FROM t80000000_500 WHERE a1 < %d GROUP BY a10", 40000000+i*1000000+round)); err != nil {
			t.Fatal(err)
		}
	}
}

// forceTune promotes a flink candidate whatever its holdout score.
func forceTune(e *engine.Engine) (*engine.TuneOutcome, error) {
	return e.TuneCandidate(context.Background(), "flink", engine.TuneOptions{Holdout: 1, MinLog: 1, Force: true,
		Train: nn.TrainConfig{Iterations: 20, BatchSize: 32, Seed: 5}})
}

// recoveredView renders what a recovery must reproduce: Explain over the
// demo statements, the flink aggregation and a scan of mutatedSnapshot's
// admin table, then every system's model versions.
func recoveredView(t testing.TB, e *engine.Engine) string {
	t.Helper()
	var b strings.Builder
	for _, sql := range append(demo.Statements(), "SELECT a10, SUM(a1) FROM t80000000_500 WHERE a1 < 40000000 GROUP BY a10", "SELECT a1 FROM zz_admin WHERE a1 < 10") {
		out, err := e.Explain(sql)
		if err != nil {
			out = "error: " + err.Error()
		}
		fmt.Fprintf(&b, "-- %s\n%s\n", sql, out)
	}
	for _, system := range e.Systems() {
		vs, err := json.MarshalIndent(e.ModelVersions(system), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "-- model versions of %s\n%s\n", system, vs)
	}
	return b.String()
}

// v1Snapshot is a snapshot an older build wrote (schema version 1, with
// every estimator's profile bytes) for mutatedSnapshot's state.
func v1Snapshot(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV1SnapshotRestoresIdentically: a snapshot written before snapshots
// dropped their profiles restores to the Explain output and model versions
// the build that wrote it restored it to (testdata/snapshot_v1.golden).
func TestV1SnapshotRestoresIdentically(t *testing.T) {
	e := federation(t, true)
	if err := e.RestoreState(v1Snapshot(t)); err != nil {
		t.Fatal(err)
	}
	got := recoveredView(t, e)
	if *update {
		if err := os.WriteFile("testdata/snapshot_v1.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/snapshot_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the v1 snapshot restores differently:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLinkForUnregisteredSystemRejected: a link for a system the engine has
// not registered is refused, so nothing acks, logs or replays it.
func TestLinkForUnregisteredSystemRejected(t *testing.T) {
	e := federation(t, false)
	if err := e.SetLink("impala", querygrid.DefaultLink()); err == nil {
		t.Fatal("a link for an unregistered system was accepted")
	}
	if _, ok := e.Grid().Links()["impala"]; ok {
		t.Error("a link for an unregistered system was installed")
	}
}

// TestRefusedLogChangesNothing: a mutation whose log append fails (the
// durability sink is closed) returns an error and leaves the engine as it
// was: the catalog, links, rows, estimators and model versions restoreView
// shows, and the demo statements' plans.
func TestRefusedLogChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setup  func(*engine.Engine)
		mutate func(*engine.Engine) error
	}{
		{"register_table", nil, func(e *engine.Engine) error {
			tb, err := datagen.Table(20000, 100, "hive")
			if err != nil {
				t.Fatal(err)
			}
			tb.Name = "zz_refused"
			return e.RegisterTable(tb)
		}},
		{"set_link", nil, func(e *engine.Engine) error {
			slow := querygrid.DefaultLink()
			slow.BandwidthBytesPerSec /= 8
			return e.SetLink("spark", slow)
		}},
		{"materialize", func(e *engine.Engine) { registerTable(t, e, "zz_rows", "hive") },
			func(e *engine.Engine) error { return e.Materialize("zz_rows") }},
		{"forced tune", func(e *engine.Engine) { flinkFeedback(t, e, 0) },
			func(e *engine.Engine) error { _, err := forceTune(e); return err }},
		{"rollback", func(e *engine.Engine) {
			flinkFeedback(t, e, 0)
			if _, err := forceTune(e); err != nil {
				t.Fatal(err)
			}
		}, func(e *engine.Engine) error { _, err := e.RollbackModel("flink"); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := federation(t, true)
			d, _, err := engine.OpenDurability(e, engine.DurabilityConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(e)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			before, plans := restoreView(t, e), recoveredView(t, e)
			if err := tc.mutate(e); err == nil {
				t.Fatal("the mutation succeeded with its log closed")
			}
			if after := restoreView(t, e); after != before {
				t.Errorf("the refused mutation changed the engine:\nbefore %s\nafter  %s", before, after)
			}
			if after := recoveredView(t, e); after != plans {
				t.Errorf("the refused mutation changed the plans:\nbefore %s\nafter  %s", plans, after)
			}
		})
	}
}

// TestModelHistoryWithEvictionsSurvivesRestart promotes more flink versions
// than the store retains and rolls one back. A snapshot restore and a WAL
// replay each reproduce the retained history (IDs, origins, live marker,
// save times, holdouts), and the next promotion takes the same ID with or
// without the restart.
func TestModelHistoryWithEvictionsSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := federation(t, true)
	d, _, err := engine.OpenDurability(e, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := 0; round < modelver.DefaultHistory+1; round++ {
		flinkFeedback(t, e, round)
		if out, err := forceTune(e); err != nil || !out.Promoted {
			t.Fatalf("forced tune %d: %+v, %v", round, out, err)
		}
	}
	if _, err := e.RollbackModel("flink"); err != nil {
		t.Fatal(err)
	}
	want := e.ModelVersions("flink")
	if len(want) != modelver.DefaultHistory || want[0].ID == 1 || want[len(want)-1].Live {
		t.Fatalf("history = %+v, want %d versions past evictions with the newest rolled back", want, modelver.DefaultHistory)
	}

	data, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := federation(t, true)
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	sameVersions(t, "snapshot restore", restored.ModelVersions("flink"), want)

	var next []int
	for _, x := range []*engine.Engine{e, restored} {
		flinkFeedback(t, x, 99)
		out, err := forceTune(x)
		if err != nil || !out.Promoted {
			t.Fatalf("forced tune after the history: %+v, %v", out, err)
		}
		next = append(next, out.Version.ID)
	}
	if next[0] != next[1] {
		t.Errorf("next promotion took v%d, v%d after a snapshot restore", next[0], next[1])
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := federation(t, true)
	rd, rec, err := engine.OpenDurability(replayed, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rec.Restored {
		t.Fatalf("recovery = %+v, want a pure WAL replay", rec)
	}
	sameVersions(t, "WAL replay", replayed.ModelVersions("flink"), e.ModelVersions("flink"))
}

// sameVersions compares two version lists field by field (save times with
// Equal: a recovered time has no monotonic reading).
func sameVersions(t *testing.T, how string, got, want []modelver.Version) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", how, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		sameHoldout := (g.Holdout == nil) == (w.Holdout == nil) && (g.Holdout == nil || *g.Holdout == *w.Holdout)
		if g.ID != w.ID || g.System != w.System || g.Origin != w.Origin || g.Live != w.Live || g.Size != w.Size ||
			!g.SavedAt.Equal(w.SavedAt) || !sameHoldout {
			t.Errorf("%s: version %d:\n got %+v (holdout %+v)\nwant %+v (holdout %+v)", how, i, g, g.Holdout, w, w.Holdout)
		}
	}
}

// TestNewerSnapshotSchemaRejected: a snapshot from a newer schema is
// rejected before it changes anything, so recovery falls back instead of
// restoring what it may misread.
func TestNewerSnapshotSchemaRejected(t *testing.T) {
	newer := editSnapshot(t, mutatedSnapshot(t), func(st map[string]any) { st["version"] = 3 })
	e := federation(t, true)
	before := restoreView(t, e)
	if err := e.RestoreState(newer); err == nil {
		t.Fatal("a schema v3 snapshot restored")
	}
	if after := restoreView(t, e); after != before {
		t.Errorf("the rejected snapshot changed the engine:\nbefore %s\nafter  %s", before, after)
	}
}
