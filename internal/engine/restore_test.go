package engine_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"intellisphere/internal/catalog"
	"intellisphere/internal/datagen"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/querygrid"
)

// federation builds a fresh demo federation, with the blackbox flink remote
// when logical is set.
func federation(t testing.TB, logical bool) *engine.Engine {
	t.Helper()
	fed, err := demo.BuildFederation(demo.Config{Seed: 1, LogicalRemote: logical})
	if err != nil {
		t.Fatal(err)
	}
	return fed.Engine
}

func registerTable(t testing.TB, e *engine.Engine, name, system string, replicas ...string) {
	t.Helper()
	tb, err := datagen.Table(20000, 100, system)
	if err != nil {
		t.Fatal(err)
	}
	tb.Name, tb.Replicas = name, replicas
	if err := e.RegisterTable(tb); err != nil {
		t.Fatalf("RegisterTable %s: %v", name, err)
	}
}

// TestDurabilityRestoreSkipsAbsentSystems: a data dir written with the flink
// remote (-logical-remote) and booted without it keeps every acked mutation
// that does not need flink. The snapshot's flink-owned tables, one with rows,
// are skipped, not a reason to discard the snapshot (which used to lose
// zz_acked, registered after flink's t80000000_500 in name order); WAL
// records past it skip a flink-owned table and its rows and drop flink from
// a replica list.
func TestDurabilityRestoreSkipsAbsentSystems(t *testing.T) {
	dir := t.TempDir()
	e := federation(t, true)
	d, _, err := engine.OpenDurability(e, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerTable(t, e, "zz_acked", "hive")
	registerTable(t, e, "zz_flink_rows", "flink")
	if err := e.Materialize("zz_flink_rows"); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	registerTable(t, e, "zz_flink_owned", "flink")
	if err := e.Materialize("zz_flink_owned"); err != nil {
		t.Fatal(err)
	}
	registerTable(t, e, "zz_replicated", "hive", "flink", "spark")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	booted := federation(t, false)
	rd, rec, err := engine.OpenDurability(booted, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot without flink: %v", err)
	}
	defer rd.Close()
	if !rec.Restored || rec.SnapshotsDiscarded != 0 || rec.Replayed != 3 {
		t.Errorf("recovery = %+v, want the snapshot restored and 3 records replayed", rec)
	}
	cat := booted.Catalog()
	if _, err := cat.Lookup("zz_acked"); err != nil {
		t.Errorf("acked table lost: %v", err)
	}
	for _, name := range []string{"zz_flink_rows", "zz_flink_owned"} {
		if _, err := cat.Lookup(name); err == nil {
			t.Errorf("flink-owned %s was registered on a boot without flink", name)
		}
	}
	if names := booted.MaterializedNames(); slices.ContainsFunc(names, func(n string) bool { return n != "t10000_100" && n != "t100000_100" }) {
		t.Errorf("materialized after recovery: %v, want only the demo's two tables", names)
	}
	if tb, err := cat.Lookup("zz_replicated"); err != nil || !slices.Equal(tb.Replicas, []string{"spark"}) {
		t.Errorf("zz_replicated = %+v (%v), want it with replicas [spark]", tb, err)
	}
}

// restoreView is what a restore may change, rendered for comparison.
func restoreView(t testing.TB, e *engine.Engine) string {
	t.Helper()
	models := map[string]any{}
	for _, system := range e.Systems() {
		models[system] = e.ModelVersions(system)
	}
	b, err := json.Marshal(struct {
		Tables       []*catalog.Table
		Links        map[string]querygrid.LinkConfig
		Materialized []string
		Estimators   uint64
		Models       map[string]any
	}{e.Catalog().List(), e.Grid().Links(), e.MaterializedNames(), e.EstimatorGeneration(), models})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mutatedSnapshot is the snapshot of a flink federation after one admin
// table, one link, one materialization and one forced tune.
func mutatedSnapshot(t testing.TB) []byte {
	t.Helper()
	e := federation(t, true)
	registerTable(t, e, "zz_admin", "hive")
	if err := e.Materialize("zz_admin"); err != nil {
		t.Fatal(err)
	}
	slow := querygrid.DefaultLink()
	slow.BandwidthBytesPerSec /= 8
	if err := e.SetLink("spark", slow); err != nil {
		t.Fatal(err)
	}
	flinkFeedback(t, e, 0)
	out, err := forceTune(e)
	if err != nil || !out.Promoted {
		t.Fatalf("forced tune: %+v, %v", out, err)
	}
	data, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// editSnapshot decodes a snapshot, lets edit change it and re-encodes it.
func editSnapshot(t testing.TB, data []byte, edit func(map[string]any)) []byte {
	t.Helper()
	var st map[string]any
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	edit(st)
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRejectedSnapshotChangesNothing: a snapshot that fails a late check —
// it re-materializes a table no catalog has — is rejected before it changes
// the catalog, the links, the materialized tables, the estimators or the
// model versions, so recovery can fall back to an older one.
func TestRejectedSnapshotChangesNothing(t *testing.T) {
	bad := editSnapshot(t, mutatedSnapshot(t), func(st map[string]any) {
		st["materialized"] = append(st["materialized"].([]any), "zz_nowhere")
	})
	e := federation(t, true)
	before := restoreView(t, e)
	if err := e.RestoreState(bad); err == nil {
		t.Fatal("a snapshot materializing an unknown table restored")
	}
	if after := restoreView(t, e); after != before {
		t.Errorf("the rejected snapshot changed the engine:\nbefore %s\nafter  %s", before, after)
	}
}

// FuzzRestoreState holds the snapshot decoder to its contract over arbitrary
// bytes, restored into a fresh flink federation: it never panics; a rejected
// snapshot changes nothing restoreView shows; and an accepted one, restored
// into a second fresh federation, gives byte-identical Explain output over
// the demo statements and the same model versions. The seeds are cut from a
// real snapshot (mutatedSnapshot): whole, truncated, relabelled schema
// version 2 (once a newer schema, now the current one, so it restores),
// naming a system this build lacks, and re-materializing an unknown table;
// the last is a version 1 snapshot an older build wrote, with its profiles.
func FuzzRestoreState(f *testing.F) {
	whole := mutatedSnapshot(f)
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(editSnapshot(f, whole, func(st map[string]any) { st["version"] = 2 }))
	f.Add(editSnapshot(f, whole, func(st map[string]any) {
		tables := st["tables"].([]any)
		tb := tables[len(tables)-1].(map[string]any)
		tb["system"], tb["replicas"] = "impala", []string{"impala", "hive"}
	}))
	f.Add(editSnapshot(f, whole, func(st map[string]any) {
		st["materialized"] = append(st["materialized"].([]any), "zz_nowhere")
	}))
	f.Add(v1Snapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := federation(t, true)
		before := restoreView(t, e)
		if err := e.RestoreState(data); err != nil {
			if after := restoreView(t, e); after != before {
				t.Fatalf("rejected snapshot (%v) changed the engine:\nbefore %s\nafter  %s", err, before, after)
			}
			return
		}
		again := federation(t, true)
		if err := again.RestoreState(data); err != nil {
			t.Fatalf("the snapshot restored once, then failed: %v", err)
		}
		for _, sql := range demo.Statements() {
			got, gerr := e.Explain(sql)
			want, werr := again.Explain(sql)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: two restores of one snapshot explain differently:\n%s (%v)\n%s (%v)", sql, got, gerr, want, werr)
			}
		}
		for _, system := range e.Systems() {
			got, _ := json.Marshal(e.ModelVersions(system))
			want, _ := json.Marshal(again.ModelVersions(system))
			if string(got) != string(want) {
				t.Fatalf("%s: two restores of one snapshot hold different model versions:\n%s\n%s", system, got, want)
			}
		}
	})
}
