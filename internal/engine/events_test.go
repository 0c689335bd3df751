package engine

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/metrics"
	"intellisphere/internal/obs"
)

// TestQueryEmitsWideEvents attaches a capture-everything recorder and pins
// the wide-event fields the serving path fills in: statement hash, outcome,
// chosen systems, estimate vs actual, cache-hit flag from a statement's third
// sighting on, and the error path's always-capture.
func TestQueryEmitsWideEvents(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100})
	rec := obs.NewRecorder(obs.RecorderConfig{SampleRate: 1})
	e.SetEventRecorder(rec)

	sql := "SELECT a5, COUNT(a1) FROM t100000_100 GROUP BY a5"
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Ring().Recent(1)
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != "query" || ev.Outcome != "ok" || ev.Capture != "head" {
		t.Errorf("event header = %s/%s/%s", ev.Kind, ev.Outcome, ev.Capture)
	}
	if ev.SQL != sql || ev.StmtHash != obs.StatementHash(sql) {
		t.Errorf("statement identity = %q / hash %x", ev.SQL, ev.StmtHash)
	}
	if ev.CacheHit {
		t.Error("first statement flagged as a plan-cache hit")
	}
	if len(ev.Systems) == 0 {
		t.Errorf("event lists no systems: %+v", ev)
	}
	if ev.EstimatedSec != res.Plan.EstimatedSec || ev.ActualSec != res.ActualSec {
		t.Errorf("costs = %v/%v, want %v/%v", ev.EstimatedSec, ev.ActualSec, res.Plan.EstimatedSec, res.ActualSec)
	}
	if ev.LatencySec <= 0 || ev.Error != "" || ev.TraceID != 0 {
		t.Errorf("latency/error/trace = %v/%q/%d", ev.LatencySec, ev.Error, ev.TraceID)
	}

	// The second sighting is planned again and admitted, the third is served
	// from the cache, and each event says which — under the hash the entry
	// kept from the lookup that built it.
	for sighting := 2; sighting <= 3; sighting++ {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
		if ev = rec.Ring().Recent(1)[0]; ev.CacheHit != (sighting == 3) || ev.StmtHash != obs.StatementHash(sql) {
			t.Errorf("sighting %d: cache_hit = %v, hash %x", sighting, ev.CacheHit, ev.StmtHash)
		}
	}

	// A traced query carries its trace ID so the event correlates to /trace.
	_, tr, err := e.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if evs = rec.Ring().Recent(1); evs[0].TraceID != tr.ID || tr.ID == 0 {
		t.Errorf("event trace ID = %d, trace ID = %d", evs[0].TraceID, tr.ID)
	}

	// A failing statement is always captured, with the error attached.
	const bad = "SELECT nope FROM missing"
	if _, err := e.Query(bad); err == nil {
		t.Fatal("bad statement succeeded")
	}
	ev = rec.Ring().Recent(1)[0]
	if ev.Outcome != "error" || ev.Capture != "error" || ev.Error == "" || ev.StmtHash != obs.StatementHash(bad) {
		t.Errorf("error event = %s/%s/%q, hash %x", ev.Outcome, ev.Capture, ev.Error, ev.StmtHash)
	}

	// Batch slots each emit an event with the batch kind.
	before := rec.Ring().Count()
	for _, item := range queryBatch(e, []string{sql, sql}) {
		if item.Err != nil {
			t.Fatal(item.Err)
		}
	}
	if got := rec.Ring().Count() - before; got != 2 {
		t.Errorf("batch of 2 emitted %d events", got)
	}
	for _, ev := range rec.Ring().Recent(2) {
		if ev.Kind != "batch" {
			t.Errorf("batch event kind = %q", ev.Kind)
		}
	}

	// Detaching restores the recorder-free path; nothing further records.
	e.SetEventRecorder(nil)
	before = rec.Ring().Count()
	if _, err := e.Query(sql); err != nil {
		t.Fatal(err)
	}
	if rec.Ring().Count() != before {
		t.Error("detached recorder still receives events")
	}
}

// TestBatchEventLatencyCoversWholeStatement pins what a batch statement
// reports about itself: its wide event carries the statement's own parse +
// plan + execute latency (so the latency SLO's p99 and /events?min_ms= see
// /query/batch traffic at full weight), a statement that fails before
// execution still reports the time it took to fail, and every statement is
// one observation in each stage histogram it reached.
func TestBatchEventLatencyCoversWholeStatement(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100}, ts{1000000, 250})
	rec := obs.NewRecorder(obs.RecorderConfig{SampleRate: 1})
	e.SetEventRecorder(rec)

	// One never-seen statement: the three stages run once each, nested inside
	// the interval the event must report.
	before := e.Stats()
	item := queryBatch(e, []string{
		"SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE r.a1 < 4242",
	})[0]
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	after := e.Stats()
	stages := (after.Parse.SumSeconds - before.Parse.SumSeconds) +
		(after.Plan.SumSeconds - before.Plan.SumSeconds) +
		(after.Execute.SumSeconds - before.Execute.SumSeconds)
	ev := rec.Ring().Recent(1)[0]
	if ev.Kind != "batch" || ev.Outcome != "ok" {
		t.Fatalf("event = %s/%s", ev.Kind, ev.Outcome)
	}
	if stages <= 0 || ev.LatencySec+1e-9 < stages {
		t.Errorf("event latency %.9fs does not cover parse+plan+execute %.9fs", ev.LatencySec, stages)
	}

	// Failing to parse or to plan takes time too.
	for _, sql := range []string{"NOT SQL AT ALL", "SELECT a1 FROM missing_table"} {
		if it := queryBatch(e, []string{sql})[0]; it.Err == nil {
			t.Fatalf("%q succeeded", sql)
		}
		if ev := rec.Ring().Recent(1)[0]; ev.Kind != "batch" || ev.Outcome != "error" || ev.LatencySec <= 0 {
			t.Errorf("%q: event %s/%s with latency %v", sql, ev.Kind, ev.Outcome, ev.LatencySec)
		}
	}

	// N statements — a cache-hit repeat among them — are N plan-stage and N
	// execute-stage observations, as they are N queries and N events.
	sqls := []string{
		"SELECT a1 FROM t100000_100 WHERE a1 < 7",
		"SELECT a2, COUNT(*) FROM t100000_100 GROUP BY a2",
		"SELECT a1 FROM t100000_100 WHERE a1 < 7",
	}
	before, events := e.Stats(), rec.LatencySnapshot().Count
	for _, it := range queryBatch(e, sqls) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	after = e.Stats()
	n := uint64(len(sqls))
	if got := after.Plan.Count - before.Plan.Count; got != n {
		t.Errorf("plan histogram moved by %d for %d statements", got, n)
	}
	if got := after.Execute.Count - before.Execute.Count; got != n {
		t.Errorf("execute histogram moved by %d for %d statements", got, n)
	}
	if got := after.Queries - before.Queries; got != n {
		t.Errorf("queries moved by %d for %d statements", got, n)
	}
	if got := rec.LatencySnapshot().Count - events; got != n {
		t.Errorf("latency histogram moved by %d for %d statements", got, n)
	}
}

// TestStagesSumToEventLatency: a statement is timed by one clock, read at
// arrival and at the end of each stage, so what the three stage histograms
// observe for it, the event's parse_ns / plan_ns / execute_ns and its
// latency_sec are differences of the same readings — the stages sum to the
// latency exactly, not to within a tolerance. A resident statement (the third
// sighting) reads the clock once less: it leaves the parse histogram alone and
// its event has no parse_ns.
func TestStagesSumToEventLatency(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100}, ts{1000000, 250})
	rec := obs.NewRecorder(obs.RecorderConfig{SampleRate: 1})
	e.SetEventRecorder(rec)
	const sql = "SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE r.a1 < 4242"

	var before Stats
	for i, parsed := range []bool{true, true, false} { // never seen, admitted, resident
		res, err := e.QueryBatched(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		after, ev := e.Stats(), rec.Ring().Recent(1)[0]
		if (ev.ParseNS > 0) != parsed || ev.PlanNS <= 0 || ev.ExecuteNS <= 0 || res.CacheHit == parsed {
			t.Fatalf("statement %d: stages %d/%d/%d ns, plan-cache hit %v", i, ev.ParseNS, ev.PlanNS, ev.ExecuteNS, res.CacheHit)
		}
		if sum := time.Duration(ev.ParseNS + ev.PlanNS + ev.ExecuteNS); sum.Seconds() != ev.LatencySec {
			t.Errorf("statement %d: stages sum to %v, the event's latency is %vs", i, sum, ev.LatencySec)
		}
		for _, stage := range []struct {
			name          string
			ns            int64
			before, after metrics.HistogramSnapshot
		}{
			{"parse", ev.ParseNS, before.Parse, after.Parse},
			{"plan", ev.PlanNS, before.Plan, after.Plan},
			{"execute", ev.ExecuteNS, before.Execute, after.Execute},
		} {
			wantCount := uint64(1)
			if stage.ns == 0 {
				wantCount = 0
			}
			gotNS := math.Round((stage.after.SumSeconds - stage.before.SumSeconds) * 1e9)
			if stage.after.Count-stage.before.Count != wantCount || gotNS != float64(stage.ns) {
				t.Errorf("statement %d: %s histogram moved by %d observations, %v ns; the event says %d ns",
					i, stage.name, stage.after.Count-stage.before.Count, gotNS, stage.ns)
			}
		}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(line), `"parse_ns"`); got != parsed || !strings.Contains(string(line), `"plan_ns"`) {
			t.Errorf("statement %d: event line %s", i, line)
		}
		before = after
	}

	// A statement that fails to parse is one stage long.
	if _, err := e.Query("NOT SQL AT ALL"); err == nil {
		t.Fatal("bad statement succeeded")
	}
	ev := rec.Ring().Recent(1)[0]
	if ev.ParseNS <= 0 || ev.PlanNS != 0 || ev.ExecuteNS != 0 || time.Duration(ev.ParseNS).Seconds() != ev.LatencySec {
		t.Errorf("parse failure: stages %d/%d/%d ns, latency %vs", ev.ParseNS, ev.PlanNS, ev.ExecuteNS, ev.LatencySec)
	}
}

// TestEventSamplingAlwaysKeepsErrorsAndSlow pins the sampler contract: with
// 1-in-N head sampling, errors and over-threshold queries bypass the
// counter while ordinary queries are decimated.
func TestEventSamplingAlwaysKeepsErrorsAndSlow(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100})
	rec := obs.NewRecorder(obs.RecorderConfig{SampleRate: 0.01, SlowThreshold: time.Hour})
	e.SetEventRecorder(rec)

	sql := "SELECT a1 FROM t100000_100 WHERE a1 < 100"
	for i := 0; i < 50; i++ {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Query("SELECT nope FROM missing"); err == nil {
		t.Fatal("bad statement succeeded")
	}
	st := rec.Stats()
	if st.Errors != 1 {
		t.Errorf("error captures = %d, want 1", st.Errors)
	}
	if captured := rec.Ring().Count(); captured >= 51 {
		t.Errorf("head sampling at 1%% captured %d of 51", captured)
	}
	// Every query still feeds the latency histogram even when skipped.
	if got := rec.LatencySnapshot().Count; got != 51 {
		t.Errorf("latency observations = %d, want 51", got)
	}
}
