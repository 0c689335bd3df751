package engine

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/faults"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
	"intellisphere/internal/trace"
)

// spanNames lists a span's direct children in order.
func spanNames(s *trace.Span) []string {
	out := make([]string, len(s.Children))
	for i, c := range s.Children {
		out[i] = c.Name
	}
	return out
}

// findChild returns the first direct child with the given name.
func findChild(t *testing.T, s *trace.Span, name string) *trace.Span {
	t.Helper()
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("span %q has no %q child (children: %v)", s.Name, name, spanNames(s))
	return nil
}

// TestQueryTracedSpanTree runs one traced query end to end and checks the
// whole span tree: parse → plan (with one costing span per candidate
// placement) → execute (with one span per plan step), all with consistent
// timings, recorded into the engine's trace ring.
func TestQueryTracedSpanTree(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100}, ts{1000000, 250})

	sql := "SELECT a5, COUNT(a1) FROM t1000000_250 GROUP BY a5"
	res, tr, err := e.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatalf("QueryTraced: %v", err)
	}
	if tr == nil {
		t.Fatal("no trace returned")
	}
	if tr.ID != 1 {
		t.Errorf("trace ID = %d, want 1 (first recorded)", tr.ID)
	}
	if tr.SQL != sql || tr.Error != "" {
		t.Errorf("trace header = %q / %q", tr.SQL, tr.Error)
	}
	root := tr.Root
	if root.Name != "query" {
		t.Fatalf("root span = %q", root.Name)
	}
	if got, want := spanNames(root), []string{"parse", "plan", "execute"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pipeline spans = %v, want %v", got, want)
	}

	// Planning costs the aggregation on every candidate placement: the
	// master and hive both host (or replicate) the table, so there must be
	// one costing span per candidate system, each annotated with the
	// operator and its estimate.
	plan := findChild(t, root, "plan")
	if plan.Attr("cache") != "miss" {
		t.Errorf("first plan cache attr = %q, want miss", plan.Attr("cache"))
	}
	systems := map[string]bool{}
	for _, c := range plan.Children {
		if c.Name != "cost" {
			continue
		}
		systems[c.System] = true
		if c.Attr("operator") != "aggregation" {
			t.Errorf("cost span operator = %q on %q", c.Attr("operator"), c.System)
		}
		if c.Attr("estimated_sec") == "" {
			t.Errorf("cost span on %q has no estimate", c.System)
		}
	}
	if len(systems) < 2 {
		t.Errorf("costing spans cover systems %v, want at least 2 candidates", systems)
	}

	// Execution mirrors the plan: one span per step, in order, each with
	// the step's system and both cost figures.
	exec := findChild(t, root, "execute")
	if len(exec.Children) != len(res.Plan.Steps) {
		t.Fatalf("execute has %d spans for %d steps", len(exec.Children), len(res.Plan.Steps))
	}
	for i, step := range res.Plan.Steps {
		sp := exec.Children[i]
		if sp.Name != step.Kind || sp.System != step.System {
			t.Errorf("step %d span = %s on %s, want %s on %s", i, sp.Name, sp.System, step.Kind, step.System)
		}
		if step.Kind != "transfer" && sp.Attr("actual_sec") == "" {
			t.Errorf("step %d (%s) has no observed actual", i, step.Kind)
		}
	}

	// Timing consistency: children start within the root and end within the
	// trace's total duration.
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if s.StartNanos < 0 || s.StartNanos+s.DurationNanos > tr.DurationNanos {
			t.Errorf("span %q [%d, +%d] escapes trace duration %d",
				s.Name, s.StartNanos, s.DurationNanos, tr.DurationNanos)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)

	// The ring serves the trace back, and the stats count it.
	recent := e.RecentTraces(0)
	if len(recent) != 1 || recent[0] != tr {
		t.Fatalf("RecentTraces = %v", recent)
	}
	if got := e.Stats().Traces; got != 1 {
		t.Errorf("Stats().Traces = %d", got)
	}

	// The second sighting is planned again, the third is served from the
	// cache, and each says so on its plan span.
	for i, want := range []string{"miss", "hit"} {
		_, tr, err := e.QueryTraced(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := findChild(t, tr.Root, "plan").Attr("cache"); got != want || tr.ID != uint64(i+2) {
			t.Errorf("trace %d (want ID %d): plan cache attr = %q, want %s", tr.ID, i+2, got, want)
		}
	}
}

// TestUntracedQueryRecordsNothing pins the opt-in contract: plain Query
// leaves no trace behind.
func TestUntracedQueryRecordsNothing(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{100000, 100})
	if _, err := e.Query("SELECT a1 FROM t100000_100 WHERE a1 < 100"); err != nil {
		t.Fatal(err)
	}
	if n := len(e.RecentTraces(0)); n != 0 {
		t.Errorf("ring holds %d traces after untraced query", n)
	}
}

// TestAccuracyTracksLatencyFaults is the estimator-accuracy loop under
// stress: on a healthy federation the per-(system, operator) windows sit
// near q-error 1; once every hive call's latency spikes 20x, the hive
// windows must drift while the untouched master stays calibrated.
func TestAccuracyTracksLatencyFaults(t *testing.T) {
	rig := newChaosRig(t, resilience.BreakerConfig{})
	sql := rig.hiveOperatorQuery(t)
	for i := 0; i < 5; i++ {
		if _, err := rig.eng.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]AccuracyStat{}
	for _, s := range rig.eng.Stats().Accuracy {
		if s.System == "hive" {
			before[s.Operator] = s
			if s.Drifting || s.MeanQError > 1.5 {
				t.Errorf("healthy window hive/%s already drifted: %+v", s.Operator, s)
			}
		}
	}
	if len(before) == 0 {
		t.Fatalf("no hive accuracy windows after healthy queries: %v", rig.eng.Stats().Accuracy)
	}

	// Every hive call now takes 20x its estimate. The estimator has no idea;
	// the accuracy window is what notices.
	rig.hive.Configure(faults.Config{Seed: 7, Rates: faults.Rates{Latency: 1, LatencyFactor: 20}})
	for i := 0; i < 30; i++ {
		if _, err := rig.eng.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range rig.eng.Stats().Accuracy {
		if a.System != "hive" {
			if a.Drifting {
				t.Errorf("unfaulted window %s/%s drifted: %+v", a.System, a.Operator, a)
			}
			continue
		}
		b, ok := before[a.Operator]
		if !ok {
			continue
		}
		if a.MeanQError <= b.MeanQError {
			t.Errorf("hive/%s mean q-error did not rise under latency spikes: %v -> %v", a.Operator, b.MeanQError, a.MeanQError)
		}
		if !a.Drifting {
			t.Errorf("hive/%s not flagged drifting after 20x latency (mean q-error %v)", a.Operator, a.MeanQError)
		}
	}
}

// TestStatsJSONRoundTrip pins the whole Stats payload as lossless JSON: it
// decodes back into an identical Stats — no infinities, no NaNs, no fields
// dropped by tags — including the resilience and accuracy sections.
func TestStatsJSONRoundTrip(t *testing.T) {
	rig := newChaosRig(t, resilience.BreakerConfig{})
	sql := rig.remoteQuery(t)
	// Populate every section: traced queries, retries, a degraded re-plan.
	if _, _, err := rig.eng.QueryTraced(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	rig.configure(faults.Rates{Transient: 1})
	if _, err := rig.eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	rig.configure(faults.Rates{})

	st := rig.eng.Stats()
	if st.Resilience.Retries == 0 || st.Resilience.Fallbacks == 0 {
		t.Fatalf("scenario did not exercise resilience: %+v", st.Resilience)
	}
	if len(st.Accuracy) == 0 {
		t.Fatal("no accuracy windows to round-trip")
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Errorf("stats round-trip diverged:\n got %+v\nwant %+v", back, st)
	}
}

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := e.RegisterRemoteSubOp(h, remote.EngineHive, subop.InHouseComparable); err != nil {
		b.Fatal(err)
	}
	tb, err := datagen.Table(100000, 100, "hive")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterTable(tb); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkQueryTraced is the cost of a warm query with its span tree built.
// It stays because no ledger row of bench/layers.go times a traced query;
// the untraced side of the comparison is the engine.query_us row (the
// disabled path is one context lookup and nil-receiver calls, pinned
// allocation-free by the trace package's AllocsPerRun test).
func BenchmarkQueryTraced(b *testing.B) {
	e := benchEngine(b)
	sql := "SELECT a1 FROM t100000_100 WHERE a1 < 100"
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.QueryTraced(ctx, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLocalStatementRowsSpan pins the local half of a trace: a statement over
// materialized tables spends nearly all of its time in the row engine, and
// that time is a `rows` span under `execute`, after the plan's steps, with
// the size of the answer — or, for a statement the row engine gives up on
// at the request's deadline, the reason.
func TestLocalStatementRowsSpan(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{10000, 100}, ts{100000, 100})
	for _, name := range []string{"t10000_100", "t100000_100"} {
		if err := e.Materialize(name); err != nil {
			t.Fatal(err)
		}
	}
	res, tr, err := e.QueryTraced(context.Background(), "SELECT a100, COUNT(*) FROM t10000_100 WHERE a1 < 2500 GROUP BY a100")
	if err != nil {
		t.Fatal(err)
	}
	exec := findChild(t, tr.Root, "execute")
	if len(exec.Children) != len(res.Plan.Steps)+1 {
		t.Fatalf("execute has spans %v for %d steps, want one more: rows", spanNames(exec), len(res.Plan.Steps))
	}
	rows := exec.Children[len(exec.Children)-1]
	if rows.Name != "rows" || rows.Attr("rows_out") != "25" || rows.Error != "" || rows.DurationNanos <= 0 {
		t.Errorf("last execute span = %q rows_out=%q error=%q duration=%d, want rows / 25 / none / > 0",
			rows.Name, rows.Attr("rows_out"), rows.Error, rows.DurationNanos)
	}

	// The 10^10-tuple cross join under a deadline: the engine hands the row
	// engine its context, so the statement ends at the deadline, as an error
	// on the span, instead of ending the process.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, tr, err = e.QueryTraced(ctx, "SELECT COUNT(*) FROM t100000_100 r CROSS JOIN t100000_100 s")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cross join under a 100ms deadline: error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cross join took %v to give up on a 100ms deadline", elapsed)
	}
	rows = findChild(t, findChild(t, tr.Root, "execute"), "rows")
	if !strings.Contains(rows.Error, "deadline exceeded") || rows.Attr("rows_out") != "" {
		t.Errorf("rows span error = %q rows_out = %q, want the deadline and no row count", rows.Error, rows.Attr("rows_out"))
	}
}
