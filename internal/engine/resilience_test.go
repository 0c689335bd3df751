package engine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/faults"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
	"intellisphere/internal/sqlparse"
)

// chaosClock is a race-safe manual time source for breaker timeouts.
type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *chaosClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// chaosRig is a two-remote federation whose hive and spark simulators sit
// behind fault injectors, with a hive-owned table replicated onto spark and
// a hive-only one.
type chaosRig struct {
	eng   *Engine
	hive  *faults.Injector
	spark *faults.Injector
	clock *chaosClock
}

func newChaosRig(t *testing.T, breaker resilience.BreakerConfig) *chaosRig {
	t.Helper()
	clock := &chaosClock{t: time.Unix(0, 0)}
	if breaker.Clock == nil {
		breaker.Clock = clock.now
	}
	e, err := New(Config{
		Seed: 9,
		Retry: resilience.RetryPolicy{
			Seed:  9,
			Sleep: func(context.Context, time.Duration) error { return nil },
		},
		Breaker: breaker,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap before registration so sub-op training runs through the (still
	// fault-free) injector — trained models match an injection-free build.
	inj := faults.Wrap(h, faults.Config{Seed: 7})
	if _, _, err := e.RegisterRemoteSubOp(inj, remote.EngineHive, subop.InHouseComparable); err != nil {
		t.Fatalf("RegisterRemoteSubOp(hive): %v", err)
	}
	sc := cluster.DefaultHive()
	sc.Name = "spark-vm"
	s, err := remote.NewSpark("spark", sc, remote.Options{NoiseAmp: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sinj := faults.Wrap(s, faults.Config{Seed: 8})
	if _, _, err := e.RegisterRemoteSubOp(sinj, remote.EngineSpark, subop.InHouseComparable); err != nil {
		t.Fatalf("RegisterRemoteSubOp(spark): %v", err)
	}
	// Big rows make the transfer dominate, so the optimizer pushes
	// operators down to a copy rather than shipping the table to the master.
	for _, name := range []string{"rep_t", "hive_t"} {
		tb, err := datagen.Table(10000000, 1000, "hive")
		if err != nil {
			t.Fatal(err)
		}
		tb.Name = name
		if name == "rep_t" {
			tb.Replicas = []string{"spark"}
		}
		if err := e.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return &chaosRig{eng: e, hive: inj, spark: sinj, clock: clock}
}

// configure sets the same fault rates on hive and spark, so a statement over
// the replicated table fails wherever it runs on a remote.
func (r *chaosRig) configure(rates faults.Rates) {
	r.hive.Configure(faults.Config{Seed: 7, Rates: rates})
	r.spark.Configure(faults.Config{Seed: 8, Rates: rates})
}

// pickQuery returns the first statement whose healthy plan has a step
// (transfers included) that ok accepts, failing the test when none has.
func (r *chaosRig) pickQuery(t *testing.T, what string, ok func(optimizer.Step) bool, candidates ...string) string {
	t.Helper()
	for _, sql := range candidates {
		res, err := r.eng.Query(sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		if slices.ContainsFunc(res.Plan.Steps, ok) {
			return sql
		}
	}
	t.Fatalf("no candidate plan %s", what)
	return ""
}

// hiveQuery returns a statement over the replicated table whose healthy plan
// reads it from hive, so a hive outage degrades it onto the spark copy. Spark
// runs every operator on that table cheaper than hive, so hive is where the
// table ships from.
func (r *chaosRig) hiveQuery(t *testing.T) string {
	t.Helper()
	return r.pickQuery(t, "reads from hive", func(s optimizer.Step) bool { return s.System == "hive" || s.From == "hive" },
		"SELECT a1 FROM rep_t WHERE a1 < 1000",
		"SELECT a5, COUNT(a1) FROM rep_t GROUP BY a5")
}

// hiveOperatorQuery returns a statement over the hive-only table whose
// healthy plan runs an operator on hive, where hive's faults reach it.
func (r *chaosRig) hiveOperatorQuery(t *testing.T) string {
	t.Helper()
	return r.pickQuery(t, "places an operator on hive", func(s optimizer.Step) bool { return s.System == "hive" && s.Kind != "transfer" },
		"SELECT a1 FROM hive_t WHERE a1 < 1000",
		"SELECT a5, COUNT(a1) FROM hive_t GROUP BY a5")
}

// remoteQuery returns a statement over the replicated table whose healthy
// plan runs an operator on a remote and whose plan without that remote runs
// its operator on the master, so faults on both remotes (configure) degrade
// it onto the master.
func (r *chaosRig) remoteQuery(t *testing.T) string {
	t.Helper()
	for _, sql := range []string{
		"SELECT a5, COUNT(a1) FROM rep_t GROUP BY a5",
		"SELECT a1, COUNT(*) FROM rep_t GROUP BY a1",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.eng.opt.PlanCtx(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(p.Steps, func(s optimizer.Step) bool { return s.Kind != "transfer" })
		if sys := p.Steps[i].System; sys != "teradata" {
			fallback, err := r.eng.opt.PlanExcludingCtx(context.Background(), stmt, map[string]bool{sys: true})
			if err == nil && !slices.ContainsFunc(fallback.Steps, func(s optimizer.Step) bool {
				return s.Kind != "transfer" && s.System != "teradata"
			}) {
				return sql
			}
		}
	}
	t.Fatal("no candidate plan runs on a remote and falls back onto the master")
	return ""
}

// TestChaosOutageFallbackAndRecovery is the seeded chaos scenario from the
// issue: a full hive outage forces degraded plans over the spark replica,
// enough failures open hive's breaker, and after recovery the breaker
// half-opens and closes again with every transition visible in the stats.
func TestChaosOutageFallbackAndRecovery(t *testing.T) {
	rig := newChaosRig(t, resilience.BreakerConfig{
		FailureThreshold: 2,
		OpenTimeout:      time.Minute,
		SuccessThreshold: 1,
	})
	e := rig.eng
	sql := rig.hiveQuery(t)

	// Healthy baseline.
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if res.Degraded || len(res.Plan.Excluded) != 0 {
		t.Fatalf("healthy query marked degraded: %+v", res)
	}
	if h := e.Health(); h.Status != "ok" || h.OpenCount != 0 {
		t.Fatalf("healthy Health = %+v", h)
	}

	// Outage: every query should still answer, degraded onto spark.
	rig.hive.SetOutage(true)
	for i := 0; i < 3; i++ {
		res, err = e.Query(sql)
		if err != nil {
			t.Fatalf("query %d during outage: %v", i, err)
		}
		if !res.Degraded {
			t.Fatalf("query %d during outage not degraded", i)
		}
		if len(res.Plan.Excluded) != 1 || res.Plan.Excluded[0] != "hive" {
			t.Fatalf("query %d Excluded = %v", i, res.Plan.Excluded)
		}
		for _, s := range res.Plan.Steps {
			if s.System == "hive" {
				t.Fatalf("degraded plan still touches hive:\n%s", res.Plan.Explain())
			}
		}
	}
	if st := e.breakers.For("hive").State(); st != resilience.Open {
		t.Fatalf("hive breaker = %v after outage, want Open", st)
	}
	if h := e.Health(); h.Status != "degraded" || h.OpenCount != 1 {
		t.Fatalf("Health during outage = %+v", h)
	}
	rs := e.ResilienceStats()
	if rs.Fallbacks < 3 || rs.DegradedQueries < 3 {
		t.Fatalf("resilience stats during outage = %+v", rs)
	}
	if snap := rs.Breakers["hive"]; snap.Opens < 1 || snap.State != resilience.Open {
		t.Fatalf("hive breaker snapshot = %+v", snap)
	}
	if !rig.hive.Stats().Down || rig.hive.Stats().OutageRejects == 0 {
		t.Fatalf("injector stats = %+v", rig.hive.Stats())
	}
	genOpen := e.breakers.For("hive").Generation()

	// Recovery: the breaker half-opens after the timeout; the first
	// successful probe closes it and plans stop excluding hive.
	rig.hive.SetOutage(false)
	rig.clock.advance(2 * time.Minute)
	res, err = e.Query(sql)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if res.Degraded {
		t.Fatalf("recovered query still degraded: %+v", res.Plan.Excluded)
	}
	if st := e.breakers.For("hive").State(); st != resilience.Closed {
		t.Fatalf("hive breaker = %v after recovery, want Closed", st)
	}
	if gen := e.breakers.For("hive").Generation(); gen <= genOpen {
		t.Fatalf("breaker generation did not advance across recovery: %d <= %d", gen, genOpen)
	}
	if h := e.Health(); h.Status != "ok" || h.OpenCount != 0 {
		t.Fatalf("Health after recovery = %+v", h)
	}
}

// TestChaosOpenBreakerShortCircuits verifies that once the breaker is open,
// queries fall back immediately (rejected by ErrOpen) without touching the
// downed remote, and that an operator bound for hive is stopped by the
// breaker before it is dispatched.
func TestChaosOpenBreakerShortCircuits(t *testing.T) {
	rig := newChaosRig(t, resilience.BreakerConfig{
		FailureThreshold: 1,
		OpenTimeout:      time.Hour,
	})
	sql, hiveSQL := rig.hiveQuery(t), rig.hiveOperatorQuery(t)
	rig.hive.SetOutage(true)
	if _, err := rig.eng.Query(sql); err != nil {
		t.Fatalf("query tripping the breaker: %v", err)
	}
	rejectsBefore := rig.eng.ResilienceStats().Breakers["hive"].Rejected
	callsBefore := rig.hive.Stats().Calls
	res, err := rig.eng.Query(sql)
	if err != nil || !res.Degraded {
		t.Fatalf("query behind open breaker: res=%+v err=%v", res, err)
	}
	if got := rig.hive.Stats().Calls; got != callsBefore {
		t.Errorf("open breaker still reached the remote: %d calls, was %d", got, callsBefore)
	}
	if got := rig.eng.ResilienceStats().Breakers["hive"].Rejected; got <= rejectsBefore {
		t.Errorf("no rejections recorded: %d <= %d", got, rejectsBefore)
	}
	// The hive-only table has no other copy: its operator is rejected by
	// the open breaker and never dispatched to hive.
	callsBefore = rig.hive.Stats().Calls
	if _, err := rig.eng.Query(hiveSQL); !errors.Is(err, resilience.ErrOpen) {
		t.Errorf("hive-only query behind open breaker: %v, want %v", err, resilience.ErrOpen)
	}
	if got := rig.hive.Stats().Calls; got != callsBefore {
		t.Errorf("open breaker let an operator reach hive: %d calls, was %d", got, callsBefore)
	}
}

// TestChaosTransientRetries verifies that transient faults are retried with
// the retry counter advancing, and that exhausted retries still degrade
// onto the master rather than failing the query.
func TestChaosTransientRetries(t *testing.T) {
	rig := newChaosRig(t, resilience.BreakerConfig{
		FailureThreshold: 100, // stay closed; this test isolates retries
		OpenTimeout:      time.Hour,
	})
	sql, hiveSQL := rig.remoteQuery(t), rig.hiveOperatorQuery(t)
	rig.configure(faults.Rates{Transient: 1})
	res, err := rig.eng.Query(sql)
	if err != nil {
		t.Fatalf("query under 100%% transient faults: %v", err)
	}
	if !res.Degraded {
		t.Fatal("query under transient exhaustion not degraded")
	}
	rs := rig.eng.ResilienceStats()
	if rs.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (MaxAttempts-1)", rs.Retries)
	}
	// A statement on the hive-only table has nowhere to fall back to: it
	// fails with the injected fault that exhausted its retries.
	_, err = rig.eng.Query(hiveSQL)
	if err == nil || !strings.Contains(err.Error(), "faults: injected transient failure on hive/") {
		t.Errorf("hive-only query under transient faults: %v, want the injected fault", err)
	}

	// Clearing the faults restores normal service on the remote.
	rig.configure(faults.Rates{})
	res, err = rig.eng.Query(sql)
	if err != nil || res.Degraded {
		t.Fatalf("query after clearing faults: res=%+v err=%v", res, err)
	}
}

// TestQueryContextCancellation verifies the context threads through the
// execution path: a cancelled context aborts the query.
func TestQueryContextCancellation(t *testing.T) {
	e := newEngine(t)
	registerHive(t, e)
	registerTables(t, e, "hive", ts{10000, 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, "SELECT a1 FROM t10000_100"); err == nil {
		t.Fatal("cancelled context did not abort the query")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT a1 FROM t10000_100"); err != nil {
		t.Fatalf("background context query: %v", err)
	}
}

// TestExecuteStepUnknownSystemFirst pins the check ordering in executeStep:
// a plan step naming an unregistered system must fail with the
// unknown-system error even though no estimator exists for it either.
func TestExecuteStepUnknownSystemFirst(t *testing.T) {
	e := newEngine(t)
	_, err := e.executeStep(context.Background(), &optimizer.Step{Kind: "scan", System: "ghost"}, &QueryResult{})
	if err == nil || !strings.Contains(err.Error(), `unknown system "ghost"`) {
		t.Fatalf("err = %v, want unknown-system error", err)
	}
}

// TestFirstStepsShareOneWindow: goroutines executing a (system, operator)
// pair for the first time at once all score into one accuracy window.
func TestFirstStepsShareOneWindow(t *testing.T) {
	e := newEngine(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step := &optimizer.Step{Kind: "sort", System: "teradata", Rows: 100, RowSize: 8, EstimatedSec: 0.01}
			if _, err := e.executeStep(context.Background(), step, &QueryResult{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := accuracyOf(e, "teradata", "sort"); got.Count != n || got.Window != n {
		t.Errorf("teradata/sort window = %+v, want %d observations in one window", got, n)
	}
}

// TestExecuteStepSortClamps covers the sort-step path: non-positive result
// shapes are clamped to one row of one byte and the probe still runs.
func TestExecuteStepSortClamps(t *testing.T) {
	e := newEngine(t)
	for _, shape := range []struct{ rows, size float64 }{{0, 0}, {-5, -5}, {100, 8}} {
		got, err := e.executeStep(context.Background(), &optimizer.Step{
			Kind: "sort", System: "teradata", Rows: shape.rows, RowSize: shape.size,
		}, &QueryResult{})
		if err != nil {
			t.Fatalf("sort step (%v rows): %v", shape.rows, err)
		}
		if got <= 0 {
			t.Errorf("sort step (%v rows) elapsed = %v, want > 0", shape.rows, got)
		}
	}
}
