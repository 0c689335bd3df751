package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/metrics"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
)

// newChaosServer builds a two-remote federation — hive behind a fault
// injector, one of its big tables replicated onto spark (rep_t) and one only
// on hive (hive_t) — and serves it with the
// /faults control plane enabled. The breaker is tuned tight so a handful
// of requests drive the full closed → open → half-open → closed cycle.
func newChaosServer(t *testing.T) (*httptest.Server, *engine.Engine, *faults.Injector) {
	t.Helper()
	e, err := engine.New(engine.Config{
		Seed: 9,
		Retry: resilience.RetryPolicy{
			Seed:  9,
			Sleep: func(context.Context, time.Duration) error { return nil },
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 2,
			OpenTimeout:      50 * time.Millisecond,
			SuccessThreshold: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.Wrap(h, faults.Config{Seed: 7})
	if _, _, err := e.RegisterRemoteSubOp(inj, remote.EngineHive, subop.InHouseComparable); err != nil {
		t.Fatal(err)
	}
	sc := cluster.DefaultHive()
	sc.Name = "spark-vm"
	s, err := remote.NewSpark("spark", sc, remote.Options{NoiseAmp: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RegisterRemoteSubOp(s, remote.EngineSpark, subop.InHouseComparable); err != nil {
		t.Fatal(err)
	}
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
	srv := httptest.NewServer(New(e).WithFaults(map[string]*faults.Injector{"hive": inj}).Handler(10 * time.Second))
	t.Cleanup(srv.Close)
	return srv, e, inj
}

// postFault sends one request to the fault control plane.
func postFault(t *testing.T, url string, req faultRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /faults status = %d", resp.StatusCode)
	}
}

// outage builds the /faults request that forces or lifts a system's outage.
func outage(system string, down bool) faultRequest {
	return faultRequest{System: system, Outage: &down}
}

// TestChaosServeOutageAndRecovery drives the serving stack through a full
// outage cycle: degraded answers while hive is down, /health flipping to
// 503 once the breaker opens, and both recovering after the outage lifts.
// The fault counters on /metrics/prom are checked where the faults are
// raised: at the outage's quiescent point they are the numbers /health
// reports, and a transient fault rate dialled in for one query moves
// retries_total.
func TestChaosServeOutageAndRecovery(t *testing.T) {
	srv, e, _ := newChaosServer(t)
	// Spark runs every operator on rep_t cheaper than hive, so q reads the
	// table from hive and runs on the master; a hive outage moves the read
	// onto the spark copy. hq runs on hive, where a transient fault reaches
	// it.
	const q = "/query?q=SELECT+a1+FROM+rep_t+WHERE+a1+<+1000"
	const hq = "/query?q=SELECT+a5,+COUNT(a1)+FROM+hive_t+GROUP+BY+a5"

	var qr queryResponse
	if resp := getJSON(t, srv.URL+q, &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy query status = %d", resp.StatusCode)
	}
	if qr.Degraded {
		t.Fatalf("healthy query degraded: %+v", qr.Excluded)
	}
	var h engine.Health
	if resp := getJSON(t, srv.URL+"/health", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy /health = %d %+v", resp.StatusCode, h)
	}

	postFault(t, srv.URL, outage("hive", true))
	for i := 0; i < 3; i++ {
		qr = queryResponse{}
		if resp := getJSON(t, srv.URL+q, &qr); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d during outage status = %d", i, resp.StatusCode)
		}
		if !qr.Degraded || len(qr.Excluded) != 1 || qr.Excluded[0] != "hive" {
			t.Fatalf("query %d during outage: degraded=%v excluded=%v", i, qr.Degraded, qr.Excluded)
		}
	}
	if resp := getJSON(t, srv.URL+"/health", &h); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/health during outage = %d %+v", resp.StatusCode, h)
	}
	if h.Status != "degraded" || h.OpenCount != 1 {
		t.Fatalf("/health body during outage = %+v", h)
	}
	if snap := h.Resilience.Breakers["hive"]; snap.State != resilience.Open || snap.Opens < 1 {
		t.Fatalf("hive breaker over /health = %+v", snap)
	}
	if h.Resilience.Fallbacks < 3 || h.Resilience.DegradedQueries < 3 {
		t.Fatalf("fallback counters over /health = %+v", h.Resilience)
	}

	var fs []faultStatus
	getJSON(t, srv.URL+"/faults", &fs)
	if len(fs) != 1 || fs[0].System != "hive" || !fs[0].Down || fs[0].Stats.OutageRejects == 0 {
		t.Fatalf("/faults during outage = %+v", fs)
	}
	m := checkPromFormat(t, getText(t, srv.URL+"/metrics/prom"))
	hive := h.Resilience.Breakers["hive"]
	for name, want := range map[string]uint64{
		"intellisphere_fallbacks_total":                       h.Resilience.Fallbacks,
		"intellisphere_degraded_queries_total":                h.Resilience.DegradedQueries,
		`intellisphere_breaker_opens_total{system="hive"}`:    hive.Opens,
		`intellisphere_breaker_rejected_total{system="hive"}`: hive.Rejected,
	} {
		if got, ok := m[name]; !ok || got != float64(want) {
			t.Errorf("during outage %s = %v (present %v), /health says %d", name, got, ok, want)
		}
	}

	postFault(t, srv.URL, outage("hive", false))
	// Let the 50ms open window lapse so the next call half-opens the
	// breaker; its success closes it again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(60 * time.Millisecond)
		qr = queryResponse{}
		getJSON(t, srv.URL+q, &qr)
		if !qr.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queries still degraded after recovery")
		}
	}
	if st := e.ResilienceStats().Breakers["hive"].State; st != resilience.Closed {
		t.Fatalf("hive breaker after recovery = %v", st)
	}
	if resp := getJSON(t, srv.URL+"/health", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/health after recovery = %d %+v", resp.StatusCode, h)
	}

	retries := func() float64 {
		return checkPromFormat(t, getText(t, srv.URL+"/metrics/prom"))["intellisphere_retries_total"]
	}
	before := retries()
	postFault(t, srv.URL, faultRequest{System: "hive", Rates: &faults.Rates{Transient: 1}})
	// hive_t has no other copy, so no degraded plan avoids hive: the remote's
	// failure is answered as the server's, never as the client's statement.
	for _, path := range []string{hq, hq + "&trace=1"} {
		var out map[string]any
		resp := getJSON(t, srv.URL+path, &out)
		if resp.StatusCode != http.StatusServiceUnavailable || out["code"] != "unavailable" {
			t.Errorf("%s under transient hive faults = %d %v: %v", path, resp.StatusCode, out["code"], out["error"])
		}
		if traced := strings.Contains(path, "trace=1"); traced != (out["trace_text"] != nil) {
			t.Errorf("%s: trace_text present = %v", path, !traced)
		}
	}
	postFault(t, srv.URL, faultRequest{System: "hive", Rates: &faults.Rates{}})
	if after := retries(); after <= before || after != float64(e.Stats().Resilience.Retries) {
		t.Errorf("retries_total %v before a query under transient faults, %v after; the engine counts %d",
			before, after, e.Stats().Resilience.Retries)
	}
}

// TestFaultsEndpointDisabled pins the 404 when no injectors are wired.
func TestFaultsEndpointDisabled(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/faults")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/faults without injectors = %d", resp.StatusCode)
	}
}

// TestHealthEndpointHealthy pins the healthy-path /health payload shape.
func TestHealthEndpointHealthy(t *testing.T) {
	srv, _ := newTestServer(t)
	var h engine.Health
	if resp := getJSON(t, srv.URL+"/health", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/health status = %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.OpenCount != 0 {
		t.Fatalf("/health = %+v", h)
	}
}

// TestDriftThresholdIsOneDecision: the tuner's DriftQ is the threshold of the
// accuracy windows themselves, so Stats, /metrics/prom and the tuner agree.
// Two windows sit between the configured 1.2 and the default 2.0 — hive's
// aggregation under a 2x latency regime, created before the tuner starts, and
// the master's scan, created after — and both must read drifting everywhere.
func TestDriftThresholdIsOneDecision(t *testing.T) {
	srv, e, inj := newChaosServer(t)
	inj.SetRates(faults.Rates{Latency: 1, LatencyFactor: 2})
	query := func(sql string) {
		t.Helper()
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	query("SELECT a5, COUNT(a1) FROM hive_t GROUP BY a5")
	tuner := e.StartTuner(engine.TunerConfig{Interval: 5 * time.Millisecond, DriftQ: 1.2})
	defer tuner.Stop()
	query("SELECT a1 FROM rep_t WHERE a1 < 100")

	acc := e.Stats().Accuracy
	prom := getText(t, srv.URL+"/metrics/prom")
	for _, pair := range [][2]string{{"hive", "aggregation"}, {"teradata", "scan"}} {
		system, op := pair[0], pair[1]
		var w engine.AccuracyStat
		for _, a := range acc {
			if a.System == system && a.Operator == op {
				w = a
			}
		}
		if w.MeanQError <= 1.2 || w.MeanQError >= metrics.DefaultDriftQError {
			t.Fatalf("%s/%s mean q-error = %v, want between the two thresholds", system, op, w.MeanQError)
		}
		if !w.Drifting {
			t.Errorf("Stats: %s/%s at mean q-error %v not drifting under DriftQ 1.2", system, op, w.MeanQError)
		}
		line := `intellisphere_estimator_drifting{system="` + system + `",operator="` + op + `"} 1`
		if !strings.Contains(prom, line+"\n") {
			t.Errorf("/metrics/prom lacks %q", line)
		}
	}
	// Only hive can arm the tuner: the master's windows never do.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Tuning.Attempts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tuner never armed on the drifting window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
