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
// injector, its big table replicated onto spark — and serves it with the
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
	tb, err := datagen.Table(10000000, 1000, "hive")
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = "rep_t"
	tb.Replicas = []string{"spark"}
	if err := e.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(e).WithFaults(map[string]*faults.Injector{"hive": inj}).Handler(10 * time.Second))
	t.Cleanup(srv.Close)
	return srv, e, inj
}

// postFault flips one system's outage switch through the control plane.
func postFault(t *testing.T, url, system string, outage bool) {
	t.Helper()
	body, _ := json.Marshal(faultRequest{System: system, Outage: &outage})
	resp, err := http.Post(url+"/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /faults status = %d", resp.StatusCode)
	}
}

// TestChaosServeOutageAndRecovery drives the serving stack through a full
// outage cycle: degraded answers while hive is down, /health flipping to
// 503 once the breaker opens, and both recovering after the outage lifts.
func TestChaosServeOutageAndRecovery(t *testing.T) {
	srv, e, _ := newChaosServer(t)
	const q = "/query?q=SELECT+a5,+COUNT(a1)+FROM+rep_t+GROUP+BY+a5"

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

	postFault(t, srv.URL, "hive", true)
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

	postFault(t, srv.URL, "hive", false)
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
	if st := e.Breaker("hive").State(); st != resilience.Closed {
		t.Fatalf("hive breaker after recovery = %v", st)
	}
	if resp := getJSON(t, srv.URL+"/health", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/health after recovery = %d %+v", resp.StatusCode, h)
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
	query("SELECT a5, COUNT(a1) FROM rep_t GROUP BY a5")
	tuner := e.StartTuner(engine.TunerConfig{Interval: 5 * time.Millisecond, DriftQ: 1.2})
	defer tuner.Stop()
	query("SELECT a1 FROM rep_t WHERE a1 < 100")

	acc := e.Stats().Accuracy
	prom := getText(t, srv.URL+"/metrics/prom")
	for _, key := range []string{"hive/aggregation", "teradata/scan"} {
		w := acc[key]
		if w.MeanQError <= 1.2 || w.MeanQError >= metrics.DefaultDriftQError {
			t.Fatalf("%s mean q-error = %v, want between the two thresholds", key, w.MeanQError)
		}
		if !w.Drifting {
			t.Errorf("Stats: %s at mean q-error %v not drifting under DriftQ 1.2", key, w.MeanQError)
		}
		system, op := splitAccuracyKey(key)
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
