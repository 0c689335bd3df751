package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/engine"
	"intellisphere/internal/remote"
)

// newBenchEngine builds the shared one-remote test federation; it serves
// both tests and benchmarks (testing.TB).
func newBenchEngine(t testing.TB) *engine.Engine {
	t.Helper()
	return newBenchEngineConfig(t, engine.Config{Seed: 9})
}

// newBenchEngineConfig is newBenchEngine on an engine built from cfg.
func newBenchEngineConfig(t testing.TB, cfg engine.Config) *engine.Engine {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RegisterRemoteSubOp(h, remote.EngineHive, subop.InHouseComparable); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct {
		rows int64
		size int
	}{{10000, 100}, {100000, 100}, {1000000, 250}} {
		tb, err := datagen.Table(spec.rows, spec.size, "hive")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Materialize("t10000_100"); err != nil {
		t.Fatal(err)
	}
	return e
}

// newTestServer builds a one-remote federation behind an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	e := newBenchEngine(t)
	srv := httptest.NewServer(New(e).Handler(10 * time.Second))
	t.Cleanup(srv.Close)
	return srv, e
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

// getText fetches a URL and returns its body.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(raw)
}

func TestQueryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	// POST JSON body.
	body := strings.NewReader(`{"sql": "SELECT a1 FROM t10000_100 WHERE a1 < 100"}`)
	resp, err := http.Post(srv.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Explain, "plan (estimated") {
		t.Errorf("explain = %q", qr.Explain)
	}
	if qr.ActualSec <= 0 || len(qr.StepActuals) == 0 {
		t.Errorf("actuals = %v / %v", qr.ActualSec, qr.StepActuals)
	}
	// The table is materialized, so real rows come back.
	if len(qr.Columns) == 0 || len(qr.Rows) == 0 {
		t.Errorf("rows missing: cols=%v rows=%d", qr.Columns, len(qr.Rows))
	}
}

func TestQueryEndpointGETAndErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	var qr queryResponse
	resp := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll("SELECT a1 FROM t100000_100", " ", "+"), &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Bad SQL → 400 with a JSON error.
	var e map[string]string
	resp = getJSON(t, srv.URL+"/query?q=NOT+SQL", &e)
	if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
		t.Errorf("bad SQL: status %d, body %v", resp.StatusCode, e)
	}
	// Missing statement → 400.
	r2, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d", r2.StatusCode)
	}
}

// A local aggregate that overflows float64 is a statement error on every
// route: 400 bad_request on /query (traced or not), an error element in a
// /query/batch answer, an error frame in its /query/stream slot. Each answer
// must stay JSON; ±Inf in a row used to be written as a bare token (or, traced,
// as a 200 with an empty body) and poisoned a whole batch.
func TestAggregateOverflowAnswersError(t *testing.T) {
	srv, _ := newTestServer(t)
	good := "SELECT a1 FROM t10000_100 WHERE a1 < 3"
	bad := []string{
		"SELECT SUM(a1 + 1e308) FROM t10000_100",
		"SELECT MAX(a1 + 1e308 + 1e308) FROM t10000_100",
		"SELECT a2, SUM(a1 - 1e308) FROM t10000_100 GROUP BY a2",
	}
	for _, sql := range bad {
		for _, suffix := range []string{"", "&trace=1"} {
			var e map[string]string
			resp := getJSON(t, srv.URL+"/query?q="+url.QueryEscape(sql)+suffix, &e)
			if resp.StatusCode != http.StatusBadRequest || e["code"] != "bad_request" || !strings.Contains(e["error"], "out of range") {
				t.Errorf("/query %q%s: status %d, body %v", sql, suffix, resp.StatusCode, e)
			}
		}
	}

	stmts := append([]string{good}, bad...)
	var got []map[string]any
	if resp := postBatch(t, srv.URL, string(mustJSON(t, stmts)), &got); resp.StatusCode != http.StatusOK || len(got) != len(stmts) {
		t.Fatalf("/query/batch: status %d, %d elements", resp.StatusCode, len(got))
	}
	if got[0]["error"] != nil || got[0]["rows"] == nil {
		t.Errorf("batch element 0: %v", got[0])
	}
	for i := 1; i < len(got); i++ {
		if msg, _ := got[i]["error"].(string); !strings.Contains(msg, "out of range") {
			t.Errorf("batch element %d: %v", i, got[i])
		}
	}

	resp, err := http.Post(srv.URL+"/query/stream", "application/x-ndjson", strings.NewReader(strings.Join(stmts, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for i := range stmts {
		frame, err := readFrame(br)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		var slot map[string]any
		if err := json.Unmarshal(frame, &slot); err != nil {
			t.Fatalf("stream frame %d is not JSON: %v (%s)", i, err, frame)
		}
		if msg, _ := slot["error"].(string); (i > 0) != strings.Contains(msg, "out of range") {
			t.Errorf("stream frame %d: %s", i, frame)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	const sql = "SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1"
	var first, second explainResponse
	getJSON(t, srv.URL+"/explain?q="+strings.ReplaceAll(sql, " ", "+"), &first)
	getJSON(t, srv.URL+"/explain?q="+strings.ReplaceAll(sql, " ", "+"), &second)
	if first.Explain == "" || first.Explain != second.Explain {
		t.Errorf("cached explain differs:\n%q\n%q", first.Explain, second.Explain)
	}
}

// TestProfilesEndpoint checks each system's costing profile as GET /models
// lists it; /profiles, its old second listing, is gone.
func TestProfilesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var mr modelsResponse
	getJSON(t, srv.URL+"/models", &mr)
	byName := map[string]modelInfo{}
	for _, m := range mr.Systems {
		byName[m.System] = m
	}
	if p, ok := byName["hive"]; !ok || p.Approach != "hybrid" || p.Active != "sub-op" || p.Engine == "" {
		t.Errorf("hive profile = %+v, want a hybrid costing through its sub-op side", byName["hive"])
	}
	if p, ok := byName["teradata"]; !ok || p.Approach != "sub-op" || p.Active != "" || p.Engine != "" {
		t.Errorf("master profile = %+v, want a plain sub-op estimator", byName["teradata"])
	}
	resp, err := http.Get(srv.URL + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /profiles = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	const sql = "SELECT a1 FROM t100000_100"
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				var qr queryResponse
				getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(sql, " ", "+"), &qr)
			}
		}()
	}
	wg.Wait()
	m := checkPromFormat(t, getText(t, srv.URL+"/metrics/prom"))
	if got := m["intellisphere_queries_total"]; got != 12 {
		t.Errorf("queries = %v, want 12", got)
	}
	if m["intellisphere_plan_cache_hits_total"] == 0 {
		t.Error("no plan-cache hits over repeated statements")
	}
	if m["intellisphere_plan_seconds_count"] == 0 || m["intellisphere_execute_seconds_count"] == 0 {
		t.Errorf("stage histograms empty: plan %v, execute %v",
			m["intellisphere_plan_seconds_count"], m["intellisphere_execute_seconds_count"])
	}
	if m["intellisphere_uptime_seconds"] <= 0 {
		t.Errorf("uptime = %v", m["intellisphere_uptime_seconds"])
	}
	// /metrics/prom is the only metrics route: the JSON twin is gone.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics = %d, want 404", resp.StatusCode)
	}
}
