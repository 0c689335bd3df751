package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/obs"
)

// newObsServer is newTestServer with the observability pipeline attached:
// capture-everything sampling and a fast SLO step so tests never wait
// on wall-clock windows.
func newObsServer(t *testing.T, cfg obs.Config) (*httptest.Server, *obs.Observer) {
	t.Helper()
	e := newBenchEngine(t)
	o, err := obs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(e).WithObservability(o)
	srv := httptest.NewServer(s.Handler(10 * time.Second))
	o.Start(s.ObsSource())
	t.Cleanup(func() {
		srv.Close()
		o.Stop()
	})
	return srv, o
}

// get issues a GET and returns the status plus the decoded JSON object.
func getStatusJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestObsEndpointsDisabled(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/events", "/slo"} {
		var out map[string]string
		if status := getStatusJSON(t, srv.URL+path, &out); status != http.StatusNotFound {
			t.Errorf("%s without observer: status = %d, want 404", path, status)
		}
		if out["code"] != "not_enabled" {
			t.Errorf("%s without observer: code = %q, want not_enabled", path, out["code"])
		}
	}
}

func TestEventsEndpoint(t *testing.T) {
	srv, _ := newObsServer(t, obs.Config{
		Events: obs.RecorderConfig{SampleRate: 1},
		Step:   20 * time.Millisecond,
	})
	for _, path := range []string{
		"/query?q=SELECT+a1+FROM+t10000_100",
		"/query?q=SELECT+nope",
		"/query?trace=1&q=SELECT+a5,+COUNT(a1)+FROM+t1000000_250+GROUP+BY+a5",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var all eventsResponse
	if status := getStatusJSON(t, srv.URL+"/events?n=50", &all); status != http.StatusOK {
		t.Fatalf("/events status = %d", status)
	}
	if all.Total != 3 || len(all.Events) != 3 {
		t.Fatalf("total = %d, events = %d, want 3 each", all.Total, len(all.Events))
	}
	var sawError, sawTraced, sawCapture bool
	for _, ev := range all.Events {
		if ev.Kind != "query" {
			t.Errorf("event kind = %q, want query", ev.Kind)
		}
		// Decoding takes nothing but 16 hex digits.
		if ev.StmtHash == 0 {
			t.Errorf("stmt_hash missing from %+v", ev)
		}
		if ev.Outcome == "error" {
			sawError = true
			if ev.Error == "" {
				t.Error("error event without message")
			}
		}
		if ev.TraceID != 0 {
			sawTraced = true
			// The exemplar's trace ID must resolve on /trace.
			var traces []struct {
				ID uint64 `json:"id"`
			}
			getJSON(t, srv.URL+"/trace", &traces)
			var found bool
			for _, tr := range traces {
				found = found || tr.ID == ev.TraceID
			}
			if !found {
				t.Errorf("event trace_id %d not in /trace", ev.TraceID)
			}
		}
		if ev.Capture != "" {
			sawCapture = true
		}
	}
	if !sawError || !sawTraced || !sawCapture {
		t.Errorf("sawError=%v sawTraced=%v sawCapture=%v, want all true", sawError, sawTraced, sawCapture)
	}

	// ?errors=1 keeps only the failed query.
	var errs eventsResponse
	getStatusJSON(t, srv.URL+"/events?errors=1", &errs)
	if len(errs.Events) != 1 || errs.Events[0].Outcome != "error" {
		t.Errorf("errors=1 events = %+v, want exactly the error event", errs.Events)
	}
	// ?system=hive keeps plans that touched the remote; the parse error has
	// no plan and drops out.
	var hive eventsResponse
	getStatusJSON(t, srv.URL+"/events?system=hive", &hive)
	if len(hive.Events) == 0 {
		t.Error("system=hive matched nothing")
	}
	for _, ev := range hive.Events {
		var ok bool
		for _, sys := range ev.Systems {
			ok = ok || sys == "hive"
		}
		if !ok {
			t.Errorf("system=hive returned event with systems %v", ev.Systems)
		}
	}
	// An impossible latency floor matches nothing.
	var slow eventsResponse
	getStatusJSON(t, srv.URL+"/events?min_ms=100000", &slow)
	if len(slow.Events) != 0 {
		t.Errorf("min_ms=100000 returned %d events", len(slow.Events))
	}
	// ?since= past the newest ID is an empty poll.
	var none eventsResponse
	getStatusJSON(t, srv.URL+"/events?since=3", &none)
	if len(none.Events) != 0 {
		t.Errorf("since=newest returned %d events", len(none.Events))
	}
}

// TestSLOEndpoint: /slo serves every declared objective's evaluation, and it
// is the only route that does — /health carries no copy.
func TestSLOEndpoint(t *testing.T) {
	srv, _ := newObsServer(t, obs.Config{
		Events:     obs.RecorderConfig{SampleRate: 1},
		Step:       20 * time.Millisecond,
		Objectives: obs.DefaultObjectives(0.999, 250*time.Millisecond, 2, time.Second, 5*time.Second, 14),
	})
	var slo sloResponse
	if status := getStatusJSON(t, srv.URL+"/slo", &slo); status != http.StatusOK {
		t.Fatalf("/slo status = %d", status)
	}
	if !slo.Enabled || len(slo.Objectives) != 3 {
		t.Fatalf("slo = %+v, want 3 objectives enabled", slo)
	}
	names := map[string]bool{}
	for _, a := range slo.Objectives {
		names[a.Name] = true
		switch a.State {
		case obs.StateInactive, obs.StatePending, obs.StateFiring, obs.StateResolved:
		default:
			t.Errorf("objective %s in unknown state %q", a.Name, a.State)
		}
	}
	for _, want := range []string{"availability", "latency-p99", "estimator-qerror"} {
		if !names[want] {
			t.Errorf("objective %q missing from /slo", want)
		}
	}

	var health map[string]json.RawMessage
	getStatusJSON(t, srv.URL+"/health", &health)
	if _, ok := health["slo"]; ok {
		t.Errorf("/health carries an slo block: %s", health["slo"])
	}
}

// TestSLOSnapshotsWhileSampling reads /slo while the SLO's loop samples the
// serving counters every millisecond and queries move them. Run under -race:
// the loop is the sample ring's one writer and reader, and /slo reads the
// states it writes.
func TestSLOSnapshotsWhileSampling(t *testing.T) {
	srv, o := newObsServer(t, obs.Config{
		Events:     obs.RecorderConfig{SampleRate: 1},
		Step:       time.Millisecond,
		Objectives: obs.DefaultObjectives(0.999, 250*time.Millisecond, 2, 5*time.Millisecond, 20*time.Millisecond, 14),
	})
	for i := 0; i < 50; i++ {
		q := "/query?q=SELECT+a1+FROM+t10000_100+WHERE+a1+<+" + strconv.Itoa(i)
		if i%5 == 0 {
			q = "/query?q=SELECT+nope"
		}
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		var slo sloResponse
		if status := getStatusJSON(t, srv.URL+"/slo", &slo); status != http.StatusOK || len(slo.Objectives) != 3 {
			t.Fatalf("/slo = %d %+v, want 200 with 3 objectives", status, slo)
		}
		if alerts := o.SLO.Snapshot(); len(alerts) != 3 {
			t.Fatalf("Snapshot() holds %d alerts, want 3", len(alerts))
		}
	}
}

func TestErrorCodes(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		path, code string
		status     int
	}{
		{"/query?q=SELECT", "parse_error", http.StatusBadRequest},
		{"/query?q=SELECT+%2B", "parse_error", http.StatusBadRequest}, // lexer error path
		{"/query?q=SELECT+a1+FROM+no_such_table", "bad_request", http.StatusBadRequest},
		{"/faults", "not_enabled", http.StatusNotFound},
		{"/explain?q=SELECT+a1+FROM+no_such_table", "bad_request", http.StatusBadRequest},
		// A traced failure is classified like the untraced one, beside its
		// rendered span tree.
		{"/query?trace=1&q=SELEC", "parse_error", http.StatusBadRequest},
		{"/query?trace=1&q=SELECT+a1+FROM+no_such_table", "bad_request", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var out map[string]string
		if status := getStatusJSON(t, srv.URL+tc.path, &out); status != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.path, status, tc.status)
		}
		if out["code"] != tc.code {
			t.Errorf("%s: code = %q, want %q (error %q)", tc.path, out["code"], tc.code, out["error"])
		}
		if out["error"] == "" {
			t.Errorf("%s: missing error message", tc.path)
		}
		if strings.Contains(tc.path, "trace=1") && out["trace_text"] == "" {
			t.Errorf("%s: missing trace_text", tc.path)
		}
	}
}

func TestTraceFilters(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, q := range []string{
		"SELECT+a1+FROM+t10000_100",
		"SELECT+a1+FROM+no_such_table",
	} {
		resp, err := http.Get(srv.URL + "/query?trace=1&q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var all []struct {
		ID    uint64 `json:"id"`
		Error string `json:"error"`
	}
	getJSON(t, srv.URL+"/trace", &all)
	if len(all) != 2 {
		t.Fatalf("recorded %d traces, want 2", len(all))
	}
	var failed []struct {
		ID    uint64 `json:"id"`
		Error string `json:"error"`
	}
	getJSON(t, srv.URL+"/trace?errors=1", &failed)
	if len(failed) != 1 || failed[0].Error == "" {
		t.Errorf("errors=1 traces = %+v, want the one failed trace", failed)
	}
	var onHive []json.RawMessage
	getJSON(t, srv.URL+"/trace?system=hive", &onHive)
	if len(onHive) != 1 {
		t.Errorf("system=hive matched %d traces, want 1 (the executed query)", len(onHive))
	}
	var slow []json.RawMessage
	getJSON(t, srv.URL+"/trace?min_ms=600000", &slow)
	if len(slow) != 0 {
		t.Errorf("min_ms=600000 matched %d traces", len(slow))
	}
	// Filters compose with ?n= and ?format=text.
	resp, err := http.Get(srv.URL + "/trace?errors=1&format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "trace #") {
		t.Errorf("filtered text rendering:\n%s", body)
	}
}

// TestTraceAndEventsFiltersAgree pins the one filter both endpoints run: with
// every query traced and every event captured, event N carries trace N's ID,
// so a filter must keep the same trace IDs on /trace as on /events.
func TestTraceAndEventsFiltersAgree(t *testing.T) {
	srv, _ := newObsServer(t, obs.Config{Events: obs.RecorderConfig{SampleRate: 1}})
	for _, q := range []string{
		"SELECT+a1+FROM+t10000_100",
		"SELECT+a1+FROM+no_such_table",
		"SELECT+a5,+COUNT(a1)+FROM+t1000000_250+GROUP+BY+a5",
		"SELECT+nope",
		"SELECT+a1+FROM+t10000_100+WHERE+a1+<+7",
	} {
		resp, err := http.Get(srv.URL + "/query?trace=1&q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, tc := range []struct {
		filter string
		want   int // -1: any count, as long as the endpoints agree
	}{
		{"", 5},
		{"n=2", 2},
		{"errors=1", 2},
		{"errors=1&n=1", 1},
		{"errors=0&n=-3", 5},
		{"system=hive", -1},
		{"system=hive&n=1", 1},
		{"system=hive&errors=1", 0},
		{"system=nowhere", 0},
		{"min_ms=0.000001", 5},
		{"min_ms=0.000001&errors=1&n=4", 2},
		{"min_ms=600000", 0},
	} {
		var traces []struct {
			ID uint64 `json:"id"`
		}
		getJSON(t, srv.URL+"/trace?"+tc.filter, &traces)
		var events eventsResponse
		getStatusJSON(t, srv.URL+"/events?"+tc.filter, &events)
		var fromTrace, fromEvents []uint64
		for _, tr := range traces {
			fromTrace = append(fromTrace, tr.ID)
		}
		for _, ev := range events.Events {
			fromEvents = append(fromEvents, ev.TraceID)
		}
		if !slices.Equal(fromTrace, fromEvents) || tc.want >= 0 && len(fromTrace) != tc.want {
			t.Errorf("filter %q: /trace keeps IDs %v, /events keeps trace IDs %v, want %d of them",
				tc.filter, fromTrace, fromEvents, tc.want)
		}
	}
}

func TestPromObservabilityMetrics(t *testing.T) {
	srv, _ := newObsServer(t, obs.Config{
		Events:     obs.RecorderConfig{SampleRate: 1},
		Step:       20 * time.Millisecond,
		Objectives: obs.DefaultObjectives(0.999, 250*time.Millisecond, 0, time.Second, 5*time.Second, 14),
	})
	// A traced query pins exemplars into the latency histograms; a failed
	// one is captured by the always-on error rule.
	for _, path := range []string{"/query?trace=1&q=SELECT+a1+FROM+t10000_100", "/query?q=SELECT+nope+FROM+missing"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := checkPromFormat(t, string(raw))

	for _, name := range []string{
		"intellisphere_goroutines",
		"intellisphere_heap_inuse_bytes",
		"intellisphere_gc_pause_seconds_total",
		"intellisphere_gomaxprocs",
		"intellisphere_events_captured_total",
		"intellisphere_query_seconds_count",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
	for name, want := range map[string]float64{
		"intellisphere_query_seconds_count":   2,
		"intellisphere_events_captured_total": 2,
		"intellisphere_events_errors_total":   1,
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	var sawBuild, sawSLO bool
	for k := range samples {
		sawBuild = sawBuild || strings.HasPrefix(k, "intellisphere_build_info{")
		sawSLO = sawSLO || strings.HasPrefix(k, "intellisphere_slo_state{")
	}
	if !sawBuild {
		t.Error("no build_info sample")
	}
	if !sawSLO {
		t.Error("no slo_state samples")
	}
	if !strings.Contains(string(raw), ` # {trace_id="`) {
		t.Error("no exemplar suffix in exposition")
	}
}

// TestCachedFromSecondSighting: the statement cache admits on second sight,
// whichever route brings the statement — /query, a /query/batch element and a
// /query/stream frame go through one engine path and count as sightings of
// one cache. The first and second sighting are planned, the third is served
// from the cache, and each statement's wide event says which.
func TestCachedFromSecondSighting(t *testing.T) {
	srv, _ := newObsServer(t, obs.Config{
		Events: obs.RecorderConfig{SampleRate: 1},
		Step:   20 * time.Millisecond,
	})
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if raw, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || strings.Contains(string(raw), `"error"`) {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
	}
	routes := []struct {
		name string
		send func(sql string)
	}{
		{"query", func(sql string) { post("/query", `{"sql": "`+sql+`"}`) }},
		{"batch", func(sql string) { post("/query/batch", `["SELECT a1 FROM t100000_100", "`+sql+`"]`) }},
		{"stream", func(sql string) { post("/query/stream", sql+"\n") }},
	}
	sent := map[string]string{"all": "SELECT a1 FROM t10000_100 WHERE a1 < 777"}
	for i, r := range routes {
		sent[r.name] = "SELECT a1 FROM t10000_100 WHERE a1 < 100 AND a2 < " + strconv.Itoa(i+1)
		for sighting := 0; sighting < 3; sighting++ {
			r.send(sent[r.name])
		}
		r.send(sent["all"]) // one sighting a route
	}

	var all eventsResponse
	if status := getStatusJSON(t, srv.URL+"/events?n=100", &all); status != http.StatusOK {
		t.Fatalf("/events status = %d", status)
	}
	slices.Reverse(all.Events) // oldest first
	for name, sql := range sent {
		var hits []bool
		for _, ev := range all.Events {
			if ev.SQL == sql {
				hits = append(hits, ev.CacheHit)
			}
		}
		if !slices.Equal(hits, []bool{false, false, true}) {
			t.Errorf("%s: cache_hit over the statement's sightings = %v, want [false false true]", name, hits)
		}
	}
	m := checkPromFormat(t, getText(t, srv.URL+"/metrics/prom"))
	if hits, size := m["intellisphere_plan_cache_hits_total"], m["intellisphere_plan_cache_size"]; hits != 4+2 || size != 4+1 {
		t.Errorf("%v plan-cache hits and %v statements resident, want 6 (one a statement, two for the batches' companion, sent four times) and 5", hits, size)
	}
}

// TestPromEventLogCounters: the event log's two failure counters move when
// their failure happens. Ten captured queries into a four-slot ring before
// the sink's first drain lose six events; a log on /dev/full, which answers
// every write with ENOSPC, also fails to write the four it reaches.
func TestPromEventLogCounters(t *testing.T) {
	for _, tc := range []struct {
		name, path        string
		lost, writeErrors float64
	}{
		{"lapped ring", filepath.Join(t.TempDir(), "events.ndjson"), 6, 0},
		{"full disk", "/dev/full", 6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := os.Stat(tc.path); tc.path == "/dev/full" && err != nil {
				t.Skip("no /dev/full here")
			}
			o, err := obs.New(obs.Config{
				Events:       obs.RecorderConfig{SampleRate: 1, RingSize: 4},
				EventLogPath: tc.path,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := New(newBenchEngine(t)).WithObservability(o)
			h := s.Handler(10 * time.Second)
			for i := 0; i < 10; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query?q=SELECT+a1+FROM+t10000_100", nil))
			}
			o.Start(s.ObsSource())
			o.Stop() // the sink's final drain
			m := promScrape(t, h)
			if got := m["intellisphere_event_log_lost_total"]; got != tc.lost {
				t.Errorf("event_log_lost_total = %v, want %v", got, tc.lost)
			}
			if got := m["intellisphere_event_log_write_errors_total"]; got != tc.writeErrors {
				t.Errorf("event_log_write_errors_total = %v, want %v", got, tc.writeErrors)
			}
		})
	}
}
