package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/obs"
)

func TestQueryTraceParam(t *testing.T) {
	srv, eng := newTestServer(t)
	resp, err := http.Post(srv.URL+"/query?trace=1", "application/json",
		strings.NewReader(`{"sql": "SELECT a5, COUNT(a1) FROM t1000000_250 GROUP BY a5"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		ActualSec float64 `json:"actual_sec"`
		Trace     *struct {
			ID   uint64 `json:"id"`
			Root struct {
				Name     string            `json:"name"`
				Children []json.RawMessage `json:"children"`
			} `json:"root"`
		} `json:"trace"`
		TraceText string `json:"trace_text"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Root.Name != "query" || len(out.Trace.Root.Children) == 0 {
		t.Fatalf("trace payload = %+v", out.Trace)
	}
	for _, want := range []string{"trace #", "parse", "plan", "cost on ", "execute", "aggregation on "} {
		if !strings.Contains(out.TraceText, want) {
			t.Errorf("trace_text missing %q:\n%s", want, out.TraceText)
		}
	}
	if eng.Stats().Traces != 1 {
		t.Errorf("engine recorded %d traces", eng.Stats().Traces)
	}

	// An untraced query on the same server stays trace-free.
	var plain map[string]json.RawMessage
	getJSON(t, srv.URL+"/query?q=SELECT+a1+FROM+t10000_100", &plain)
	if _, ok := plain["trace"]; ok {
		t.Error("untraced response carries a trace")
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var empty []json.RawMessage
	getJSON(t, srv.URL+"/trace", &empty)
	if len(empty) != 0 {
		t.Fatalf("fresh server has %d traces", len(empty))
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/query?trace=true&q=SELECT+a1+FROM+t10000_100")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var traces []struct {
		ID  uint64 `json:"id"`
		SQL string `json:"sql"`
	}
	getJSON(t, srv.URL+"/trace?n=2", &traces)
	if len(traces) != 2 || traces[0].ID != 3 || traces[1].ID != 2 {
		t.Fatalf("traces = %+v, want IDs 3,2 newest-first", traces)
	}
	resp, err := http.Get(srv.URL + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "trace #3") || !strings.Contains(string(body), "execute") {
		t.Errorf("text rendering:\n%s", body)
	}
}

// promSampleRe matches one exposition sample line: a metric name, optional
// labels, a float value, and an optional OpenMetrics exemplar suffix
// (" # {labels} value [timestamp]") on histogram bucket lines.
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( # \{[^{}]*\} [-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?( [-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)?)?$`)

// checkPromFormat is a strict text-exposition (0.0.4) parser: every line is
// a well-formed comment or sample, every sample's base name is declared by a
// preceding # TYPE, histogram buckets are cumulative with an +Inf bucket
// matching _count, and no value is NaN or infinite (everything here must
// also survive JSON).
func checkPromFormat(t *testing.T, body string) (samples map[string]float64) {
	t.Helper()
	samples = map[string]float64{}
	typed := map[string]string{}
	var lastBucket = map[string]float64{} // metric name -> last cumulative bucket count
	sc := bufio.NewScanner(strings.NewReader(body))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("line %d: malformed comment %q", line, text)
				continue
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", line, text)
			continue
		}
		name, labels, valText := m[1], m[2], m[3]
		if m[5] != "" && !strings.HasSuffix(name, "_bucket") {
			t.Errorf("line %d: exemplar on non-bucket sample %q", line, name)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if bn := strings.TrimSuffix(name, suffix); bn != name && typed[bn] == "histogram" {
				base = bn
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("line %d: sample %q has no preceding # TYPE", line, name)
		}
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil || valText == "NaN" || strings.Contains(valText, "Inf") {
			t.Errorf("line %d: bad value %q", line, valText)
			continue
		}
		samples[name+labels] = v
		if strings.HasSuffix(name, "_bucket") {
			hist := strings.TrimSuffix(name, "_bucket")
			if v < lastBucket[hist] {
				t.Errorf("line %d: histogram %s buckets not cumulative (%v after %v)", line, hist, v, lastBucket[hist])
			}
			lastBucket[hist] = v
			if strings.Contains(labels, `le="+Inf"`) {
				if count, ok := samples[hist+"_count"]; ok && count != v {
					t.Errorf("%s: +Inf bucket %v != _count %v", hist, v, count)
				}
				delete(lastBucket, hist)
			}
		}
		if strings.HasSuffix(name, "_count") {
			hist := strings.TrimSuffix(name, "_count")
			if inf, ok := samples[hist+`_bucket{le="+Inf"}`]; ok && inf != v {
				t.Errorf("%s: _count %v != +Inf bucket %v", hist, v, inf)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestPromMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	// Work the counters: queries (one traced), a batch, an error.
	for _, path := range []string{
		"/query?q=SELECT+a1+FROM+t10000_100",
		"/query?trace=1&q=SELECT+a5,+COUNT(a1)+FROM+t1000000_250+GROUP+BY+a5",
		"/query?q=SELECT+nope+FROM+missing",
	} {
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
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := checkPromFormat(t, string(raw))

	if got := samples["intellisphere_queries_total"]; got != 3 {
		t.Errorf("queries_total = %v, want 3", got)
	}
	if got := samples["intellisphere_query_errors_total"]; got != 1 {
		t.Errorf("query_errors_total = %v, want 1", got)
	}
	if got := samples["intellisphere_traces_total"]; got != 1 {
		t.Errorf("traces_total = %v, want 1", got)
	}
	if got := samples["intellisphere_parse_seconds_count"]; got != 3 {
		t.Errorf("parse_seconds_count = %v, want 3", got)
	}
	// Per-estimator accuracy gauges carry (system, operator) labels.
	var sawAccuracy bool
	for k := range samples {
		if strings.HasPrefix(k, "intellisphere_estimator_mean_q_error{") &&
			strings.Contains(k, `system="`) && strings.Contains(k, `operator="`) {
			sawAccuracy = true
		}
	}
	if !sawAccuracy {
		t.Error("no labeled estimator accuracy samples in exposition")
	}
}

func TestRequestBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	big := `{"sql": "SELECT a1 FROM t10000_100 -- ` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, tc := range []struct{ name, path, body string }{
		{"statement over the cap", "/query", big},
		{"batch over the cap", "/query/batch", "[" + big + "]"},
		// The cap is on the body, not on the part of it a decoder needs.
		{"small statement, body over the cap", "/query", `{"sql": "SELECT a1 FROM t10000_100"}` + strings.Repeat(" ", maxBodyBytes)},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: 413 body is not JSON: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || out["code"] != "too_large" {
			t.Errorf("%s: status %d, code %q, want 413 too_large", tc.name, resp.StatusCode, out["code"])
		}
		if out["error"] == "" {
			t.Errorf("%s: response missing error field", tc.name)
		}
	}
	// A normal-sized body still works after the cap.
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT a1 FROM t10000_100"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal body after cap = %d", resp.StatusCode)
	}
}

// promSeriesNames returns the name of every series a scrape declares
// (its # TYPE lines), sorted.
func promSeriesNames(body string) []string {
	var names []string
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	sort.Strings(names)
	return names
}

// TestPromSeriesInventory compares the series /metrics/prom exposes with the
// checked-in list, so that adding, renaming or dropping one is a line in a
// diff someone reviews. testdata/prom_series.txt has two parts: what a server
// built the way cmd/serve builds one with its default flags exposes once it
// has served a query, and what -data-dir and -event-log add to that.
func TestPromSeriesInventory(t *testing.T) {
	raw, err := os.ReadFile("testdata/prom_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	var byDefault, optIn []string
	part := &byDefault
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "# With -data-dir and -event-log"):
			part = &optIn
		case line != "" && !strings.HasPrefix(line, "#"):
			*part = append(*part, line)
		}
	}

	scrape := func(durable bool, eventLog string) []string {
		t.Helper()
		e := newBenchEngine(t)
		o, err := obs.New(obs.Config{
			Events:       obs.RecorderConfig{SampleRate: 1, SlowThreshold: 500 * time.Millisecond},
			EventLogPath: eventLog,
			Step:         5 * time.Second,
			Objectives:   obs.DefaultObjectives(0.999, 250*time.Millisecond, 0, time.Minute, 5*time.Minute, 14),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New(e).WithFaults(map[string]*faults.Injector{}).WithObservability(o)
		if durable {
			d, _, err := engine.OpenDurability(e, engine.DurabilityConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
			s = s.WithDurability(d)
		}
		srv := httptest.NewServer(s.Handler(10 * time.Second))
		o.Start(s.ObsSource())
		t.Cleanup(func() {
			srv.Close()
			o.Stop()
		})
		// One executed remote step brings in the per-system series
		// (breakers, estimator accuracy).
		var qr queryResponse
		getJSON(t, srv.URL+"/query?q=SELECT+a1+FROM+t100000_100", &qr)
		body := getText(t, srv.URL+"/metrics/prom")
		checkPromFormat(t, body)
		return promSeriesNames(body)
	}
	if got := scrape(false, ""); !slices.Equal(got, byDefault) {
		t.Errorf("series of a default server differ from testdata/prom_series.txt:\n%s", diffNames(byDefault, got))
	}
	want := append(append([]string(nil), byDefault...), optIn...)
	sort.Strings(want)
	if got := scrape(true, filepath.Join(t.TempDir(), "events.ndjson")); !slices.Equal(got, want) {
		t.Errorf("series with a data directory and an event log differ from testdata/prom_series.txt:\n%s", diffNames(want, got))
	}
}

// diffNames lists what two sorted name lists do not share.
func diffNames(want, got []string) string {
	var b strings.Builder
	for _, n := range want {
		if !slices.Contains(got, n) {
			fmt.Fprintf(&b, "  - %s (listed, not exposed)\n", n)
		}
	}
	for _, n := range got {
		if !slices.Contains(want, n) {
			fmt.Fprintf(&b, "  + %s (exposed, not listed)\n", n)
		}
	}
	return b.String()
}

// promScrape answers GET /metrics/prom on h and parses the exposition.
func promScrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prom", nil))
	return checkPromFormat(t, rec.Body.String())
}

// failingWriter is a ResponseWriter whose client has gone: every Write fails.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestPromEncodeErrors: an answer that cannot be written is counted.
func TestPromEncodeErrors(t *testing.T) {
	h := New(newBenchEngine(t)).Handler(10 * time.Second)
	if got := promScrape(t, h)["intellisphere_response_encode_errors_total"]; got != 0 {
		t.Fatalf("response_encode_errors_total = %v before any failed write", got)
	}
	h.ServeHTTP(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/query?q=SELECT+a1+FROM+t10000_100", nil))
	if got := promScrape(t, h)["intellisphere_response_encode_errors_total"]; got != 1 {
		t.Errorf("response_encode_errors_total = %v after one failed write, want 1", got)
	}
}

// TestPromEstimatorObservations: estimator_observations_total{system,operator}
// is the number of operator steps executed on that system — every plan step
// but a transfer scores its estimator once — and no other pair has one.
func TestPromEstimatorObservations(t *testing.T) {
	srv, e := newTestServer(t)
	want := map[string]float64{}
	for _, sql := range []string{
		"SELECT a1 FROM t10000_100 WHERE a1 < 100",
		"SELECT a1 FROM t100000_100 WHERE a1 < 100",
		"SELECT a5, COUNT(a1) FROM t1000000_250 GROUP BY a5",
		"SELECT a5, COUNT(a1) FROM t1000000_250 GROUP BY a5",
		"SELECT t1000000_250.a1 FROM t1000000_250 JOIN t100000_100 ON t1000000_250.a1 = t100000_100.a1",
	} {
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Plan.Steps {
			if st.Kind != "transfer" {
				want[fmt.Sprintf(`intellisphere_estimator_observations_total{system="%s",operator="%s"}`, st.System, st.Kind)]++
			}
		}
	}
	got := map[string]float64{}
	for k, v := range checkPromFormat(t, getText(t, srv.URL+"/metrics/prom")) {
		if strings.HasPrefix(k, "intellisphere_estimator_observations_total{") {
			got[k] = v
		}
	}
	if len(want) < 2 || !maps.Equal(got, want) {
		t.Errorf("estimator_observations_total = %v, want the executed operator steps %v", got, want)
	}
}
