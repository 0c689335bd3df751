package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/querygrid"
)

// newDurableTestServer is newTestServer with a data directory attached, so
// the durability surfaces (/health block, prom gauges) light up.
func newDurableTestServer(t *testing.T) (*httptest.Server, *engine.Engine, *engine.Durability) {
	t.Helper()
	e := newBenchEngine(t)
	d, _, err := engine.OpenDurability(e, engine.DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(New(e).WithDurability(d).Handler(10 * time.Second))
	t.Cleanup(srv.Close)
	return srv, e, d
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestCatalogEndpoint(t *testing.T) {
	srv, eng, _ := newDurableTestServer(t)

	var list []catalogEntry
	getJSON(t, srv.URL+"/catalog", &list)
	if len(list) != 3 {
		t.Fatalf("catalog lists %d tables, want 3", len(list))
	}
	byName := map[string]catalogEntry{}
	for _, e := range list {
		byName[e.Table.Name] = e
	}
	if !byName["t10000_100"].Materialized || byName["t100000_100"].Materialized {
		t.Errorf("materialization flags wrong: %+v", byName)
	}

	// Register a new table and materialize it in one request.
	req := `{"table": {"name": "admin_t1", "system": "hive", "rows": 5000,
		"schema": {"columns": [{"name": "a1", "type": 0, "width": 8, "duplication": 1}]}},
		"materialize": "admin_t1"}`
	var entry catalogEntry
	resp := postJSON(t, srv.URL+"/catalog", req, &entry)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if entry.Table.Name != "admin_t1" || !entry.Materialized {
		t.Fatalf("entry = %+v", entry)
	}
	if _, err := eng.Catalog().Lookup("admin_t1"); err != nil {
		t.Fatal(err)
	}

	// Duplicate registration and unknown-system tables are client errors.
	if resp := postJSON(t, srv.URL+"/catalog", req, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate register status = %d", resp.StatusCode)
	}
	bad := `{"table": {"name": "ghost", "system": "nosuch", "rows": 10,
		"schema": {"columns": [{"name": "a1", "type": 0, "width": 8, "duplication": 1}]}}}`
	if resp := postJSON(t, srv.URL+"/catalog", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-system register status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/catalog", `{}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status = %d", resp.StatusCode)
	}
}

func TestLinksEndpoint(t *testing.T) {
	srv, eng, d := newDurableTestServer(t)

	var before linksResponse
	getJSON(t, srv.URL+"/links", &before)
	if before.Default.BandwidthBytesPerSec <= 0 {
		t.Fatalf("default link = %+v", before.Default)
	}
	if _, ok := before.Links["hive"]; ok {
		t.Fatalf("unexpected pre-existing override: %+v", before.Links)
	}

	resp := postJSON(t, srv.URL+"/links",
		`{"system": "hive", "link": {"bandwidth_bytes_per_sec": 5e7, "latency_sec": 0.1, "per_row_overhead_us": 1}}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var after linksResponse
	getJSON(t, srv.URL+"/links", &after)
	if l, ok := after.Links["hive"]; !ok || l.BandwidthBytesPerSec != 5e7 {
		t.Fatalf("override not installed: %+v", after.Links)
	}
	if eng.Grid().Links()["hive"].BandwidthBytesPerSec != 5e7 {
		t.Fatal("engine grid does not reflect the override")
	}

	// Invalid configs and missing system are client errors.
	if resp := postJSON(t, srv.URL+"/links",
		`{"system": "hive", "link": {"bandwidth_bytes_per_sec": -1}}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid link status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/links", `{"link": {}}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing system status = %d", resp.StatusCode)
	}

	// A link for a system the server has not registered is a client error
	// too: nothing is installed and nothing is logged for recovery to replay.
	logged, _ := d.Stats()
	if resp := postJSON(t, srv.URL+"/links",
		`{"system": "impala", "link": {"bandwidth_bytes_per_sec": 5e7, "latency_sec": 0.1, "per_row_overhead_us": 1}}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unregistered-system link status = %d", resp.StatusCode)
	}
	if _, ok := eng.Grid().Links()["impala"]; ok {
		t.Error("a link for an unregistered system was installed")
	}
	if now, _ := d.Stats(); now.Seq != logged.Seq {
		t.Errorf("a rejected link was logged: seq %d → %d", logged.Seq, now.Seq)
	}
}

func TestHealthDurabilityBlock(t *testing.T) {
	srv, _, d := newDurableTestServer(t)

	// Mutate once and snapshot so every durability field is exercised.
	postJSON(t, srv.URL+"/links",
		`{"system": "hive", "link": {"bandwidth_bytes_per_sec": 5e7, "latency_sec": 0.1, "per_row_overhead_us": 1}}`, nil)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}

	var h struct {
		Status     string            `json:"status"`
		Durability *durabilityStatus `json:"durability"`
	}
	getJSON(t, srv.URL+"/health", &h)
	if h.Status != "ok" || h.Durability == nil {
		t.Fatalf("health = %+v", h)
	}
	if h.Durability.Seq != 1 || h.Durability.SnapshotSeq != 1 || h.Durability.WALBytes != 0 {
		t.Errorf("durability block = %+v", h.Durability)
	}

	// Without WithDurability the block is absent entirely.
	plain, _ := newTestServer(t)
	var raw map[string]json.RawMessage
	getJSON(t, plain.URL+"/health", &raw)
	if _, ok := raw["durability"]; ok {
		t.Error("stateless server reports a durability block")
	}

	// The recovery block is durable.Recovery as is: pin the keys a server on
	// a fresh data directory emits, and those of one recovered from a
	// snapshot and a log.
	recoveryKeys := func(e *engine.Engine, d *engine.Durability) []string {
		t.Helper()
		srv := httptest.NewServer(New(e).WithDurability(d).Handler(10 * time.Second))
		defer srv.Close()
		var h struct {
			Durability struct {
				Recovery map[string]json.RawMessage `json:"recovery"`
			} `json:"durability"`
		}
		getJSON(t, srv.URL+"/health", &h)
		var keys []string
		for k := range h.Durability.Recovery {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	link := func(bw float64) querygrid.LinkConfig {
		return querygrid.LinkConfig{BandwidthBytesPerSec: bw, LatencySec: 0.1, PerRowOverheadUS: 1}
	}

	dir := t.TempDir()
	e1 := newBenchEngine(t)
	d1, _, err := engine.OpenDurability(e1, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recoveryKeys(e1, d1), []string{"duration_sec", "replayed", "restored"}; !slices.Equal(got, want) {
		t.Errorf("fresh data directory: recovery keys %v, want %v", got, want)
	}
	if err := e1.SetLink("hive", link(5e7)); err != nil {
		t.Fatal(err)
	}
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e1.SetLink("hive", link(6e7)); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newBenchEngine(t)
	d2, _, err := engine.OpenDurability(e2, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, want := recoveryKeys(e2, d2), []string{"duration_sec", "replayed", "restored", "snapshot_seq"}; !slices.Equal(got, want) {
		t.Errorf("recovered server: recovery keys %v, want %v", got, want)
	}
}

func TestPromDurabilityGauges(t *testing.T) {
	srv, _, d := newDurableTestServer(t)
	postJSON(t, srv.URL+"/links",
		`{"system": "hive", "link": {"bandwidth_bytes_per_sec": 5e7, "latency_sec": 0.1, "per_row_overhead_us": 1}}`, nil)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m := checkPromFormat(t, getText(t, srv.URL+"/metrics/prom"))
	// A server test cannot cheaply make a background snapshot fail, so the
	// error series is held to the count the engine keeps.
	_, snapErrs := d.Stats()
	for name, want := range map[string]float64{
		"intellisphere_wal_bytes":                 0,
		"intellisphere_durable_seq":               1,
		"intellisphere_wal_appends_total":         1,
		"intellisphere_snapshots_total":           1,
		"intellisphere_snapshot_errors_total":     float64(snapErrs),
		"intellisphere_recovery_records_replayed": 0,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"intellisphere_snapshot_age_seconds", "intellisphere_recovery_duration_seconds"} {
		if _, ok := m[name]; !ok {
			t.Errorf("prom output missing %s", name)
		}
	}

	// A stateless server exposes none of the durability series.
	plain, _ := newTestServer(t)
	resp2, err := http.Get(plain.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw2), "intellisphere_wal_bytes") {
		t.Error("stateless server exposes durability gauges")
	}
}

// adminRoutes are the four routes whose POST bodies go through
// decodeAdminBody.
var adminRoutes = []string{"/catalog", "/links", "/models", "/faults"}

// newAdminHandler serves all four admin routes (fault injection enabled over
// an empty injector set: decoding comes before the system lookup).
func newAdminHandler(t testing.TB) http.Handler {
	t.Helper()
	return New(newBenchEngine(t)).WithFaults(map[string]*faults.Injector{}).Handler(10 * time.Second)
}

// TestAdminBodyDecoding runs every admin route through the ways a body can
// fail to be one: absent, empty, malformed, and past the byte cap — which
// /faults used to read to the end instead of refusing.
func TestAdminBodyDecoding(t *testing.T) {
	h := newAdminHandler(t)
	huge := `{"system": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range adminRoutes {
		for _, tc := range []struct {
			name   string
			body   io.Reader
			status int
			code   string
			text   string
		}{
			{"no body", nil, http.StatusBadRequest, "bad_request", "missing request: POST {"},
			{"empty body", strings.NewReader(""), http.StatusBadRequest, "bad_request", "decode request: EOF"},
			{"malformed JSON", strings.NewReader(`{"system": `), http.StatusBadRequest, "bad_request", "decode request: unexpected EOF"},
			{"wrong JSON type", strings.NewReader(`[1, 2]`), http.StatusBadRequest, "bad_request", "decode request: json: cannot unmarshal array"},
			{"over the cap", strings.NewReader(huge), http.StatusRequestEntityTooLarge, "too_large", "decode request: http: request body too large"},
		} {
			req, err := http.NewRequest(http.MethodPost, route, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var out struct{ Code, Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Errorf("%s, %s: response %q is not an error frame: %v", route, tc.name, rec.Body.Bytes(), err)
				continue
			}
			if rec.Code != tc.status || out.Code != tc.code || !strings.HasPrefix(out.Error, tc.text) {
				t.Errorf("%s, %s: %d %q %q, want %d %q %q…", route, tc.name, rec.Code, out.Code, out.Error, tc.status, tc.code, tc.text)
			}
		}
	}
}
