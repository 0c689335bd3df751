package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// refEncode is the seed's writeJSON encoder: encoding/json with
// SetIndent("", " "). The fast-path encoders must reproduce it byte for
// byte.
func refEncode(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return b.String()
}

func fastEncodeResponse(resp *queryResponse) string {
	var b bytes.Buffer
	enc := jw{b: &b}
	encodeQueryResponse(&enc, resp)
	b.WriteByte('\n')
	return b.String()
}

// goldenResponses covers every field combination the fast path can emit:
// omitempty permutations, nil-vs-empty slices, HTML-escaped and control
// characters, invalid UTF-8, U+2028/U+2029, and floats across the
// f/e-notation boundary cases encoding/json special-cases.
func goldenResponses() map[string]queryResponse {
	return map[string]queryResponse{
		"minimal": {
			SQL: "SELECT 1", Explain: "plan", EstimatedSec: 0, ActualSec: 0,
		},
		"typical": {
			SQL:          "SELECT a FROM t WHERE x > 3 AND y < 5",
			Explain:      "step 1: scan\n  cost: 0.5\nstep 2: join <hash> & merge",
			EstimatedSec: 1.2345678901234567,
			ActualSec:    0.000123,
			StepActuals:  []float64{0.1, 0.0000001, 123456789.25},
		},
		"empty-actuals": {
			SQL: "q", Explain: "e", StepActuals: []float64{},
		},
		"degraded": {
			SQL: "q", Explain: "e", StepActuals: []float64{1},
			Degraded: true, Excluded: []string{"hive", "spark"},
		},
		"rows": {
			SQL: "q", Explain: "e", StepActuals: []float64{0.5},
			Columns: []string{"a", "b\"quoted\"", "c&<d>"},
			Rows:    [][]float64{{1, 2.5}, {}, {-3e-9}},
		},
		"float-extremes": {
			SQL: "q", Explain: "e",
			EstimatedSec: 1e-7,
			ActualSec:    9.87e21,
			StepActuals:  []float64{1e21, 999999999999999999999, 1e-6, 9.999e-7, -1e-7, 0.25, -0},
		},
		"string-escapes": {
			SQL:     "tab\there\nnewline\rcr\x01ctl\\back\"quote",
			Explain: "unicode: héllo \u2028line\u2029sep \xffinvalid",
		},
	}
}

// TestEncodeGoldenEquivalence pins the fast-path encoder against
// encoding/json for every response shape, byte for byte.
func TestEncodeGoldenEquivalence(t *testing.T) {
	for name, resp := range goldenResponses() {
		resp := resp
		want := refEncode(t, resp)
		got := fastEncodeResponse(&resp)
		if got != want {
			t.Errorf("%s:\nfast: %q\nref:  %q", name, got, want)
		}
	}
}

// TestEncodeErrorFramesEquivalence pins the error-frame encoders against
// the seed's map[string]string shapes (encoding/json sorts map keys).
func TestEncodeErrorFramesEquivalence(t *testing.T) {
	msg := "plan failed: <nothing> to \"join\" & no luck\nline2"
	sql := "SELECT broken"

	var b bytes.Buffer
	enc := jw{b: &b}
	encodeStatementError(&enc, sql, msg)
	b.WriteByte('\n')
	if want := refEncode(t, map[string]string{"sql": sql, "error": msg}); b.String() != want {
		t.Errorf("statement error:\nfast: %q\nref:  %q", b.String(), want)
	}

	b.Reset()
	enc = jw{b: &b}
	encodeErrorFrame(&enc, "bad_request", msg)
	b.WriteByte('\n')
	// "code" sorts before "error", so the map reference pins the field order.
	if want := refEncode(t, map[string]string{"code": "bad_request", "error": msg}); b.String() != want {
		t.Errorf("error frame:\nfast: %q\nref:  %q", b.String(), want)
	}
}

// TestEncodeBatchEquivalence replays the /query/batch array framing (mixed
// success and error slots) against the seed's []any encoding.
func TestEncodeBatchEquivalence(t *testing.T) {
	rs := goldenResponses()
	ok1, ok2 := rs["typical"], rs["degraded"]
	seed := []any{
		ok1,
		map[string]string{"sql": "bad stmt", "error": "parse: <unexpected> & more"},
		ok2,
	}
	want := refEncode(t, seed)

	var b bytes.Buffer
	enc := jw{b: &b}
	b.WriteByte('[')
	enc.depth++
	for i, v := range seed {
		if i > 0 {
			b.WriteByte(',')
		}
		enc.newline()
		switch item := v.(type) {
		case queryResponse:
			encodeQueryResponse(&enc, &item)
		case map[string]string:
			encodeStatementError(&enc, item["sql"], item["error"])
		}
	}
	enc.depth--
	enc.newline()
	b.WriteString("]\n")
	if b.String() != want {
		t.Errorf("batch:\nfast: %q\nref:  %q", b.String(), want)
	}
}

// TestServedResponsesMatchReference goes end to end: the live /query and
// /query/batch handlers must produce exactly the bytes the seed's
// encoding/json path would.
func TestServedResponsesMatchReference(t *testing.T) {
	srv, _ := newTestServer(t)

	sql := "SELECT a1 FROM t10000_100 WHERE a1 < 100"
	resp, err := http.Get(srv.URL + "/query?q=" + strings.ReplaceAll(sql, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body.String())
	}
	var decoded queryResponse
	if err := json.Unmarshal(body.Bytes(), &decoded); err != nil {
		t.Fatalf("response does not decode: %v", err)
	}
	if want := refEncode(t, decoded); body.String() != want {
		t.Errorf("/query bytes differ from reference:\ngot:  %q\nwant: %q", body.String(), want)
	}

	batch, err := http.Post(srv.URL+"/query/batch", "application/json",
		strings.NewReader(`["`+sql+`", "SELECT broken FROM", "`+sql+`"]`))
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	if _, err := body.ReadFrom(batch.Body); err != nil {
		t.Fatal(err)
	}
	batch.Body.Close()
	var slots []json.RawMessage
	if err := json.Unmarshal(body.Bytes(), &slots); err != nil {
		t.Fatalf("batch response does not decode: %v", err)
	}
	if len(slots) != 3 {
		t.Fatalf("want 3 slots, got %d", len(slots))
	}
	// Round-trip each slot through the reference encoder and rebuild the
	// array framing: the served bytes must match exactly.
	ref := []any{}
	for i, raw := range slots {
		var errSlot map[string]string
		if json.Unmarshal(raw, &errSlot) == nil && errSlot["error"] != "" && len(errSlot) == 2 {
			ref = append(ref, errSlot)
			continue
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		ref = append(ref, qr)
	}
	if want := refEncode(t, ref); body.String() != want {
		t.Errorf("/query/batch bytes differ from reference:\ngot:  %q\nwant: %q", body.String(), want)
	}
}

// nullRW is a ResponseWriter that discards everything — the alloc test
// measures the serving path, not the recorder.
type nullRW struct{ h http.Header }

func (n *nullRW) Header() http.Header         { return n.h }
func (n *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (n *nullRW) WriteHeader(int)             {}

// TestWarmQueryAllocs pins the steady-state allocation count of a warm
// /query request through admission, engine, and the pooled encoder, in both
// request forms: the POST body the benchmark's hot_set sends and the GET
// convenience form, which pays for a url.Values map. Each budget is the count
// at the time of writing plus two.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, eng := newTestServer(t)
	s := New(eng)
	h := s.Handler(10 * time.Second)
	// A statistics-only table: the request exercises parse, plan cache,
	// simulator, and encoder — not the materialized row engine.
	sql := "SELECT a1 FROM t100000_100 WHERE a1 < 100"
	body := `{"sql":"` + sql + `"}`
	rd := strings.NewReader(body)
	post := httptest.NewRequest(http.MethodPost, "/query", nil)
	post.Body = io.NopCloser(rd)
	for _, tc := range []struct {
		name   string
		req    *http.Request
		budget float64 // measured: POST 6 (21 before the front-door change), GET 8 (18)
	}{
		{"POST", post, 8},
		{"GET", httptest.NewRequest(http.MethodGet, "/query?q="+strings.ReplaceAll(sql, " ", "+"), nil), 10},
	} {
		w := &nullRW{h: make(http.Header)}
		serve := func() {
			rd.Reset(body)
			h.ServeHTTP(w, tc.req)
		}
		// Warm: the statement resident (admitted on its second sighting, so
		// the third request is the first hit) and the buffer pool filled.
		for i := 0; i < 3; i++ {
			serve()
		}
		allocs := testing.AllocsPerRun(200, serve)
		if allocs > tc.budget {
			t.Errorf("warm %s /query allocates %.0f objects per request, budget %.0f", tc.name, allocs, tc.budget)
		}
		t.Logf("warm %s /query: %.0f allocs/request", tc.name, allocs)
	}
}

// TestWarmBatchAllocs pins what a warm 16-statement POST /query/batch — the
// request zipf_mix sends — allocates, through admission, the decode, the
// engine and the pooled encoder: the statement slice and one string a
// statement from the decode, a result and its step actuals a statement from
// the engine, and the per-request deadline and header bookkeeping. The budget
// is the count at the time of writing, 54: 52, and two for the Content-Length
// the answer now carries, its digits and the header's one-element slice (80
// while encoding/json decoded the body into []json.RawMessage and the engine
// answered into a []BatchItem); sixteen warm /query requests are 16 × 6 = 96.
// Warm means resident: the cache admits a statement on its second sighting, so
// the third request is the first to hit on all sixteen.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, eng := newTestServer(t)
	h := New(eng).Handler(10 * time.Second)
	sqls := make([]string, 16)
	for i := range sqls {
		sqls[i] = fmt.Sprintf(`"SELECT a1 FROM t100000_100 WHERE a1 < %d"`, 100+i)
	}
	// Quoted as the benchmark's driver quotes (strconv.AppendQuote): '<' stays
	// '<'. json.Marshal would write \u003c, an escape the decode leaves to
	// encoding/json.
	body := "[" + strings.Join(sqls, ",") + "]"
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query/batch", nil)
	req.Body = io.NopCloser(rd)
	w := &nullRW{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	const budget = 54
	allocs := testing.AllocsPerRun(200, serve)
	if allocs > budget {
		t.Errorf("warm 16-statement /query/batch allocates %.0f objects per request, budget %d", allocs, budget)
	}
	t.Logf("warm 16-statement /query/batch: %.0f allocs/request", allocs)
}
