package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postBatch posts a raw /query/batch body and decodes the response into out.
func postBatch(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode /query/batch: %v", err)
	}
	return resp
}

// A /query/batch response must be element-wise identical to N sequential
// /query calls. Two fixtures built from identical seeds answer the two
// protocols, since each execution advances the simulator's noise stream.
func TestQueryBatchEndpointMatchesSequential(t *testing.T) {
	batchSrv, _ := newTestServer(t)
	seqSrv, _ := newTestServer(t)

	sqls := []string{
		"SELECT a1 FROM t10000_100 WHERE a1 < 100",
		"SELECT a2, COUNT(*) FROM t100000_100 GROUP BY a2",
		"SELECT r.a1 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1",
		"SELECT a1 FROM t10000_100 WHERE a1 < 100", // duplicate of 0
	}
	body, err := json.Marshal(sqls)
	if err != nil {
		t.Fatal(err)
	}
	var got []queryResponse
	resp := postBatch(t, batchSrv.URL, string(body), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got) != len(sqls) {
		t.Fatalf("got %d elements for %d statements", len(got), len(sqls))
	}
	for i, sql := range sqls {
		r, err := http.Post(seqSrv.URL+"/query", "application/json",
			strings.NewReader(`{"sql": `+string(mustJSON(t, sql))+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var want queryResponse
		if err := json.NewDecoder(r.Body).Decode(&want); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if wantJSON, gotJSON := string(mustJSON(t, want)), string(mustJSON(t, got[i])); gotJSON != wantJSON {
			t.Errorf("statement %d (%q):\nbatch:      %s\nsequential: %s", i, sql, gotJSON, wantJSON)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The two request forms may mix, and a failed statement yields an error
// element without failing its neighbors or the request.
func TestQueryBatchEndpointFormsAndErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	var got []map[string]any
	resp := postBatch(t, srv.URL, `[
		"SELECT a1 FROM t10000_100 WHERE a1 < 100",
		{"sql": "SELECT a1 FROM t100000_100"},
		"SELECT a1 FROM no_such_table"
	]`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got) != 3 {
		t.Fatalf("got %d elements", len(got))
	}
	for i := 0; i < 2; i++ {
		if got[i]["error"] != nil || got[i]["explain"] == "" {
			t.Errorf("element %d: %v", i, got[i])
		}
	}
	if got[2]["error"] == nil || got[2]["sql"] != "SELECT a1 FROM no_such_table" {
		t.Errorf("error element: %v", got[2])
	}

	// Malformed bodies → 400.
	for _, body := range []string{`[]`, `{"sql": "SELECT a1 FROM t10000_100"}`, `[42]`, `[""]`} {
		var e map[string]string
		if resp := postBatch(t, srv.URL, body, &e); resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Errorf("body %s: status %d, error %q", body, resp.StatusCode, e["error"])
		}
	}
}

// Concurrent batch requests share the engine safely (run under -race).
func TestQueryBatchEndpointConcurrent(t *testing.T) {
	srv, e := newTestServer(t)
	body := `["SELECT a1 FROM t10000_100 WHERE a1 < 100", "SELECT a1 FROM t100000_100"]`
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var got []queryResponse
				if resp := postBatch(t, srv.URL, body, &got); resp.StatusCode != http.StatusOK || len(got) != 2 {
					t.Errorf("status %d, %d elements", resp.StatusCode, len(got))
				}
			}
		}()
	}
	wg.Wait()
	if q := e.Stats().Queries; q != 24 {
		t.Errorf("queries = %d, want 24", q)
	}
}

// A /query/batch answer is longer than the 2 KiB net/http buffers before it
// picks a framing, and the handler has it whole: it must say how long it is,
// not leave chunked. The bytes are the ones the handler encodes, whatever the
// framing.
func TestQueryBatchAnswerCarriesContentLength(t *testing.T) {
	srv, eng := newTestServer(t)
	sqls := make([]string, 16)
	for i := range sqls {
		sqls[i] = fmt.Sprintf(`"SELECT a1 FROM t100000_100 WHERE a1 < %d"`, 100+i)
	}
	body := "[" + strings.Join(sqls, ",") + "]"
	resp, err := http.Post(srv.URL+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, read error %v", resp.StatusCode, err)
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 || len(got) <= 2048 {
		t.Errorf("a %d-byte answer: Content-Length %d, Transfer-Encoding %v", len(got), resp.ContentLength, resp.TransferEncoding)
	}
	rec := httptest.NewRecorder()
	New(eng).Handler(10*time.Second).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
	if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("the answer over the socket differs from the one the handler encoded:\n%s\n%s", got, want)
	}
	var elems []queryResponse
	if err := json.Unmarshal(got, &elems); err != nil || len(elems) != len(sqls) {
		t.Errorf("%d elements (%v) for %d statements", len(elems), err, len(sqls))
	}
}
