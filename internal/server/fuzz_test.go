package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"
)

// FuzzStatementForms feeds arbitrary bytes to the decoder for "a statement
// inside JSON" — the serving stack's second untrusted input: one
// /query/stream line, one /query/batch array element, or a /query body. The
// checked-in corpus (testdata/fuzz/FuzzStatementForms) holds the forms clients
// send (a bare string, an object, raw SQL), escapes, non-ASCII and control
// bytes, truncated values, objects spelled every way the plainSQLObject fast
// path must decline, and JSON values that are not statements. Properties:
//
//   - streamStatement never panics, and what it accepts is never empty;
//   - whenever the plainJSONString or plainSQLObject fast path accepts,
//     encoding/json decodes the same statement, and it is not empty;
//   - a /query/batch body of the bytes repeated as array elements answers 400
//     as a whole, or 200 with one slot per element, each slot echoing the
//     statement encoding/json reads out of its element;
//   - a /query body of the bytes answers 400 with encoding/json's own error
//     when json.Decoder cannot read a statementRequest off its front, 400 when
//     that holds no statement, and otherwise exactly what GET ?q= answers for
//     the statement encoding/json read.
func FuzzStatementForms(f *testing.F) {
	h := New(newBenchEngine(f)).Handler(10 * time.Second)
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if line := bytes.TrimSpace(data); len(line) > 0 {
			if sql, err := streamStatement(line); err == nil && sql == "" {
				t.Fatalf("streamStatement(%q) accepted an empty statement", line)
			}
			if got, ok := plainJSONString(line); ok {
				var want string
				if err := json.Unmarshal(line, &want); err != nil || got != want {
					t.Fatalf("plainJSONString(%q) = %q, encoding/json says %q, %v", line, got, want, err)
				}
			}
		}
		if got, ok := plainSQLObject(data); ok {
			var want statementRequest
			if err := json.Unmarshal(data, &want); err != nil || got != want.SQL || got == "" {
				t.Fatalf("plainSQLObject(%q) = %q, encoding/json says %q, %v", data, got, want.SQL, err)
			}
		}
		if len(data) > maxBodyBytes {
			return
		}

		rec := serve(httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(data)))
		var frame struct {
			SQL   string `json:"sql"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &frame); err != nil {
			t.Fatalf("/query body %q: status %d, response %q: %v", data, rec.Code, rec.Body.Bytes(), err)
		}
		var want statementRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil || want.SQL == "" {
			refusal := "empty sql field"
			if err != nil {
				refusal = "decode request: " + err.Error()
			}
			if rec.Code != http.StatusBadRequest || frame.Error != refusal {
				t.Fatalf("/query body %q: status %d, error %q, want 400 %q", data, rec.Code, frame.Error, refusal)
			}
		} else {
			// An answer echoes the statement; a refusal is the same bytes.
			ref := serve(httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(want.SQL), nil))
			same := frame.SQL == want.SQL
			if rec.Code != http.StatusOK {
				same = bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes())
			}
			if rec.Code != ref.Code || !same {
				t.Fatalf("/query body %q holds statement %q: status %d, response %q; GET ?q= of the statement: status %d, response %q",
					data, want.SQL, rec.Code, rec.Body.Bytes(), ref.Code, ref.Body.Bytes())
			}
		}

		copies := make([][]byte, 1+len(data)%3)
		for i := range copies {
			copies[i] = data
		}
		body := append(append([]byte{'['}, bytes.Join(copies, []byte{','})...), ']')
		if len(body) > maxBodyBytes {
			return
		}
		rec = serve(httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body)))
		// Like the handler, the oracle reads the body's first JSON value and
		// leaves what follows it alone.
		var elems []json.RawMessage
		if json.NewDecoder(bytes.NewReader(body)).Decode(&elems) != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("body %q does not start with a JSON array, status %d", body, rec.Code)
			}
			return
		}
		if rec.Code == http.StatusBadRequest {
			return
		}
		var slots []struct {
			SQL string `json:"sql"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &slots) != nil || len(slots) != len(elems) {
			t.Fatalf("body %q (%d elements): status %d, response %q", body, len(elems), rec.Code, rec.Body.Bytes())
		}
		for i, el := range elems {
			var want string
			if json.Unmarshal(el, &want) != nil {
				var req statementRequest
				if err := json.Unmarshal(el, &req); err != nil {
					t.Fatalf("element %d %q was answered, but is neither a string nor an object: %v", i, el, err)
				}
				want = req.SQL
			}
			if want == "" || slots[i].SQL != want {
				t.Fatalf("slot %d answers statement %q, element %q holds %q", i, slots[i].SQL, el, want)
			}
		}
	})
}

// readBatchReflective is readBatch as it was while encoding/json decoded every
// /query/batch body straight off the capped request body, moved here verbatim
// to be FuzzBatchBody's oracle.
func readBatchReflective(w http.ResponseWriter, r *http.Request) ([]string, error) {
	if r.Body == nil {
		return nil, fmt.Errorf("missing batch: POST [{\"sql\": ...}, ...] or [\"...\", ...]")
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var raw []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	out := make([]string, len(raw))
	for i, m := range raw {
		// A string or an object decodes exactly as a /query/stream line does;
		// any other JSON value must not fall through to the raw-SQL case.
		if m[0] != '"' && m[0] != '{' {
			return nil, fmt.Errorf("statement %d: want {\"sql\": ...} or a string", i)
		}
		sql, err := streamStatement(m)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %v", i, err)
		}
		out[i] = sql
	}
	return out, nil
}

// FuzzBatchBody is the differential oracle for the /query/batch decode:
// whatever the body, readBatch — the plainBatch scanner, and encoding/json
// over the buffered bytes for what it declines — returns the statements
// readBatchReflective returns, or fails with the same text and the same
// status. The seeds are the shapes clients send (the benchmark's 16 bare
// strings, the README's mixed array) and what the scanner must decline or
// stop at: escapes, other keys, empty and non-string elements, whitespace in
// every position, trailing bytes, truncation at each token. Bodies past
// maxBodyBytes, where the answer depends on whether the array closed before
// the cap, cost too much per execution to fuzz: TestBatchBodyOverCap holds them
// to the same oracle.
func FuzzBatchBody(f *testing.F) {
	bench := make([]string, 16)
	for i := range bench {
		bench[i] = fmt.Sprintf("SELECT a1, a5 FROM t1000000_250 WHERE a5 < %d", 1000+i)
	}
	benchBody, err := json.Marshal(bench)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(benchBody)
	for _, seed := range []string{
		"[\n  \"SELECT a1 FROM t10000_100 WHERE a1 < 100\",\n  {\"sql\": \"SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2\"}\n]",
		`["SELECT 1"]`, `[{"sql":"SELECT 1"}]`, ` [ "a" , { "sql" : "b" } ] `, "\t[\r\n\"a\"\n]\n",
		`["a"]trailing`, `["a"]]`, `["a"] ["b"]`, `[{"sql":"a"}}`,
		`[]`, `[ ]`, `[""]`, `[{"sql":""}]`, `[{}]`, `["a",]`, `[,"a"]`, `["a" "b"]`, `["a",,"b"]`,
		`[42]`, `[null]`, `[["a"]]`, `[true,"a"]`, `["a",{"sql":7}]`, `{"sql":"a"}`, `"a"`, `null`, ``, ` `,
		`["a\\nb"]`, `["a\\u0041"]`, `["caf\u00e9"]`, "[\"a\x01\"]", "[\"a\xff\"]", `["a\\"]`, `["a\\"","b"]`,
		`[{"SQL":"a"}]`, `[{"sql":"a","sql":"b"}]`, `[{"sql":"a","x":1}]`, `[{"x":1,"sql":"a"}]`, `[{"sql":"a\\tb"}]`,
		`[`, `["`, `["a`, `["a"`, `["a",`, `["a",{`, `["a",{"sql"`, `["a",{"sql":`, `["a",{"sql":"b`, `["a",{"sql":"b"`, `["a",{"sql":"b"}`,
		`["a","b","c","d","e","f","g","h","i","j","k","l","m","n","o","p","q","r"]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBatchBody(t, data) })
}

// checkBatchBody holds readBatch to readBatchReflective on one body.
func checkBatchBody(t *testing.T, body []byte) {
	t.Helper()
	request := func() (http.ResponseWriter, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body))
	}
	w, r := request()
	got, gotErr := readBatch(w, r, new(bytes.Buffer))
	w, r = request()
	want, wantErr := readBatchReflective(w, r)
	switch {
	case gotErr != nil && wantErr != nil:
		if gotErr.Error() != wantErr.Error() || requestStatus(gotErr) != requestStatus(wantErr) {
			t.Fatalf("%d-byte body %.80q: refused with %d %q, the reflective decode says %d %q",
				len(body), body, requestStatus(gotErr), gotErr, requestStatus(wantErr), wantErr)
		}
	case gotErr != nil || wantErr != nil || !slices.Equal(got, want):
		t.Fatalf("%d-byte body %.80q: %q, %v; the reflective decode says %q, %v", len(body), body, got, gotErr, want, wantErr)
	}
}

// TestBatchBodyOverCap: a body past maxBodyBytes is a 413 — unless its array
// closed inside the cap, which is as far as a decoder reading the body ever
// got; then it is a batch, or whatever else the array is. Padding goes after
// each body and into its middle, and every outcome is the reflective decode's.
func TestBatchBodyOverCap(t *testing.T) {
	pad := bytes.Repeat([]byte{' '}, maxBodyBytes)
	for _, body := range []string{
		`["over","the cap"]`, `[{"sql":"over the cap"}]`, `["over", 7, "the cap"]`, `["over", "", "the cap"]`,
		`["over","the cap"`, `["a\u0041","b"]`, `[]`, `{"sql":"a"}`, ``,
	} {
		half := len(body) / 2
		after := append([]byte(body), pad...)
		checkBatchBody(t, after)
		checkBatchBody(t, append(after, "]"...))
		checkBatchBody(t, append(append([]byte(body[:half]), pad...), body[half:]...))
	}
	w, r := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(append([]byte(`["a",`), pad...)))
	if _, err := readBatch(w, r, new(bytes.Buffer)); requestStatus(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("an array still open at the cap: %v", err)
	}
	w, r = httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(append([]byte(`["a"]`), pad...)))
	if sqls, err := readBatch(w, r, new(bytes.Buffer)); err != nil || !slices.Equal(sqls, []string{"a"}) {
		t.Errorf("an array closed inside the cap: %q, %v", sqls, err)
	}
}

// FuzzEncodeAnswer is the differential oracle for encode.go, the hand-rolled
// encoder every /query, /query/batch and /query/stream answer goes through:
// whatever strings, floats and slice shapes an answer holds,
// encodeQueryResponse, encodeStatementError and encodeErrorFrame must equal
// json.Encoder with SetIndent("", " ") byte for byte. The checked-in corpus
// (testdata/fuzz/FuzzEncodeAnswer) holds the cases encoding/json treats
// specially: invalid UTF-8, U+2028/U+2029, <>&, control bytes, ±0, the
// subnormal floor, both sides of the 1e-6 and 1e21 notation switches, and nil
// against empty slices at both nesting levels. shape picks the slices, two
// bits a field (step_actuals, excluded, columns; three for rows) plus one for
// degraded. NaN and ±Inf are skipped: encoding/json refuses them and the
// engine never produces them.
func FuzzEncodeAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql, explain, msg string, est, actual, x float64, shape uint16) {
		for _, v := range []float64{est, actual, x} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("not a JSON number")
			}
		}
		resp := queryResponse{
			SQL: sql, Explain: explain, EstimatedSec: est, ActualSec: actual,
			StepActuals: [][]float64{nil, {}, {x}, {est, x, actual}}[shape&3],
			Degraded:    shape>>2&1 == 1,
			Excluded:    [][]string{nil, {}, {msg}, {sql, explain}}[shape>>3&3],
			Columns:     [][]string{nil, {}, {explain}, {msg, "", sql}}[shape>>5&3],
			Rows: [][][]float64{nil, {}, {nil}, {{}}, {{x}}, {{est, x}, {}, nil},
				{{actual}, {x, x, x}}, {{-x}, {est}}}[shape>>7&7],
		}
		if got, want := fastEncodeResponse(&resp), refEncode(t, resp); got != want {
			t.Errorf("encodeQueryResponse(%+v)\n got: %q\nwant: %q", resp, got, want)
		}
		var b bytes.Buffer
		encodeStatementError(&jw{b: &b}, sql, msg)
		b.WriteByte('\n')
		if want := refEncode(t, map[string]string{"sql": sql, "error": msg}); b.String() != want {
			t.Errorf("encodeStatementError(%q, %q)\n got: %q\nwant: %q", sql, msg, b.String(), want)
		}
		b.Reset()
		encodeErrorFrame(&jw{b: &b}, explain, msg)
		b.WriteByte('\n')
		if want := refEncode(t, map[string]string{"code": explain, "error": msg}); b.String() != want {
			t.Errorf("encodeErrorFrame(%q, %q)\n got: %q\nwant: %q", explain, msg, b.String(), want)
		}
	})
}

// FuzzAdminBody feeds arbitrary bytes to decodeAdminBody, the one decoder
// behind the POST bodies of /catalog, /links, /models and /faults — the
// serving stack's third untrusted input — as each of the four request types.
// The checked-in corpus (testdata/fuzz/FuzzAdminBody) holds the bodies the
// smoke scripts post plus the shapes that are not requests. Properties:
//
//   - decoding never panics, and a refusal is a 400, or a 413 only for bytes
//     past the cap;
//   - what is accepted can be encoded again (/links echoes its request, and
//     tables and links go to the write-ahead log as JSON), and that encoding
//     is a fixed point: decoding and encoding it once more changes nothing.
func FuzzAdminBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzAdminBody[catalogRequest](t, data)
		fuzzAdminBody[linkRequest](t, data)
		fuzzAdminBody[modelRequest](t, data)
		fuzzAdminBody[faultRequest](t, data)
	})
}

func fuzzAdminBody[T any](t *testing.T, data []byte) {
	decode := func(body []byte) (T, error) {
		return decodeAdminBody[T](httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), "{}")
	}
	req, err := decode(data)
	if err != nil {
		if status := requestStatus(err); status != http.StatusBadRequest &&
			(status != http.StatusRequestEntityTooLarge || len(data) <= maxBodyBytes) {
			t.Fatalf("%T: %d bytes refused with status %d: %v", req, len(data), status, err)
		}
		return
	}
	first, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%T decoded from %q cannot be encoded again: %v", req, data, err)
	}
	again, err := decode(first)
	if err != nil {
		t.Fatalf("%T: own encoding %q refused: %v", req, first, err)
	}
	if second, err := json.Marshal(again); err != nil || !bytes.Equal(first, second) {
		t.Fatalf("%T: encoding is not a fixed point: %q then %q (%v)", req, first, second, err)
	}
}
