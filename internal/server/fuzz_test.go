package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzStatementForms feeds arbitrary bytes to the decoder for "a statement
// inside JSON" — the serving stack's second untrusted input, one
// /query/stream line or one /query/batch array element. The checked-in corpus
// (testdata/fuzz/FuzzStatementForms) holds the forms clients send (a bare
// string, an object, raw SQL), escapes, non-ASCII and control bytes,
// truncated values, and JSON values that are not statements. Properties:
//
//   - streamStatement never panics, and what it accepts is never empty;
//   - whenever the plainJSONString fast path accepts, encoding/json decodes
//     the same string;
//   - a /query/batch body of the bytes repeated as array elements answers 400
//     as a whole, or 200 with one slot per element, each slot echoing the
//     statement encoding/json reads out of its element.
func FuzzStatementForms(f *testing.F) {
	h := New(newBenchEngine(f)).Handler(10 * time.Second)
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

		copies := make([][]byte, 1+len(data)%3)
		for i := range copies {
			copies[i] = data
		}
		body := append(append([]byte{'['}, bytes.Join(copies, []byte{','})...), ']')
		if len(body) > maxBodyBytes {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body)))
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
