package server

import (
	"bytes"
	"encoding/json"
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
