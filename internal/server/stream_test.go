package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/admission"
)

// readFrame consumes one length-prefixed frame from a /query/stream
// response: a decimal byte-count line, then exactly that many bytes.
func readFrame(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		return nil, fmt.Errorf("bad frame length %q: %v", line, err)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// TestQueryStreamProtocol drives the pipelined protocol end to end: many
// statements down one connection, in-order length-prefixed responses back,
// per-slot error isolation, and frame bodies identical to /query's shape.
func TestQueryStreamProtocol(t *testing.T) {
	srv, _ := newTestServer(t)
	good := "SELECT a1 FROM t100000_100 WHERE a1 < 100"

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		defer pw.Close()
		// All three accepted line forms, plus a broken statement mid-stream.
		for i := 0; i < 20; i++ {
			var line string
			switch i % 3 {
			case 0:
				line = good // raw SQL text
			case 1:
				line = `{"sql": "` + good + `"}` // object form
			default:
				line = `"` + good + `"` // JSON string form
			}
			if i == 7 {
				line = "SELECT broken FROM"
			}
			if _, err := io.WriteString(pw, line+"\n"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	resp, err := http.Post(srv.URL+"/query/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 20; i++ {
		frame, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 7 {
			var slot map[string]string
			if err := json.Unmarshal(frame, &slot); err != nil {
				t.Fatalf("frame %d does not decode: %v", i, err)
			}
			if slot["error"] == "" || slot["sql"] != "SELECT broken FROM" {
				t.Fatalf("frame %d: want isolated error slot, got %s", i, frame)
			}
			continue
		}
		var qr queryResponse
		if err := json.Unmarshal(frame, &qr); err != nil {
			t.Fatalf("frame %d does not decode: %v (%s)", i, err, frame)
		}
		if qr.SQL != good {
			t.Fatalf("frame %d out of order: sql %q", i, qr.SQL)
		}
		if qr.ActualSec <= 0 {
			t.Fatalf("frame %d: no actuals", i)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestSaturationShedsAndRecovers saturates a one-slot admission gate (a
// stream connection holds its slot for the connection's lifetime), checks a
// queued request completes, an over-queue request sheds promptly with 503 +
// Retry-After, and the admission ledger reconciles.
func TestSaturationShedsAndRecovers(t *testing.T) {
	_, eng := newTestServer(t)
	s := New(eng).WithAdmission(admission.Config{MaxInFlight: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler(30 * time.Second))
	defer srv.Close()
	good := "SELECT a1 FROM t100000_100 WHERE a1 < 100"

	// Hold the only slot with an open stream.
	pr, pw := io.Pipe()
	streamResp := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query/stream", "application/x-ndjson", pr)
		if err != nil {
			t.Error(err)
			streamResp <- nil
			return
		}
		streamResp <- resp
	}()
	io.WriteString(pw, good+"\n")
	resp := <-streamResp
	if resp == nil {
		t.FailNow()
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := readFrame(br); err != nil {
		t.Fatalf("stream frame: %v", err)
	}

	// Fill the one queue slot with a second request.
	queued := make(chan *http.Response, 1)
	go func() {
		r, err := http.Get(srv.URL + "/query?q=" + strings.ReplaceAll(good, " ", "+"))
		if err != nil {
			t.Error(err)
			queued <- nil
			return
		}
		queued <- r
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The next arrival finds the queue full: shed fast, 503, Retry-After.
	start := time.Now()
	shedResp, err := http.Get(srv.URL + "/query?q=" + strings.ReplaceAll(good, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, shedResp.Body)
	shedResp.Body.Close()
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", shedResp.StatusCode)
	}
	if ra, err := strconv.Atoi(shedResp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q", shedResp.Header.Get("Retry-After"))
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("shed took %v; shedding must not wait out the deadline", waited)
	}

	// Release the stream's slot: the queued request must complete normally.
	pw.Close()
	io.Copy(io.Discard, resp.Body)
	qresp := <-queued
	if qresp == nil {
		t.FailNow()
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("queued request status %d, want 200", qresp.StatusCode)
	}

	st := s.Admission()
	if st.Offered != 3 || st.Admitted != 2 || st.ShedQueueFull != 1 {
		t.Fatalf("ledger: %+v", st)
	}
	if got := st.Admitted + st.RateLimited + st.ShedQueueFull + st.ShedDeadline + st.Canceled; got != st.Offered {
		t.Fatalf("ledger does not reconcile: %+v", st)
	}
}

// TestRateLimit429 exercises the per-client token bucket over HTTP: a
// client that exceeds its budget gets 429 + Retry-After; another client ID
// is unaffected.
func TestRateLimit429(t *testing.T) {
	_, eng := newTestServer(t)
	s := New(eng).WithAdmission(admission.Config{MaxInFlight: 8, RateLimit: 0.001, Burst: 2})
	srv := httptest.NewServer(s.Handler(10 * time.Second))
	defer srv.Close()
	good := srv.URL + "/query?q=" + strings.ReplaceAll("SELECT a1 FROM t100000_100", " ", "+")

	get := func(client string) int {
		req, _ := http.NewRequest(http.MethodGet, good, nil)
		req.Header.Set(ClientIDHeader, client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("429 without Retry-After: %q", resp.Header.Get("Retry-After"))
			}
		}
		return resp.StatusCode
	}
	if got := get("alpha"); got != http.StatusOK {
		t.Fatalf("alpha #1: %d", got)
	}
	if got := get("alpha"); got != http.StatusOK {
		t.Fatalf("alpha #2: %d", got)
	}
	if got := get("alpha"); got != http.StatusTooManyRequests {
		t.Fatalf("alpha #3: %d, want 429", got)
	}
	if got := get("beta"); got != http.StatusOK {
		t.Fatalf("beta: %d", got)
	}
	if st := s.Admission(); st.RateLimited != 1 {
		t.Fatalf("rate-limited count: %+v", st)
	}
}

// TestClientIDHeaderSpellings: however a client spells the header on the
// wire, its requests draw on one rate-limit bucket. The server looks the value
// up under the canonical form of ClientIDHeader, which the constant's own
// spelling is not.
func TestClientIDHeaderSpellings(t *testing.T) {
	_, eng := newTestServer(t)
	s := New(eng).WithAdmission(admission.Config{MaxInFlight: 8, RateLimit: 0.001, Burst: 3})
	srv := httptest.NewServer(s.Handler(10 * time.Second))
	defer srv.Close()
	for i, name := range []string{"x-client-id", ClientIDHeader, "X-Client-Id", "x-client-id"} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(`{"sql":"SELECT a1 FROM t100000_100"}`))
		req.Header[name] = []string{"alpha"} // as spelled: Header.Set would canonicalise
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := http.StatusOK
		if i == 3 {
			want = http.StatusTooManyRequests // the bucket held three tokens
		}
		if resp.StatusCode != want {
			t.Errorf("request %d, header spelled %q: status %d, want %d", i, name, resp.StatusCode, want)
		}
	}
	if st := s.Admission(); st.RateLimited != 1 || st.Admitted != 3 {
		t.Errorf("admission: %+v, want 3 admitted and 1 rate-limited", st)
	}
}

// TestQueryStreamOversizedLine pins the per-line byte cap's failure mode: a
// statement line over maxStreamLine must answer a well-formed error frame in
// its slot — not kill the stream — and the statements on either side of it
// still execute. (The old bufio.Scanner path died silently on ErrTooLong,
// dropping every queued statement after the big line.)
func TestQueryStreamOversizedLine(t *testing.T) {
	srv, _ := newTestServer(t)
	good := "SELECT a1 FROM t100000_100 WHERE a1 < 100"
	big := strings.Repeat("x", maxStreamLine+16)
	body := good + "\n" + big + "\n" + good + "\n"

	resp, err := http.Post(srv.URL+"/query/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		frame, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v (stream died on the oversized line?)", i, err)
		}
		if i == 1 {
			var slot map[string]string
			if err := json.Unmarshal(frame, &slot); err != nil {
				t.Fatalf("oversized slot is not well-formed JSON: %v (%s)", err, frame)
			}
			if !strings.Contains(slot["error"], "exceeds") {
				t.Fatalf("oversized slot error = %q", slot["error"])
			}
			continue
		}
		var qr queryResponse
		if err := json.Unmarshal(frame, &qr); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		if qr.SQL != good || qr.ActualSec <= 0 {
			t.Fatalf("frame %d: statement after the oversized line not executed: %+v", i, qr)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}

	// The rejection is counted on the Prometheus surface.
	prom, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	text, _ := io.ReadAll(prom.Body)
	if !strings.Contains(string(text), "intellisphere_stream_oversized_total 1") {
		t.Error("stream_oversized counter not exported")
	}
}
