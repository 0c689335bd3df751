package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"runtime"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/admission"
)

// flushCounter is an in-process ResponseWriter that counts explicit flushes
// (each one is a write(2) on a real connection) and keeps the body.
type flushCounter struct {
	h       http.Header
	body    bytes.Buffer
	flushes int
}

func (f *flushCounter) Header() http.Header         { return f.h }
func (f *flushCounter) WriteHeader(int)             {}
func (f *flushCounter) Write(p []byte) (int, error) { return f.body.Write(p) }
func (f *flushCounter) Flush()                      { f.flushes++ }
func (f *flushCounter) EnableFullDuplex() error     { return nil }

// lineReader hands out its lines one Read call at a time, the way a
// lock-step client's lines arrive.
type lineReader struct{ lines []string }

func (l *lineReader) Read(p []byte) (int, error) {
	if len(l.lines) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.lines[0])
	l.lines = l.lines[1:]
	return n, nil
}

func streamLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("\"SELECT a1 FROM t100000_100 WHERE a1 < %d\"\n", 100+i)
	}
	return lines
}

// TestQueryStreamCoalescesFlushes pins the flush rule: frames whose
// statements were already buffered share one flush, a statement that had to
// be waited for gets its predecessors flushed first.
func TestQueryStreamCoalescesFlushes(t *testing.T) {
	h := New(newBenchEngine(t)).Handler(10 * time.Second)
	lines := streamLines(32)

	burst := &flushCounter{h: http.Header{}}
	h.ServeHTTP(burst, streamPost("/query/stream", strings.NewReader(strings.Join(lines, ""))))
	if burst.flushes != 1 {
		t.Errorf("32 lines in one read: %d flushes, want 1", burst.flushes)
	}
	// Blank lines between statements answer nothing and must not hold a
	// finished frame back: line, blank, line arrive as three reads.
	step := &flushCounter{h: http.Header{}}
	h.ServeHTTP(step, streamPost("/query/stream", &lineReader{lines: []string{lines[0], "\n", lines[1], lines[2]}}))
	if step.flushes != 3 {
		t.Errorf("3 statements arriving one read at a time: %d flushes, want 3", step.flushes)
	}
	for name, got := range map[string]*flushCounter{"burst": burst, "step": step} {
		want := 32
		if name == "step" {
			want = 3
		}
		br := bufio.NewReader(&got.body)
		for i := 0; i < want; i++ {
			frame, err := readFrame(br)
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
			var qr queryResponse
			if err := json.Unmarshal(frame, &qr); err != nil || qr.SQL != strings.Trim(lines[i], "\"\n") {
				t.Fatalf("%s frame %d out of order or malformed: %v %s", name, i, err, frame)
			}
		}
		if _, err := readFrame(br); err != io.EOF {
			t.Errorf("%s: want EOF after the last frame, got %v", name, err)
		}
	}
}

func streamPost(path string, body io.Reader) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, path, body)
	return req
}

// streamConn opens a raw HTTP/1.1 connection to srv and starts a chunked
// POST /query/stream on it: every Write to the returned writer is one chunk
// on the wire, Close ends the request body, and frames come back on the
// returned reader. A deadline on the connection turns a stalled frame into a
// test failure.
func streamConn(t *testing.T, addr string) (io.WriteCloser, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "POST /query/stream HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	return chunkedBody{httputil.NewChunkedWriter(conn), conn}, bufio.NewReader(conn)
}

// chunkedBody adds the blank line that ends a chunked body after the
// chunked writer's closing zero-length chunk.
type chunkedBody struct {
	io.WriteCloser
	conn net.Conn
}

func (c chunkedBody) Close() error {
	if err := c.WriteCloser.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(c.conn, "\r\n")
	return err
}

// wantEnd ends the request body and expects the response to end with it.
func wantEnd(t *testing.T, w io.Closer, body *bufio.Reader) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(body); err != io.EOF {
		t.Errorf("want EOF after the last frame, got %v", err)
	}
}

// responseBody reads the response head off br (blocking until the server's
// first flush) and returns the de-chunked body.
func responseBody(t *testing.T, br *bufio.Reader) *bufio.Reader {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body)
}

func wantFrame(t *testing.T, body *bufio.Reader, i int, line string) {
	t.Helper()
	frame, err := readFrame(body)
	if err != nil {
		t.Fatalf("frame %d never arrived: %v", i, err)
	}
	var qr queryResponse
	if err := json.Unmarshal(frame, &qr); err != nil || qr.SQL != strings.Trim(line, "\"\n") {
		t.Fatalf("frame %d out of order or malformed: %v %s", i, err, frame)
	}
}

// TestQueryStreamPipelinedClient writes 32 statement lines in one chunk and
// only then starts reading: all 32 frames arrive, in order.
func TestQueryStreamPipelinedClient(t *testing.T) {
	srv, _ := newTestServer(t)
	w, br := streamConn(t, srv.Listener.Addr().String())
	lines := streamLines(32)
	if _, err := io.WriteString(w, strings.Join(lines, "")); err != nil {
		t.Fatal(err)
	}
	body := responseBody(t, br)
	for i, line := range lines {
		wantFrame(t, body, i, line)
	}
	wantEnd(t, w, body)
}

// TestQueryStreamLockStepClient reads frame N before it completes line N+1,
// and splits every line across two writes: the chunk that ends line N also
// carries the first half of line N+1, so the server always holds a partial
// line when it has to decide whether frame N goes out. It must — the client
// will not send the other half until it has the frame.
func TestQueryStreamLockStepClient(t *testing.T) {
	srv, _ := newTestServer(t)
	w, br := streamConn(t, srv.Listener.Addr().String())
	lines := streamLines(8)
	lines[3] = "\n" + lines[3] // a blank line rides along, answered by nothing
	half := func(i int) (string, string) { return lines[i][:len(lines[i])/2], lines[i][len(lines[i])/2:] }
	head, tail := half(0)
	if _, err := io.WriteString(w, head); err != nil {
		t.Fatal(err)
	}
	var body *bufio.Reader
	for i := range lines {
		chunk := tail
		if i+1 < len(lines) {
			head, tail = half(i + 1)
			chunk += head
		}
		if _, err := io.WriteString(w, chunk); err != nil {
			t.Fatal(err)
		}
		if body == nil {
			body = responseBody(t, br)
		}
		wantFrame(t, body, i, strings.TrimLeft(lines[i], "\n"))
	}
	wantEnd(t, w, body)
}

// TestQueryStreamOutlivesWriteTimeout: http.Server's WriteTimeout counts from
// the request header, which a stream's header is as old as the stream. A
// lock-step client on a stream three times that age still gets every frame.
func TestQueryStreamOutlivesWriteTimeout(t *testing.T) {
	srv := httptest.NewUnstartedServer(New(newBenchEngine(t)).Handler(10 * time.Second))
	srv.Config.WriteTimeout = 200 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)
	w, br := streamConn(t, srv.Listener.Addr().String())
	var body *bufio.Reader
	for i, line := range streamLines(7) { // 6 × 100 ms = 3 × WriteTimeout
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		if _, err := io.WriteString(w, line); err != nil {
			t.Fatal(err)
		}
		if body == nil {
			body = responseBody(t, br)
		}
		wantFrame(t, body, i, line)
	}
	wantEnd(t, w, body)
}

// TestIdleStreamGivesItsSlotBack: a stream holds an admission slot for as
// long as it lives, so one that has sat idle for the request timeout is ended
// by the server. With a single slot, a /query that arrives half a timeout
// into the idleness waits the other half for the slot and is then served,
// inside its own deadline.
func TestIdleStreamGivesItsSlotBack(t *testing.T) {
	const bound = 500 * time.Millisecond
	s := New(newBenchEngine(t)).WithAdmission(admission.Config{MaxInFlight: 1})
	srv := httptest.NewServer(s.Handler(bound))
	t.Cleanup(srv.Close)
	w, br := streamConn(t, srv.Listener.Addr().String())
	line := streamLines(1)[0]
	if _, err := io.WriteString(w, line); err != nil {
		t.Fatal(err)
	}
	body := responseBody(t, br)
	wantFrame(t, body, 0, line)

	time.Sleep(bound / 2) // the stream stays open and says nothing more
	resp, err := http.Get(srv.URL + "/query?q=SELECT+a1+FROM+t100000_100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/query behind an idle stream = %d, want 200 once the stream's slot is back", resp.StatusCode)
	}
	if _, err := readFrame(body); err != io.EOF {
		t.Errorf("the idle stream was not ended by the server: %v", err)
	}
	if st := s.Admission(); st.InFlight != 0 {
		t.Errorf("in flight after the idle stream ended = %d", st.InFlight)
	}
}

func TestPlainJSONString(t *testing.T) {
	for _, line := range []string{
		`"SELECT a1 FROM t1 WHERE a1 < 5"`, `""`, `"a"`, `"`, `"a`, `"a"b"`, `"a\"b"`, `"a\\b"`, `"a\nb"`, "\"a\tb\"", "\"a\x00b\"",
		`"größe"`, "\"a\xffb\"", `"aé"`, `"<&>"`, "\"\x7f\"", `"a" `, `"a"x`,
	} {
		var want string
		wantOK := json.Unmarshal([]byte(line), &want) == nil
		got, ok := plainJSONString([]byte(line))
		if ok && (!wantOK || got != want) {
			t.Errorf("plainJSONString(%q) = %q, encoding/json says %q (valid: %v)", line, got, want, wantOK)
		}
		// Whatever the fast path declines, streamStatement still decodes.
		sql, err := streamStatement([]byte(line))
		if wantOK && want != "" && (err != nil || sql != want) {
			t.Errorf("streamStatement(%q) = %q, %v; want %q", line, sql, err, want)
		}
		if !wantOK && err == nil {
			t.Errorf("streamStatement(%q) accepted malformed JSON as %q", line, sql)
		}
	}
	if _, ok := plainJSONString([]byte(`"SELECT 1"`)); !ok {
		t.Error("a plain ASCII string did not take the fast path")
	}
}

// TestPlainSQLObject: which spellings of the statement object take the fast
// path. What it declines still decodes (FuzzStatementForms holds both paths to
// encoding/json); declining costs time, accepting wrongly would cost answers.
func TestPlainSQLObject(t *testing.T) {
	for body, want := range map[string]string{
		`{"sql":"SELECT 1"}`:                       "SELECT 1",
		" {\t\"sql\" :\r\n\"SELECT a < 'b'\" } \n": "SELECT a < 'b'",
		`{"sql":""}`:                               "",
		`{"SQL":"SELECT 1"}`:                       "",
		`{"sql":"SELECT 1","sql":"SELECT 2"}`:      "",
		`{"sql":"SELECT 1","id":7}`:                "",
		`{"id":7,"sql":"SELECT 1"}`:                "",
		`{"sql":"SELECT \"a\""}`:                   "",
		`{"sql":"SELECT\n1"}`:                      "",
		`{"sql":"größe"}`:                          "",
		"{\"sql\":\"SELECT\x011\"}":                "",
		`{"sql":"SELECT 1"} x`:                     "",
		`{"sql":"SELECT 1"}{"sql":"SELECT 2"}`:     "",
		`{"sql":"SELECT 1"`:                        "",
		`{"sql":"SELECT 1`:                         "",
		`{"sql":`:                                  "",
		"{\v\"sql\":\"SELECT 1\"}":                 "",
		`"SELECT 1"`:                               "",
		``:                                         "",
	} {
		if got, ok := plainSQLObject([]byte(body)); got != want || ok != (want != "") {
			t.Errorf("plainSQLObject(%q) = %q, %v; want %q", body, got, ok, want)
		}
	}
}

// TestStreamMissAllocs pins what a never-seen statement costs through
// /query/stream, observability off: line → parse → plan miss → execute →
// render → frame. The budget sits about 20 % above the count at the time of
// writing (25.0 per statement over this mix of scans, group-bys and joins —
// two of them the statement's cache entry and its plan stamp, dropped with
// the request because a first sighting is not admitted, and one the systems
// list the planner renders with the EXPLAIN text, which with observability
// off nobody reads; 26.1 while a miss inserted into a statement cache and a
// plan cache under a canonical key rendered for the purpose; 28.1 while every
// statement's deadline was a context.WithTimeout, and
// 142.8 while the lexer, the planner's bookkeeping and the renderers still
// allocated per token, per candidate and per number).
func TestStreamMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := New(newBenchEngine(t)).Handler(10 * time.Second)
	const n = 300
	body := func(base int) []byte {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				fmt.Fprintf(&b, "\"SELECT a1, a5 FROM t1000000_250 WHERE a5 < %d\"\n", base+i)
			case 1:
				fmt.Fprintf(&b, "\"SELECT a100, SUM(a1), COUNT(*) FROM t100000_100 WHERE a2 < %d GROUP BY a100\"\n", base+i)
			default:
				fmt.Fprintf(&b, "\"SELECT r.a1, s.a2 FROM t1000000_250 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE r.a10 < %d\"\n", base+i)
			}
		}
		return b.Bytes()
	}
	w := &flushCounter{h: http.Header{}}
	h.ServeHTTP(w, streamPost("/query/stream", bytes.NewReader(body(1000)))) // warm pools
	req := streamPost("/query/stream", bytes.NewReader(body(5000)))
	w.body.Reset()
	w.body.Grow(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	perStmt := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("never-seen statement through /query/stream: %.1f allocs", perStmt)
	if perStmt > 30 {
		t.Errorf("a never-seen statement through /query/stream allocates %.1f times, budget 30", perStmt)
	}
}
