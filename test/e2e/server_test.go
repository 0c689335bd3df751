package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// This file is the one place the real binary is built, started, waited for,
// stopped and spoken to; the soak and every scenario go through it.

// waitLimit bounds every wait in the package: boot, exit, and each
// eventually. Generous, because a passing run never reaches it.
const waitLimit = 60 * time.Second

// buildDir holds the binary; TestMain removes it.
var buildDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildServe compiles cmd/serve once per test process, with -race when the
// harness itself is race-instrumented, so the server under test is the same
// build the suite is.
var buildServe = sync.OnceValues(func() (bin string, err error) {
	if buildDir, err = os.MkdirTemp("", "e2e-serve-"); err != nil {
		return "", err
	}
	bin = filepath.Join(buildDir, "serve")
	goCmd := os.Getenv("GO")
	if goCmd == "" {
		goCmd = "go"
	}
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command(goCmd, append(args, "-o", bin, "./cmd/serve")...)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%v\n%s", err, out)
	}
	return bin, nil
})

// skipIfShort opens every test of the package: they all build and boot the
// real binary.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
}

// server is one cmd/serve under test: its flags, its log, and the running
// incarnation. A test may kill and start it again; the flags and the log
// file carry over, the port does not.
type server struct {
	t       *testing.T
	args    []string
	logPath string
	logFrom int    // where the running incarnation's lines begin in the log
	base    string // http://host:port of the running incarnation
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process is reaped; waitErr is set
	waitErr error
}

// newServer prepares a server without starting it. At the end of the test
// whatever is still running is killed, a DATA RACE report in the log fails a
// race-instrumented run, and a failed test prints the whole server log.
func newServer(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{t: t, args: args, logPath: filepath.Join(t.TempDir(), "serve.log")}
	t.Cleanup(func() {
		if s.running() {
			s.kill()
		}
		log := s.log(0)
		if raceEnabled && strings.Contains(log, "DATA RACE") {
			t.Error("the server reported a data race")
		}
		if t.Failed() {
			t.Logf("server log:\n%s", log)
		}
	})
	return s
}

// startServer boots a server with the given flags and waits until it serves.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s := newServer(t, args...)
	s.start()
	return s
}

// launch execs the binary on an ephemeral port, appending to the log.
func (s *server) launch() {
	s.t.Helper()
	bin, err := buildServe()
	if err != nil {
		s.t.Fatalf("build serve: %v", err)
	}
	s.logFrom = len(s.log(0))
	f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, s.args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		s.t.Fatalf("start serve: %v", err)
	}
	exited := make(chan struct{})
	s.cmd, s.exited, s.base = cmd, exited, ""
	go func() {
		s.waitErr = cmd.Wait()
		f.Close()
		close(exited)
	}()
}

var servingLine = regexp.MustCompile(`serving on (\S+)`)

// start launches an incarnation and waits for the log line that names the
// port it bound; the listener is open by then, so the first request lands.
func (s *server) start() {
	s.t.Helper()
	s.launch()
	s.eventually("the server to log its address", func() bool {
		m := servingLine.FindStringSubmatch(s.log(s.logFrom))
		if m != nil {
			s.base = "http://" + m[1]
		}
		return m != nil
	})
	if status, body := s.get("/models"); status != http.StatusOK {
		s.t.Fatalf("GET /models after boot: %d: %s", status, body)
	}
}

func (s *server) running() bool {
	if s.cmd == nil {
		return false
	}
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// log returns the server log from a byte offset on.
func (s *server) log(from int) string {
	data, err := os.ReadFile(s.logPath)
	if err != nil || from > len(data) {
		return ""
	}
	return string(data[from:])
}

// waitExit waits for the process to be reaped.
func (s *server) waitExit() {
	s.t.Helper()
	select {
	case <-s.exited:
	case <-time.After(waitLimit):
		s.t.Fatal("server did not exit")
	}
}

// kill SIGKILLs the server: the crash under test.
func (s *server) kill() {
	s.t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		s.t.Fatalf("kill: %v", err)
	}
	s.waitExit()
}

// stop is the graceful path: SIGTERM must drain, log "bye" and exit 0. A
// race-instrumented server that saw a data race exits 66 here.
func (s *server) stop() {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatalf("SIGTERM: %v", err)
	}
	s.waitExit()
	if s.waitErr != nil {
		s.t.Fatalf("server exit after SIGTERM: %v", s.waitErr)
	}
	if !strings.Contains(s.log(s.logFrom), " bye\n") {
		s.t.Fatal("server exited on SIGTERM without finishing its shutdown sequence (no bye line)")
	}
}

// eventually polls cond until it holds. It is the only wait in the package:
// it gives up when the server dies or waitLimit passes, whichever is first.
func (s *server) eventually(what string, cond func() bool) {
	s.t.Helper()
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			s.t.Fatalf("timed out waiting for %s", what)
		}
		select {
		case <-s.exited:
			s.t.Fatalf("server exited while waiting for %s: %v", what, s.waitErr)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// do sends one request and returns the response with its body read.
func (s *server) do(req *http.Request) (*http.Response, []byte) {
	s.t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatalf("%s %s: %v", req.Method, req.URL.RequestURI(), err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatalf("%s %s: read body: %v", req.Method, req.URL.RequestURI(), err)
	}
	return resp, body
}

func (s *server) request(method, path, body string) *http.Request {
	s.t.Helper()
	req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
	if err != nil {
		s.t.Fatal(err)
	}
	return req
}

func (s *server) get(path string) (int, []byte) {
	s.t.Helper()
	resp, body := s.do(s.request(http.MethodGet, path, ""))
	return resp.StatusCode, body
}

func (s *server) post(path, body string) (int, []byte) {
	s.t.Helper()
	resp, data := s.do(s.request(http.MethodPost, path, body))
	return resp.StatusCode, data
}

// query runs one statement through GET /query.
func (s *server) query(sql string) (int, []byte) {
	s.t.Helper()
	return s.get("/query?q=" + url.QueryEscape(sql))
}

// doJSON sends one request, requires a 200 and decodes the answer into out.
func (s *server) doJSON(method, path, body string, out any) {
	s.t.Helper()
	resp, data := s.do(s.request(method, path, body))
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		s.t.Fatalf("%s %s: decode: %v: %s", method, path, err, data)
	}
}

func (s *server) getJSON(path string, out any) {
	s.t.Helper()
	s.doJSON(http.MethodGet, path, "", out)
}

func (s *server) postJSON(path, body string, out any) {
	s.t.Helper()
	s.doJSON(http.MethodPost, path, body, out)
}

// metric scrapes /metrics/prom and sums the samples of one series: a bare
// name matches it with any labels, a name with a label prefix
// (`name{system="flink"`) narrows it. An absent series reads 0.
func (s *server) metric(series string) float64 {
	s.t.Helper()
	status, body := s.get("/metrics/prom")
	if status != http.StatusOK {
		s.t.Fatalf("GET /metrics/prom: status %d", status)
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || rest == "" || !strings.Contains(series, "{") && rest[0] != ' ' && rest[0] != '{' {
			continue // another series that merely starts the same
		}
		// "[{labels}] value[ # exemplar]"
		rest, _, _ = strings.Cut(rest, " # ")
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[strings.LastIndex(rest, "}")+1:]), 64)
		if err != nil {
			s.t.Fatalf("/metrics/prom: bad sample %q", line)
		}
		sum += v
	}
	return sum
}
