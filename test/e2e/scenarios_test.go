package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"intellisphere/internal/demo"
	"intellisphere/internal/obs"
)

// The scenarios: one server boot per flag family, asserting through the
// socket what only the real binary can show — that cmd/serve's flags reach
// the subsystem they name. What a handler answers given a configured
// subsystem is internal/server's httptest suites' to pin, not repeated here.

// answer is the part of a /query answer (also a /query/batch slot and a
// /query/stream frame) the scenarios look at.
type answer struct {
	SQL       string  `json:"sql"`
	ActualSec float64 `json:"actual_sec"`
	Error     string  `json:"error"`
	TraceText string  `json:"trace_text"`
	Trace     *struct {
		ID uint64 `json:"id"`
	} `json:"trace"`
}

const aggSQL = "SELECT a2, COUNT(a1) FROM t1000000_100 GROUP BY a2"

// expositionLine is a sample line of the Prometheus text format:
// "name[{labels}] value", optionally followed by an OpenMetrics exemplar
// (" # {labels} value [timestamp]") on histogram bucket lines.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+( # \{[^{}]*\} [-+0-9.eE]+( [-+0-9.eE]+)?)?$`)

// TestServeRejectsNonPositiveTimeout: -timeout is one value, checked once. A
// non-positive one used to reach Server.Handler (which read it as 30s) and
// http.Server.WriteTimeout (which read it raw: 5s, or none); now the process
// refuses to start, before it spends seconds building the federation.
func TestServeRejectsNonPositiveTimeout(t *testing.T) {
	skipIfShort(t)
	for _, v := range []string{"0", "-1s"} {
		s := newServer(t, "-timeout", v)
		s.launch()
		s.waitExit()
		log := s.log(0)
		if s.waitErr == nil || !strings.Contains(log, "-timeout must be positive") || strings.Contains(log, "building") {
			t.Errorf("serve -timeout %s: exit %v, want a start-up refusal; log:\n%s", v, s.waitErr, log)
		}
	}
}

// TestDefaultsScenario is a server as the README starts one, plus -warm and
// -pprof: the three statement routes, the exposition format, the trace
// surface, the profiling surface, and a clean exit.
func TestDefaultsScenario(t *testing.T) {
	skipIfShort(t)
	s := startServer(t, "-warm", "-pprof")

	// -warm logs one line per demo statement that failed to plan: any such
	// line means demo.Statements has drifted from the demo catalog.
	if log := s.log(0); !strings.Contains(log, "plan cache warmed") || strings.Contains(log, `warm "`) {
		t.Fatalf("plan-cache warm-up did not run clean; log:\n%s", log)
	}

	// The first client request for a warmed statement is a plan-cache hit
	// (the cache admits on second sight, so -warm plans each statement twice).
	var one answer
	s.postJSON("/query", `{"sql": "SELECT a1 FROM t10000_100 WHERE a1 < 100"}`, &one)
	if one.ActualSec <= 0 {
		t.Fatalf("/query answered no actuals: %+v", one)
	}
	if hits, misses := s.metric("intellisphere_plan_cache_hits_total"), s.metric("intellisphere_plan_cache_misses_total"); hits != 1 || misses != float64(2*len(demo.Statements())) {
		t.Errorf("first request after -warm: %v plan-cache hits and %v misses, want 1 and two per warmed statement", hits, misses)
	}
	var slots []answer
	s.postJSON("/query/batch", `["SELECT a1 FROM t10000_100 WHERE a1 < 100", {"sql": "`+aggSQL+`"}, "SELECT a1 FROM no_such_table"]`, &slots)
	if len(slots) != 3 || slots[0].ActualSec <= 0 || slots[1].ActualSec <= 0 || slots[2].Error == "" {
		t.Fatalf("/query/batch: want two answers and a per-statement error, got %+v", slots)
	}

	// A traced query returns the span tree with the whole pipeline: parse,
	// plan with candidate-costing spans, execute with a per-step operator
	// span. The ring replays it on /trace in both shapes. (A statement
	// neither -warm nor the batch above has planned: a cached plan has no
	// costing spans.)
	var traced answer
	s.postJSON("/query?trace=1", `{"sql": "SELECT a5, COUNT(a1) FROM t1000000_100 GROUP BY a5"}`, &traced)
	if traced.Trace == nil {
		t.Fatalf("traced /query returned no span tree: %+v", traced)
	}
	for _, span := range []string{"parse", "plan", "cost on ", "execute", "aggregation on "} {
		if !strings.Contains(traced.TraceText, span) {
			t.Errorf("traced /query: no %q span in:\n%s", span, traced.TraceText)
		}
	}
	if status, body := s.get("/trace"); status != http.StatusOK || !bytes.Contains(body, []byte(`"root"`)) {
		t.Errorf("/trace: status %d, no span tree in: %s", status, body)
	}
	header := fmt.Sprintf("trace #%d ", traced.Trace.ID)
	if status, body := s.get("/trace?format=text"); status != http.StatusOK || !bytes.Contains(body, []byte(header)) {
		t.Errorf("/trace?format=text: status %d, no %q in: %s", status, header, body)
	}

	// /metrics/prom speaks the text exposition format — TYPE comments, the
	// serving counters, a cumulative histogram with its +Inf bucket, labeled
	// gauges — and is the only metrics route.
	status, prom := s.get("/metrics/prom")
	if status != http.StatusOK {
		t.Fatalf("/metrics/prom: status %d", status)
	}
	for _, want := range []string{
		"# TYPE intellisphere_queries_total counter\n",
		"# TYPE intellisphere_parse_seconds histogram\n",
		"\nintellisphere_plan_cache_hits_total ",
		"\nintellisphere_parse_seconds_bucket{le=\"+Inf\"} ",
		"\nintellisphere_estimator_mean_q_error{system=",
		"\nintellisphere_breaker_state{system=",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics/prom lacks %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(prom)), "\n") {
		if !strings.HasPrefix(line, "#") && !expositionLine.MatchString(line) {
			t.Errorf("/metrics/prom: malformed exposition line %q", line)
		}
	}
	if status, _ := s.get("/metrics"); status != http.StatusNotFound {
		t.Errorf("GET /metrics answered %d, want 404 (/metrics/prom is the only metrics route)", status)
	}

	if status, _ := s.get("/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("-pprof: /debug/pprof/cmdline answered %d", status)
	}
	s.stop()
}

// TestObservabilityScenario walks the continuous-observability pipeline with
// windows tight enough for a whole alert cycle to fit in seconds (250ms
// collector ticks, a 1s fast / 3s slow burn window, a low burn factor): a
// traced query whose ID joins its wide event to its span tree, exemplars, an
// error burst that fires the availability SLO and a clean stretch that
// resolves it, the history ring, and the rotated NDJSON log on disk.
func TestObservabilityScenario(t *testing.T) {
	skipIfShort(t)
	eventLog := filepath.Join(t.TempDir(), "events.ndjson")
	s := startServer(t,
		"-event-log", eventLog, "-event-log-max-bytes", "4096", "-event-sample", "1",
		"-obs-step", "250ms", "-slo-fast", "1s", "-slo-slow", "3s", "-slo-burn", "2",
		"-slo-availability", "0.999")

	var traced answer
	s.postJSON("/query?trace=1", `{"sql": "`+aggSQL+`"}`, &traced)
	if traced.Trace == nil {
		t.Fatalf("traced /query returned no span tree: %+v", traced)
	}
	var events struct {
		Events []obs.Event `json:"events"`
	}
	s.getJSON("/events?n=10", &events)
	if len(events.Events) != 1 || events.Events[0].StmtHash == "" || events.Events[0].TraceID != traced.Trace.ID {
		t.Fatalf("/events: want one wide event carrying trace ID %d, got %+v", traced.Trace.ID, events.Events)
	}
	if status, body := s.get("/trace"); status != http.StatusOK || !bytes.Contains(body, []byte(fmt.Sprintf(`"id": %d,`, traced.Trace.ID))) {
		t.Fatalf("event trace ID %d does not resolve on /trace: %s", traced.Trace.ID, body)
	}
	if _, prom := s.get("/metrics/prom"); !bytes.Contains(prom, []byte(fmt.Sprintf(` # {trace_id="%d"} `, traced.Trace.ID))) {
		t.Error("/metrics/prom carries no exemplar naming the traced query")
	}

	// Every statement fails, so the availability objective burns far past its
	// factor in both windows; then healthy statements drain them and
	// hysteresis resolves the alert.
	availability := func() (state string, resolved int) {
		var slo struct {
			Objectives []struct {
				Name          string `json:"name"`
				State         string `json:"state"`
				ResolvedTotal int    `json:"resolved_total"`
			} `json:"objectives"`
		}
		s.getJSON("/slo", &slo)
		for _, o := range slo.Objectives {
			if o.Name == "availability" {
				return o.State, o.ResolvedTotal
			}
		}
		t.Fatalf("/slo lists no availability objective: %+v", slo)
		return "", 0
	}
	s.eventually("the availability SLO to fire under a pure-error burst, on /slo and on /health", func() bool {
		s.query("SELECT nope FROM")
		var health struct {
			SLO struct {
				Firing int `json:"firing"`
			} `json:"slo"`
		}
		s.getJSON("/health", &health)
		state, _ := availability()
		return state == "firing" && health.SLO.Firing >= 1
	})
	s.eventually("the availability SLO to resolve after the burst", func() bool {
		s.query("SELECT a1 FROM t10000_100")
		_, resolved := availability()
		return resolved >= 1
	})

	// The history ring sampled the cycle: some step saw the burst's errors.
	var history struct {
		Samples []struct {
			QPS       float64 `json:"qps"`
			ErrorRate float64 `json:"error_rate"`
		} `json:"samples"`
	}
	s.getJSON("/history?window=1m", &history)
	sawBurst := false
	for _, smp := range history.Samples {
		sawBurst = sawBurst || smp.QPS > 0 && smp.ErrorRate > 0
	}
	if !sawBurst {
		t.Errorf("/history: no sample of %d shows the error burst", len(history.Samples))
	}

	// ?errors=1 filters the ring down to the burst's failures.
	s.getJSON("/events?errors=1&n=5", &events)
	if len(events.Events) == 0 {
		t.Error("/events?errors=1 is empty after the burst")
	}
	for _, ev := range events.Events {
		if ev.Outcome != "error" {
			t.Errorf("/events?errors=1 leaked a %q event", ev.Outcome)
		}
	}

	// The sink drains the ring to disk as one JSON object per line, and the
	// burst outgrew -event-log-max-bytes, so the log rotated to .1.
	s.eventually("the event log to rotate", func() bool {
		return s.metric("intellisphere_event_log_rotations_total") > 0
	})
	rotated, err := os.ReadFile(eventLog + ".1")
	if err != nil {
		t.Fatalf("rotated event log: %v", err)
	}
	first, _, _ := bytes.Cut(rotated, []byte("\n"))
	var ev obs.Event
	if err := json.Unmarshal(first, &ev); err != nil || ev.Kind == "" {
		t.Errorf("event log line is not a wide event (%v): %s", err, first)
	}
	s.stop()
}

// readFrame consumes one length-prefixed frame of a /query/stream response:
// a decimal byte-count line, then exactly that many bytes.
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
	_, err = io.ReadFull(r, frame)
	return frame, err
}

// TestAdmissionScenario boots a deliberately tiny front door — one in-flight
// slot, one queue slot, an 8-entry plan cache, one request per client per
// 100 s — and shows each limit from outside.
func TestAdmissionScenario(t *testing.T) {
	skipIfShort(t)
	s := startServer(t, "-max-inflight", "1", "-queue-depth", "1", "-cache-size", "8", "-rate-limit", "0.01")
	// At that rate a client's bucket holds one token and refills long after
	// the test is over, so every request below names its own client, and
	// whether the second request of one client is refused does not depend on
	// how fast the host is.
	as := func(client string, req *http.Request) *http.Request {
		req.Header.Set("X-Client-ID", client)
		return req
	}

	// Pipelining: 100 statements down one connection come back as 100
	// frames, in order (each echoes its statement, whose literal is its
	// sequence number), each announcing its exact length.
	const n = 100
	stmt := func(i int) string { return fmt.Sprintf("SELECT a1 FROM t10000_100 WHERE a1 < %d", i) }
	var lines strings.Builder
	for i := 1; i <= n; i++ {
		lines.WriteString(stmt(i) + "\n")
	}
	piped, frames := s.do(as("pipeline", s.request(http.MethodPost, "/query/stream", lines.String())))
	if piped.StatusCode != http.StatusOK {
		t.Fatalf("/query/stream: status %d: %s", piped.StatusCode, frames)
	}
	br := bufio.NewReader(bytes.NewReader(frames))
	for i := 1; i <= n; i++ {
		frame, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var a answer
		if err := json.Unmarshal(frame, &a); err != nil || a.SQL != stmt(i) || a.ActualSec <= 0 {
			t.Fatalf("frame %d: want the answer to %q, got (%v) %s", i, stmt(i), err, frame)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after frame %d: %v, want EOF", n, err)
	}
	// 100 distinct statements sent once each went past an 8-entry cache: a
	// statement is admitted on its second sighting, so none was.
	size, evicted := s.metric("intellisphere_plan_cache_size"), s.metric("intellisphere_plan_cache_evicted_total")
	if size != 0 || evicted != 0 {
		t.Errorf("%v statements cached and %v evicted after %d distinct statements sent once", size, evicted, n)
	}
	// Sent twice each they all are, and the cache holds at its ceiling. (The
	// size is what shows the flag arrived: the default cache evicts here too,
	// its sampled shard hash putting statements that differ in one trailing
	// literal on few of its 16-entry shards.)
	lines.Reset()
	for i := n + 1; i <= 2*n; i++ {
		lines.WriteString(stmt(i) + "\n" + stmt(i) + "\n")
	}
	if piped, frames := s.do(as("flood", s.request(http.MethodPost, "/query/stream", lines.String()))); piped.StatusCode != http.StatusOK {
		t.Fatalf("/query/stream: status %d: %s", piped.StatusCode, frames)
	}
	size, evicted = s.metric("intellisphere_plan_cache_size"), s.metric("intellisphere_plan_cache_evicted_total")
	if size != 8 || evicted != n-8 {
		t.Errorf("-cache-size 8: %v statements cached and %v evicted after %d distinct statements sent twice, want 8 and %d", size, evicted, n, n-8)
	}

	// Saturation: a stream holds its admission slot while its request body
	// stays open, so the next request queues and the one after sheds.
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, s.base+"/query/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := io.WriteString(pw, stmt(50)+"\n")
		held <- err
	}()
	resp, err := http.DefaultClient.Do(as("holder", req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(resp.Body)); err != nil {
		t.Fatalf("held stream's frame: %v", err)
	}
	if got := s.metric("intellisphere_admission_in_flight"); got != 1 {
		t.Fatalf("held stream: admission_in_flight = %v, want 1", got)
	}

	probe := func(client string) *http.Request {
		return as(client, s.request(http.MethodGet, "/query?q=SELECT+a1+FROM+t10000_100", ""))
	}
	queued := make(chan int, 1)
	go func(req *http.Request) {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			queued <- 0
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}(probe("waiter"))
	s.eventually("the second request to queue", func() bool {
		return s.metric("intellisphere_admission_queued") == 1
	})

	shed, _ := s.do(probe("latecomer"))
	if ra, _ := strconv.Atoi(shed.Header.Get("Retry-After")); shed.StatusCode != http.StatusServiceUnavailable || ra < 1 {
		t.Fatalf("third request at a full gate: status %d, Retry-After %q; want 503 and a back-off", shed.StatusCode, shed.Header.Get("Retry-After"))
	}

	// Closing the stream frees its slot: the queued request completes.
	pw.Close()
	if status := <-queued; status != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", status)
	}
	if got := s.metric("intellisphere_admission_shed_queue_full_total"); got != 1 {
		t.Errorf("admission_shed_queue_full_total = %v, want 1", got)
	}
	if got := s.metric("intellisphere_stream_statements_total"); got != 3*n+1 {
		t.Errorf("stream_statements_total = %v, want %d", got, 3*n+1)
	}

	// -rate-limit: a client's second request finds its bucket empty and gets
	// 429 with a back-off; another client ID is untouched.
	if resp, _ := s.do(probe("greedy")); resp.StatusCode != http.StatusOK {
		t.Errorf("a client's first request: status %d, want 200", resp.StatusCode)
	}
	limited, _ := s.do(probe("greedy"))
	if ra, _ := strconv.Atoi(limited.Header.Get("Retry-After")); limited.StatusCode != http.StatusTooManyRequests || ra < 1 {
		t.Errorf("-rate-limit 0.01: a client's second request: status %d, Retry-After %q; want 429 and a back-off", limited.StatusCode, limited.Header.Get("Retry-After"))
	}
	if resp, _ := s.do(probe("patient")); resp.StatusCode != http.StatusOK {
		t.Errorf("another client beside a rate-limited one: status %d, want 200", resp.StatusCode)
	}
	s.stop()
}

// TestTunerScenario closes the adaptivity loop on the blackbox flink remote
// under a drift that only -tune-drift-q makes one: a 1.8x latency regime
// puts flink's aggregation model at a mean q-error of about 1.75, below the
// default threshold of 2.0 and above the configured 1.5. The window must
// read drifting, the background tuner must retrain a candidate from the
// executed-query log, shadow-score it and promote it, the flag must clear
// against the promoted model, and POST /models must roll the promotion back.
func TestTunerScenario(t *testing.T) {
	skipIfShort(t)
	s := startServer(t, "-logical-remote",
		"-tune-interval", "250ms", "-tune-drift-q", "1.5", "-tune-holdout", "2", "-tune-min-log", "4")
	const (
		driftSQL = `{"sql": "SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"}`
		window   = `{system="flink",operator="aggregation"}`
	)
	run := func(times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if status, body := s.post("/query", driftSQL); status != http.StatusOK {
				t.Fatalf("flink aggregation: status %d: %s", status, body)
			}
		}
	}

	var models struct {
		Systems []struct {
			System   string `json:"system"`
			Versions []struct {
				Origin  string `json:"origin"`
				Live    bool   `json:"live"`
				Holdout *struct {
					LiveQ      float64 `json:"live_q"`
					CandidateQ float64 `json:"candidate_q"`
				} `json:"holdout"`
			} `json:"versions"`
		} `json:"systems"`
		Tuning struct {
			Promotions int `json:"promotions"`
		} `json:"tuning"`
	}
	s.getJSON("/models", &models)
	flink := -1
	for i, sys := range models.Systems {
		if sys.System == "flink" {
			flink = i
		}
	}
	if flink < 0 || len(models.Systems[flink].Versions) != 0 || models.Tuning.Promotions != 0 {
		t.Fatalf("/models at boot: want flink listed with no history and no promotion, got %+v", models)
	}

	if status, body := s.post("/faults", `{"system": "flink", "rates": {"latency": 1, "latency_factor": 1.8}}`); status != http.StatusOK || !bytes.Contains(body, []byte(`"flink"`)) {
		t.Fatalf("arming flink's latency regime: status %d: %s", status, body)
	}
	// Five executions are one short of -tune-min-log + -tune-holdout: the
	// window fills, and no tune pass can reset it under the check.
	run(5)
	if q := s.metric("intellisphere_estimator_mean_q_error" + window); q <= 1.5 || q >= 2 {
		t.Fatalf("flink aggregation mean q-error = %v, want between -tune-drift-q 1.5 and the default 2.0", q)
	}
	if s.metric("intellisphere_estimator_drifting"+window) != 1 {
		t.Fatal("-tune-drift-q 1.5: a window above it does not read drifting on /metrics/prom")
	}

	// The sixth makes the log just large enough, so the candidate trains on
	// the same records whenever the tuner's poll happens to land.
	run(1)
	s.eventually("the tuner to promote a candidate", func() bool {
		return s.metric("intellisphere_tune_promotions_total") >= 1
	})
	// Promotion resets the window; executions predicted by the promoted
	// model then fill it with q-errors below the threshold.
	run(5)
	if q := s.metric("intellisphere_estimator_mean_q_error" + window); q < 1 || q >= 1.5 {
		t.Errorf("flink aggregation mean q-error after promotion = %v, want below 1.5", q)
	}
	if s.metric("intellisphere_estimator_drifting"+window) != 0 {
		t.Error("flink's drift flag did not clear after promotion")
	}

	// Lineage: the initial model archived, the tuned one live with the
	// holdout score that promoted it.
	s.getJSON("/models", &models)
	vs := models.Systems[flink].Versions
	if len(vs) < 2 || vs[0].Origin != "initial" || vs[0].Live {
		t.Fatalf("/models: want the initial version archived first, got %+v", vs)
	}
	if last := vs[len(vs)-1]; last.Origin != "tuned" || !last.Live || last.Holdout == nil || last.Holdout.CandidateQ >= last.Holdout.LiveQ {
		t.Fatalf("/models: want a live tuned version with an improving holdout score, got %+v", last)
	}

	var rolled struct {
		Origin string `json:"origin"`
		Live   bool   `json:"live"`
	}
	s.postJSON("/models", `{"action": "rollback", "system": "flink"}`, &rolled)
	if rolled.Origin == "" || !rolled.Live {
		t.Errorf("rollback: want the restored version live, got %+v", rolled)
	}
	if got := s.metric("intellisphere_tune_rollbacks_total"); got != 1 {
		t.Errorf("tune_rollbacks_total = %v, want 1", got)
	}
	// The graceful stop ends the tuner loop before feedback is flushed.
	s.stop()
}
