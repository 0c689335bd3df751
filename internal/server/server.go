// Package server exposes a master engine over HTTP/JSON — the serving layer
// in front of the federated optimizer. Endpoints:
//
//	POST /query        {"sql": "..."}  plan + execute, returns plan and actuals
//	POST /query/batch  ["...", ...]    a group of statements, each run as
//	                                   /query would run it, in order;
//	                                   returns one element per statement
//	POST /query/stream NDJSON lines    persistent high-QPS pipeline: one
//	                                   statement per line in, one
//	                                   length-prefixed JSON frame per
//	                                   statement out, in order, errors
//	                                   isolated per slot
//	POST /explain      {"sql": "..."}  plan only, returns the rendered plan
//	GET  /metrics/prom                 every serving counter — queries,
//	                                   per-stage latency histograms, plan
//	                                   cache, admission, estimator
//	                                   accuracy — in the Prometheus
//	                                   text exposition format (0.0.4); the
//	                                   only metrics route
//	GET  /trace                        recent traced queries as span trees
//	                                   (?n= bounds, ?format=text renders,
//	                                   ?errors=1 / ?system= / ?min_ms= filter)
//	GET  /events                       recent wide query events (?n= bounds;
//	                                   ?errors=1 / ?system= / ?min_ms= /
//	                                   ?since= filter)
//	GET  /slo                          declared objectives with burn rates
//	                                   and alert states
//	GET  /health                       federation availability: circuit-breaker
//	                                   states, retry/fallback counters; 503
//	                                   while any breaker is open; with a data
//	                                   directory, also the boot recovery
//	                                   summary and snapshot/WAL position
//	GET  /models                       every registered system's costing
//	                                   profile (approach, active side,
//	                                   engine) and model versions; POST
//	                                   tunes, promotes or rolls back
//	GET  /catalog                      registered tables with materialization
//	                                   flags; POST registers/materializes
//	GET  /links                        QueryGrid link configurations; POST
//	                                   installs a per-system override
//
// /query and /explain also accept GET with a ?q= parameter for curl
// convenience; /query?trace=1 additionally records and returns the query's
// span tree (the serving stack's EXPLAIN ANALYZE).
//
// The hot endpoints (/query, /query/batch, /query/stream) sit behind an
// admission controller (internal/admission) instead of http.TimeoutHandler:
// concurrency is capped, overflow queues up to a bound, hopeless requests
// shed early with 503 + Retry-After, per-client rate limits answer 429, and
// the request deadline travels the context into the engine so a timed-out
// query cancels its remaining plan steps. Their responses render through
// hand-rolled zero-allocation encoders over pooled buffers (encode.go),
// byte-identical to the encoding/json output they replaced. Cold endpoints
// keep http.TimeoutHandler. Request bodies are capped with
// http.MaxBytesReader (413 beyond 1 MiB). The engine underneath is safe for
// whatever concurrency net/http throws at it.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"time"

	"intellisphere/internal/admission"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/metrics"
	"intellisphere/internal/modelver"
	"intellisphere/internal/obs"
	"intellisphere/internal/sqlparse"
	"intellisphere/internal/trace"
)

// maxBodyBytes bounds every request body (http.MaxBytesReader): a
// misbehaving client gets 413, not an unbounded read into memory. The cap is
// on the body as a whole, whatever it holds; 1 MiB comfortably fits the
// largest sane statement batch.
const maxBodyBytes = 1 << 20

// ClientIDHeader names the request header whose value keys per-client
// rate-limit buckets. Requests without it share the anonymous bucket.
const ClientIDHeader = "X-Client-ID"

// clientIDKey is ClientIDHeader as net/http files it in a request's header
// map. Header.Get canonicalises the name it is given on every call, and
// allocates to do so unless the name is already in this form.
var clientIDKey = http.CanonicalHeaderKey(ClientIDHeader)

// jsonContentType is the Content-Type value every JSON response shares.
var jsonContentType = []string{"application/json"}

// Server serves one engine.
type Server struct {
	eng     *engine.Engine
	start   time.Time
	faults  map[string]*faults.Injector
	adm     *admission.Controller
	timeout time.Duration
	// encodeErrors counts response encode/write failures that writeJSON and
	// the fast-path writers would otherwise swallow (satellite of the
	// serving fast path: the error used to be silently discarded).
	encodeErrors metrics.Counter
	// streamStatements counts statements answered over /query/stream.
	streamStatements metrics.Counter
	// streamOversized counts stream lines rejected for exceeding the
	// per-line byte cap (each still answers a well-formed error frame).
	streamOversized metrics.Counter
	// dur, when set via WithDurability, exposes snapshot/WAL state on
	// /health and /metrics/prom.
	dur *engine.Durability
	// obs, when set via WithObservability, backs /events, /slo and the
	// observability metrics on /metrics/prom.
	obs *obs.Observer
}

// New wraps an engine for serving with default admission control on the hot
// endpoints (64 in-flight, 128 queued, no rate limit).
func New(eng *engine.Engine) *Server {
	return &Server{
		eng: eng, start: time.Now(),
		adm: admission.NewController(admission.Config{}),
	}
}

// WithAdmission replaces the default admission controller, tuning the
// concurrency cap, queue depth, and per-client rate limit of the hot
// endpoints.
func (s *Server) WithAdmission(cfg admission.Config) *Server {
	s.adm = admission.NewController(cfg)
	return s
}

// Admission exposes the controller's counters for observability surfaces.
func (s *Server) Admission() admission.Stats { return s.adm.Stats() }

// WithFaults enables the /faults chaos endpoint over the given per-system
// injectors (typically demo.Federation.Injectors). Without it, /faults
// reports that injection is not enabled.
func (s *Server) WithFaults(inj map[string]*faults.Injector) *Server {
	s.faults = inj
	return s
}

// Handler builds the route table. Each route is bounded by timeout (≤ 0
// selects 30 s).
func (s *Server) Handler(timeout time.Duration) http.Handler {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	s.timeout = timeout
	mux := http.NewServeMux()
	bound := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, timeout, `{"error":"request timed out"}`)
	}
	// The hot endpoints go through admission control instead of
	// http.TimeoutHandler: the deadline rides the request context (so a
	// timed-out query cancels inside the engine rather than being abandoned
	// on a watchdog goroutine), concurrency is capped by the controller's
	// semaphore, and overload answers 503/429 with Retry-After instead of
	// piling up goroutines.
	mux.Handle("/query", s.admit(s.handleQuery))
	mux.Handle("/query/batch", s.admit(s.handleQueryBatch))
	mux.Handle("/query/stream", s.admitStream(s.handleQueryStream))
	mux.Handle("/explain", bound(s.handleExplain))
	mux.Handle("/metrics/prom", bound(s.handlePromMetrics))
	mux.Handle("/trace", bound(s.handleTrace))
	mux.Handle("/events", bound(s.handleEvents))
	mux.Handle("/slo", bound(s.handleSLO))
	mux.Handle("/health", bound(s.handleHealth))
	mux.Handle("/faults", bound(s.handleFaults))
	mux.Handle("/models", bound(s.handleModels))
	mux.Handle("/catalog", bound(s.handleCatalog))
	mux.Handle("/links", bound(s.handleLinks))
	return mux
}

// statementRequest is the body of /query and /explain.
type statementRequest struct {
	SQL string `json:"sql"`
}

// urlQuery parses the request's query string, which a POST to a hot route
// rarely has: nil then, and Get on a nil url.Values answers "".
func urlQuery(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// readSQL extracts the statement from the q parameter (GET; query is the
// request's urlQuery) or a JSON body (POST), which it reads whole into buf,
// capped at maxBodyBytes. The body's first JSON value is the request and
// whatever follows it is ignored: plainSQLObject recognises the form clients
// send, and what it declines is encoding/json's.
func readSQL(w http.ResponseWriter, r *http.Request, query url.Values, buf *bytes.Buffer) (string, error) {
	if q := query.Get("q"); q != "" {
		return q, nil
	}
	if r.Body == nil {
		return "", fmt.Errorf("missing statement: POST {\"sql\": ...} or GET ?q=...")
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return "", fmt.Errorf("decode request: %w", err)
	}
	if sql, ok := plainSQLObject(buf.Bytes()); ok {
		return sql, nil
	}
	var req statementRequest
	if err := json.NewDecoder(buf).Decode(&req); err != nil {
		return "", fmt.Errorf("decode request: %w", err)
	}
	if req.SQL == "" {
		return "", fmt.Errorf("empty sql field")
	}
	return req.SQL, nil
}

// requestStatus maps a request-reading error onto its HTTP status: an
// over-limit body (http.MaxBytesError from the capped reader) is 413,
// everything else is a plain bad request.
func requestStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeAdminBody reads the JSON body of an admin POST (/catalog, /links,
// /models, /faults) into a T, capped at maxBodyBytes like every other body;
// usage spells the expected shape for a request that has none. The caller
// answers an error with requestStatus(err): 413 beyond the cap, else 400.
func decodeAdminBody[T any](w http.ResponseWriter, r *http.Request, usage string) (req T, err error) {
	if r.Body == nil {
		return req, fmt.Errorf("missing request: POST %s", usage)
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, fmt.Errorf("decode request: %w", err)
	}
	return req, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		// The status line is gone; all that is left is to make the failure
		// visible instead of dropping it on the floor.
		s.encodeErrors.Inc()
		log.Printf("server: encode response: %v", err)
	}
}

// writeError answers with the standard {"code": ..., "error": ...} frame
// through the pooled fast-path encoder (error frames are hot under load
// shedding), classifying the error into its machine-readable code.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeErrorCode(w, status, errorCode(err), err)
}

// writeErrorCode is writeError with an explicit code, for handlers whose
// errors carry a classification the type system cannot (e.g. "not_enabled").
func (s *Server) writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	buf := getBuf()
	enc := jw{b: buf}
	encodeErrorFrame(&enc, code, err.Error())
	buf.WriteByte('\n')
	s.writeBuf(w, status, buf)
	putBuf(buf)
}

// errorCode classifies an error into the machine-readable "code" field every
// top-level error frame carries, so clients and dashboards branch on a
// stable token instead of matching message text:
//
//	parse_error     the statement failed to lex or parse
//	shed            admission refused the request (queue full or hopeless
//	                deadline)
//	rate_limited    the client exceeded its admission rate limit
//	unknown_system  a plan step targets an unregistered remote
//	timeout         the request deadline expired mid-query
//	too_large       the request body exceeded the byte cap
//	bad_request     everything else
func errorCode(err error) string {
	var pe *sqlparse.ParseError
	var shed *admission.ShedError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &pe):
		return "parse_error"
	case errors.As(err, &shed):
		if errors.Is(err, admission.ErrRateLimited) {
			return "rate_limited"
		}
		return "shed"
	case errors.Is(err, engine.ErrUnknownSystem):
		return "unknown_system"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.As(err, &mbe):
		return "too_large"
	default:
		return "bad_request"
	}
}

// writeBuf flushes a pre-encoded JSON body, counting write failures. The
// headers are assigned, not Set: the names are already canonical and the
// content type is the one slice every response shares. net/http works the
// length out itself only for a body that fits the 2 KiB it buffers before it
// commits to a framing; a longer one (a batch answer) is told here, or it
// leaves chunked, at one more write(2) for the terminator.
func (s *Server) writeBuf(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if buf.Len() > 2048 {
		h["Content-Length"] = []string{strconv.Itoa(buf.Len())}
	}
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.encodeErrors.Inc()
		log.Printf("server: write response: %v", err)
	}
}

// errStatus maps an engine error onto its HTTP status: a deadline that
// expired mid-query keeps the old http.TimeoutHandler's 503 semantics,
// everything else is the client's bad statement.
func errStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// admit wraps a hot handler with the admission gate: per-request deadline
// on the context, a concurrency slot held for the handler's duration, and
// shed/rate-limit verdicts turned into Retry-After responses. The handler is
// handed the context, not a copy of the request made to carry it.
func (s *Server) admit(h func(context.Context, http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := s.withDeadline(r.Context())
		defer ctx.release()
		release, err := s.adm.Acquire(ctx, r.Header.Get(clientIDKey))
		if err != nil {
			s.writeShed(w, err)
			return
		}
		defer release()
		h(ctx, w, r)
	})
}

// admitStream is admit for the streaming endpoint: the connection holds one
// admission slot for its whole lifetime (each statement inside gets its own
// deadline), so -max-inflight bounds streams and one-shot queries together.
// The unit of service on a stream is a statement, so the slot is a Hold: the
// connection's lifetime stays out of the service-time estimate.
func (s *Server) admitStream(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.Hold(r.Context(), r.Header.Get(clientIDKey))
		if err != nil {
			s.writeShed(w, err)
			return
		}
		defer release()
		h(w, r)
	})
}

// writeShed answers an admission refusal: 429 for a rate-limited client,
// 503 for a shed (full queue or hopeless deadline), both with a
// Retry-After hint; a context error while queued reports the deadline.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		s.writeError(w, errStatus(err), err)
		return
	}
	status := http.StatusServiceUnavailable
	outcome := "shed"
	if errors.Is(shed, admission.ErrRateLimited) {
		status = http.StatusTooManyRequests
		outcome = "rate_limited"
	}
	s.recordAdmissionEvent(outcome, err)
	retry := int(shed.RetryAfter / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.writeError(w, status, err)
}

// queryResponse is the /query result.
type queryResponse struct {
	SQL          string      `json:"sql"`
	Explain      string      `json:"explain"`
	EstimatedSec float64     `json:"estimated_sec"`
	ActualSec    float64     `json:"actual_sec"`
	StepActuals  []float64   `json:"step_actuals"`
	Degraded     bool        `json:"degraded,omitempty"`
	Excluded     []string    `json:"excluded,omitempty"`
	Columns      []string    `json:"columns,omitempty"`
	Rows         [][]float64 `json:"rows,omitempty"`
	// Trace carries the query's span tree and its EXPLAIN ANALYZE-style
	// rendering when the request asked for ?trace=1.
	Trace     *trace.Trace `json:"trace,omitempty"`
	TraceText string       `json:"trace_text,omitempty"`
}

// toQueryResponse maps an engine result onto the wire shape shared by
// /query and /query/batch.
func toQueryResponse(sql string, res *engine.QueryResult) queryResponse {
	resp := queryResponse{
		SQL:          sql,
		Explain:      res.Plan.Explain(),
		EstimatedSec: res.Plan.EstimatedSec,
		ActualSec:    res.ActualSec,
		StepActuals:  res.StepActuals,
		Degraded:     res.Degraded,
		Excluded:     res.Plan.Excluded,
	}
	if res.Rows != nil {
		resp.Columns = res.Rows.Columns
		resp.Rows = res.Rows.Rows
	}
	return resp
}

// wantTrace reports whether the request opted into per-query tracing
// (?trace=1 or ?trace=true).
func wantTrace(query url.Values) bool {
	v, _ := strconv.ParseBool(query.Get("trace"))
	return v
}

func (s *Server) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	// One pooled buffer holds the request body, then the response.
	buf := getBuf()
	defer putBuf(buf)
	query := urlQuery(r)
	sql, err := readSQL(w, r, query, buf)
	if err != nil {
		s.writeError(w, requestStatus(err), err)
		return
	}
	if wantTrace(query) {
		res, tr, err := s.eng.QueryTraced(ctx, sql)
		if err != nil {
			// The trace survives the failure: slow failures are exactly
			// what the span tree is for.
			s.writeJSON(w, errStatus(err), map[string]string{
				"error": err.Error(), "trace_text": tr.Render(),
			})
			return
		}
		resp := toQueryResponse(sql, res)
		resp.Trace = tr
		resp.TraceText = tr.Render()
		// Traced responses carry the span tree; they take the reflective
		// encoder (tracing is opt-in diagnostics, not the hot path).
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	buf.Reset()
	enc := jw{b: buf}
	if err := s.answer(ctx, &enc, sql); err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	buf.WriteByte('\n')
	s.writeBuf(w, http.StatusOK, buf)
}

// answer runs one statement through the engine and encodes its answer into
// enc — the per-statement step /query and /query/stream share — then hands
// the result back to the engine, which recycles a first sighting's plan. The
// error is also returned: a stream slot keeps the encoded error frame, /query
// answers with its top-level error response instead.
func (s *Server) answer(ctx context.Context, enc *jw, sql string) error {
	res, err := s.eng.QueryContext(ctx, sql)
	encodeAnswer(enc, sql, res, err)
	s.eng.Done(res)
	return err
}

// encodeAnswer encodes one statement's outcome in the shape /query,
// /query/batch elements and /query/stream frames all carry: the query
// response, or {"sql": ..., "error": ...} when the statement failed.
func encodeAnswer(enc *jw, sql string, res *engine.QueryResult, err error) {
	if err != nil {
		encodeStatementError(enc, sql, err.Error())
		return
	}
	resp := toQueryResponse(sql, res)
	encodeQueryResponse(enc, &resp)
}

// readBatch decodes a /query/batch body: a JSON array whose elements are
// either {"sql": "..."} objects or bare statement strings (the two forms may
// mix). It reads the body whole into buf, capped at maxBodyBytes; plainBatch
// takes the array clients send, and whatever it declines is encoding/json's,
// which then also decides what is an error and how it reads.
func readBatch(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) ([]string, error) {
	if r.Body == nil {
		return nil, fmt.Errorf("missing batch: POST [{\"sql\": ...}, ...] or [\"...\", ...]")
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if _, err := buf.ReadFrom(body); err == nil {
		if sqls, ok := plainBatch(buf.Bytes()); ok {
			return sqls, nil
		}
	}
	// The decoder sees what one reading the body directly would: the bytes
	// read, then how the read ended — the capped reader repeats its EOF or its
	// error — so an array that closes inside the cap is a batch even when
	// more than the cap follows it, and one that does not is a 413.
	var raw []json.RawMessage
	if err := json.NewDecoder(io.MultiReader(buf, body)).Decode(&raw); err != nil {
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

// plainBatch decodes b when it starts with a statement array as clients write
// it: '[', one or more elements that cutPlainString or cutSQLObject takes and
// that are not empty, ',' between them, ']', JSON whitespace allowed around
// every token. Like json.Decoder it reads one value: what follows the ']' is
// not looked at. An escape, another key, an element that is neither form, an
// empty or unfinished array are all left to encoding/json.
func plainBatch(b []byte) ([]string, bool) {
	b, ok := cutJSONToken(b, "[")
	if !ok {
		return nil, false
	}
	sqls := make([]string, 0, 16) // grows by append; most batches fit
	for {
		var sql string
		if b = bytes.TrimLeft(b, jsonSpace); len(b) > 0 && b[0] == '{' {
			sql, b, ok = cutSQLObject(b)
		} else {
			sql, b, ok = cutPlainString(b)
		}
		if !ok || sql == "" {
			return nil, false
		}
		sqls = append(sqls, sql)
		if b, ok = cutJSONToken(b, ","); ok {
			continue
		}
		_, ok = cutJSONToken(b, "]")
		return sqls, ok
	}
}

// handleQueryBatch serves POST /query/batch: the statements run one after
// another, each exactly as /query would run it. The response is an array
// aligned with the request; each element is either a /query result or
// {"sql": ..., "error": ...}, so one failed statement never fails its
// neighbors.
func (s *Server) handleQueryBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	// One pooled buffer holds the request body, then the response.
	buf := getBuf()
	defer putBuf(buf)
	sqls, err := readBatch(w, r, buf)
	if err != nil {
		s.writeError(w, requestStatus(err), err)
		return
	}
	buf.Reset()
	enc := jw{b: buf}
	buf.WriteByte('[')
	enc.depth++
	for i, sql := range sqls {
		if i > 0 {
			buf.WriteByte(',')
		}
		enc.newline()
		res, err := s.eng.QueryBatched(ctx, sql)
		encodeAnswer(&enc, sql, res, err)
		s.eng.Done(res)
	}
	enc.depth--
	enc.newline()
	buf.WriteString("]\n")
	s.writeBuf(w, http.StatusOK, buf)
}

// explainResponse is the /explain result.
type explainResponse struct {
	SQL     string `json:"sql"`
	Explain string `json:"explain"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	sql, err := readSQL(w, r, urlQuery(r), buf)
	if err != nil {
		s.writeError(w, requestStatus(err), err)
		return
	}
	out, err := s.eng.Explain(sql)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, explainResponse{SQL: sql, Explain: out})
}

// handleTrace serves the recent-traces ring: GET /trace returns the last
// traced queries as JSON span trees, newest first, through a recentFilter
// (?n= defaults to the whole ring; a trace has failed when it carries an
// error, and touched a system when one of its spans ran there);
// ?format=text renders each trace as an EXPLAIN ANALYZE-style tree instead.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	f := parseRecentFilter(r.URL.Query(), 0)
	traces := recentMatching(f, s.eng.RecentTraces, traceFields, (*trace.Trace).HasSystem)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(traces) == 0 {
			io.WriteString(w, "no traces recorded; run a query with ?trace=1\n")
			return
		}
		for _, t := range traces {
			io.WriteString(w, t.Render())
		}
		return
	}
	s.writeJSON(w, http.StatusOK, traces)
}

// faultStatus reports one injector on /faults.
type faultStatus struct {
	System string       `json:"system"`
	Down   bool         `json:"down"`
	Stats  faults.Stats `json:"stats"`
}

// faultRequest is the POST /faults body: flip one system's outage switch
// and/or dial its fault rates. Absent fields leave their setting untouched.
type faultRequest struct {
	System string        `json:"system"`
	Outage *bool         `json:"outage,omitempty"`
	Rates  *faults.Rates `json:"rates,omitempty"`
}

// handleFaults is the chaos control plane: GET lists every injector's
// outage switch and counters; POST {"system": "...", "outage": true}
// forces (or lifts) a full outage on one remote, and
// {"system": "...", "rates": {"latency": 1, "latency_factor": 20}} dials
// its fault rates (the drift-injection lever the tuner smoke test pulls).
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if s.faults == nil {
		s.writeErrorCode(w, http.StatusNotFound, "not_enabled", fmt.Errorf("fault injection not enabled"))
		return
	}
	if r.Method == http.MethodPost {
		req, err := decodeAdminBody[faultRequest](w, r, `{"system": ..., "outage": true} or {"system": ..., "rates": {...}}`)
		if err != nil {
			s.writeError(w, requestStatus(err), err)
			return
		}
		inj, ok := s.faults[req.System]
		if !ok {
			s.writeErrorCode(w, http.StatusBadRequest, "unknown_system", fmt.Errorf("unknown system %q", req.System))
			return
		}
		if req.Rates != nil {
			inj.SetRates(*req.Rates)
		}
		if req.Outage != nil {
			inj.SetOutage(*req.Outage)
		}
		s.writeJSON(w, http.StatusOK, faultStatus{System: req.System, Down: inj.Down(), Stats: inj.Stats()})
		return
	}
	out := make([]faultStatus, 0, len(s.faults))
	for name, inj := range s.faults {
		out = append(out, faultStatus{System: name, Down: inj.Down(), Stats: inj.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	s.writeJSON(w, http.StatusOK, out)
}

// modelInfo describes one registered system on GET /models: its costing
// profile — the approach, and for a hybrid the active side and the engine
// it models — and its version lineage (oldest first, live flagged; empty
// for a system with no versioned models).
type modelInfo struct {
	System   string             `json:"system"`
	Approach string             `json:"approach"`
	Active   string             `json:"active,omitempty"`
	Engine   string             `json:"engine,omitempty"`
	Versions []modelver.Version `json:"versions"`
}

// modelsResponse is the GET /models payload.
type modelsResponse struct {
	Systems []modelInfo        `json:"systems"`
	Tuning  engine.TuningStats `json:"tuning"`
}

// modelRequest is the POST /models body. Action is one of:
//
//	"tune"       run a candidate tune; promote only on holdout improvement
//	"force-tune" run a candidate tune and promote regardless of the verdict
//	"promote"    alias of "force-tune"
//	"rollback"   restore the previous model version byte-identically
//
// The optional knobs map onto engine.TuneOptions; TrainIterations sets the
// epoch count of engine.DefaultTuneTrain, the candidate retraining run (0
// keeps its 300).
type modelRequest struct {
	Action          string  `json:"action"`
	System          string  `json:"system"`
	Holdout         int     `json:"holdout,omitempty"`
	MinLog          int     `json:"min_log,omitempty"`
	MinGain         float64 `json:"min_gain,omitempty"`
	TrainIterations int     `json:"train_iterations,omitempty"`
}

// handleModels is the model-lifecycle admin surface: GET lists every
// registered system's costing profile and retained model versions (with
// holdout scores and the live flag); POST triggers a candidate tune, a
// forced promotion, or a rollback on one system.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		req, err := decodeAdminBody[modelRequest](w, r, `{"action": ..., "system": ...}`)
		if err != nil {
			s.writeError(w, requestStatus(err), err)
			return
		}
		if req.System == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("system is required"))
			return
		}
		switch req.Action {
		case "tune", "force-tune", "promote":
			opts := engine.TuneOptions{
				Holdout: req.Holdout, MinLog: req.MinLog, MinGain: req.MinGain,
				Force: req.Action != "tune",
			}
			if req.TrainIterations > 0 {
				opts.Train = engine.DefaultTuneTrain
				opts.Train.Iterations = req.TrainIterations
			}
			out, err := s.eng.TuneCandidate(r.Context(), req.System, opts)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
			s.writeJSON(w, http.StatusOK, out)
		case "rollback":
			v, err := s.eng.RollbackModel(req.System)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
			s.writeJSON(w, http.StatusOK, v)
		default:
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown action %q (want tune, force-tune, promote, or rollback)", req.Action))
		}
		return
	}
	resp := modelsResponse{Systems: []modelInfo{}, Tuning: s.eng.TuningStats()}
	for _, name := range s.eng.Systems() {
		info := modelInfo{System: name, Approach: "none", Versions: s.eng.ModelVersions(name)}
		if info.Versions == nil {
			info.Versions = []modelver.Version{}
		}
		if est, err := s.eng.Estimator(name); err == nil {
			info.Approach = string(est.Approach())
			if h, ok := est.(*hybrid.Estimator); ok {
				info.Active = string(h.Active())
				info.Engine = h.Profile().Engine.String()
			}
		}
		resp.Systems = append(resp.Systems, info)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealth reports federation availability. Load balancers get the
// verdict from the status code alone: 200 while every breaker is closed,
// 503 once any remote is open-circuited (queries may still answer via
// degraded plans, but capacity is reduced). When the server runs with a
// data directory, the response additionally carries the boot recovery
// summary and the live snapshot/WAL position (durability degradation never
// flips the status code — availability is the breakers' verdict).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	status := http.StatusOK
	if h.OpenCount > 0 {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, healthResponse{Health: h, Durability: s.durabilityStatus()})
}

// maxStreamLine bounds one statement line on /query/stream; the stream
// itself is unbounded — that is the point.
const maxStreamLine = maxBodyBytes

// handleQueryStream serves POST /query/stream: a persistent, pipelined
// high-QPS protocol over one HTTP request. The client sends statements as
// newline-delimited JSON — each line a bare JSON string, a {"sql": ...}
// object, or raw SQL text — and the server answers every statement in
// order with a length-prefixed JSON frame:
//
//	<decimal byte count>\n
//	<exactly that many bytes: a /query response or error frame>
//
// The length prefix lets clients split frames without parsing JSON; the
// frame bodies are byte-identical to /query responses (same encoder), so a
// streaming client and a one-shot client see the same shapes. Errors are
// isolated per slot exactly as in /query/batch: a statement that fails to
// parse, plan, or execute answers {"error": ..., "sql": ...} and the
// stream continues. Each statement runs under its own deadline; the
// connection as a whole holds one admission slot (see admitStream) and ends
// once it has sat idle for the request timeout.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST statements as NDJSON"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// HTTP/1.x servers drain the unread request body before the first
	// response flush; a pipelined client that waits for frame N before
	// sending statement N+1 would deadlock against that drain. Full-duplex
	// mode disables it so requests and responses interleave freely.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && err != http.ErrNotSupported {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("stream unsupported: %v", err))
		return
	}
	br := bufio.NewReaderSize(r.Body, 64*1024)
	buf := getBuf()
	defer putBuf(buf)
	var prefix [20]byte
	unflushed := false
	// Neither of http.Server's deadlines fits a stream: WriteTimeout is
	// absolute from the request header, so it cuts a healthy stream off at a
	// fixed age, and nothing at all bounds a read, so an idle stream keeps
	// its admission slot for ever. The stream moves both itself wherever it
	// is about to wait for the client (once per burst, below). A
	// ResponseWriter with no deadlines to set (an in-process recorder) is a
	// stream without them, hence the dropped errors. The write deadline comes
	// off again at the end: a server without WriteTimeout never re-arms it,
	// and the connection may go on to carry another request.
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	for {
		// Frames leave in one write per burst: while the client's next
		// statement is already buffered, answering it comes before flushing;
		// as soon as reading would wait for the client, everything answered
		// so far is written out first, so a lock-step client never waits on
		// a frame that is sitting in the response buffer. EOF and the error
		// returns below end the handler, which flushes what is left.
		if !lineBuffered(br) {
			// The client has the request timeout to send its next line, and
			// the answers to what it then sends have as long again to be
			// written: this flush, and whatever the next burst pushes out of
			// a full response buffer before its own.
			now := time.Now()
			_ = rc.SetWriteDeadline(now.Add(2 * s.timeout))
			if unflushed {
				if err := rc.Flush(); err != nil && err != http.ErrNotSupported {
					s.encodeErrors.Inc()
					return
				}
				unflushed = false
			}
			_ = rc.SetReadDeadline(now.Add(s.timeout))
		}
		line, oversized, rerr := readStreamLine(br, maxStreamLine)
		if rerr != nil {
			// EOF is the client's orderly end and an expired read deadline the
			// server's: the stream sat idle past the bound, so it ends and
			// gives its slot back. Anything else is a mid-stream read
			// failure: frames already sent stand; nothing more can be promised
			// on a broken pipe, so just log the cause.
			if rerr != io.EOF && !errors.Is(rerr, os.ErrDeadlineExceeded) {
				s.encodeErrors.Inc()
				log.Printf("server: query stream read: %v", rerr)
			}
			return
		}
		if !oversized {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
		}
		s.streamStatements.Inc()
		buf.Reset()
		enc := jw{b: buf}
		if oversized {
			// The over-limit line was consumed to its newline, so the slot
			// answers a well-formed error frame and the stream stays aligned
			// for the next statement (a Scanner would have died silently on
			// ErrTooLong here, ending the stream mid-pipeline).
			s.streamOversized.Inc()
			encodeStatementError(&enc, "", fmt.Sprintf("statement line exceeds %d bytes", maxStreamLine))
		} else if sql, perr := streamStatement(line); perr != nil {
			encodeStatementError(&enc, string(line), perr.Error())
		} else {
			ctx := s.withDeadline(r.Context())
			s.answer(ctx, &enc, sql) // a failed statement is its slot's error frame
			ctx.release()
		}
		buf.WriteByte('\n')
		hdr := strconv.AppendInt(prefix[:0], int64(buf.Len()), 10)
		hdr = append(hdr, '\n')
		if _, err := w.Write(hdr); err != nil {
			s.encodeErrors.Inc()
			return
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			s.encodeErrors.Inc()
			return
		}
		unflushed = true
		if r.Context().Err() != nil {
			return
		}
	}
}

// lineBuffered reports whether br already holds a complete (newline-
// terminated) line, i.e. whether the next readStreamLine returns without
// waiting for the client.
func lineBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n == 0 {
		return false
	}
	b, _ := br.Peek(n)
	return bytes.IndexByte(b, '\n') >= 0
}

// readStreamLine returns the next newline-terminated statement line from br
// (newline included; an unterminated final line is returned at EOF). A line
// longer than max is consumed to its newline and reported oversized instead
// of returned, keeping the stream aligned on statement boundaries. The
// common case — the line fits the reader's buffer — returns the reader's
// internal slice without copying; callers must finish with it before the
// next read. err is io.EOF once the body is exhausted.
func readStreamLine(br *bufio.Reader, max int) (line []byte, oversized bool, err error) {
	var acc []byte
	first := true
	for {
		chunk, rerr := br.ReadSlice('\n')
		if first && rerr == nil && len(chunk) <= max {
			return chunk, false, nil
		}
		first = false
		acc = append(acc, chunk...)
		if rerr == bufio.ErrBufferFull {
			if len(acc) > max {
				if derr := discardLine(br); derr != nil && derr != io.EOF {
					return nil, true, derr
				}
				return nil, true, nil
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return nil, false, rerr
		}
		if len(acc) == 0 && rerr == io.EOF {
			return nil, false, io.EOF
		}
		if len(acc) > max {
			return nil, true, nil
		}
		return acc, false, nil
	}
}

// discardLine consumes the remainder of the current line. A nil return
// means the newline was found; io.EOF means the body ended first.
func discardLine(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue
		}
		return err
	}
}

// streamStatement extracts the SQL from one stream line: a JSON string, a
// {"sql": ...} object, or (anything else) raw SQL text. readBatch decodes its
// array elements through the first two cases.
func streamStatement(line []byte) (string, error) {
	switch line[0] {
	case '"':
		if sql, ok := plainJSONString(line); ok && sql != "" {
			return sql, nil
		}
		var sql string
		if err := json.Unmarshal(line, &sql); err != nil {
			return "", fmt.Errorf("bad statement line: %v", err)
		}
		if sql == "" {
			return "", fmt.Errorf("empty sql")
		}
		return sql, nil
	case '{':
		if sql, ok := plainSQLObject(line); ok {
			return sql, nil
		}
		var req statementRequest
		if err := json.Unmarshal(line, &req); err != nil {
			return "", fmt.Errorf("bad statement line: %v", err)
		}
		if req.SQL == "" {
			return "", fmt.Errorf("empty sql field")
		}
		return req.SQL, nil
	default:
		return string(line), nil
	}
}

// plainJSONString decodes line when it is a JSON string that needs no
// decoding and nothing else: cutPlainString's form, ending where line ends.
func plainJSONString(line []byte) (string, bool) {
	s, rest, ok := cutPlainString(line)
	return s, ok && len(rest) == 0
}

// cutPlainString decodes the JSON string b starts with when it needs no
// decoding — printable ASCII between two quotes, no escapes — which is what
// a client sending SQL almost always writes, and returns what follows its
// closing quote. Anything else (escapes, control characters, non-ASCII text
// that json.Unmarshal would have to validate) is left to encoding/json.
func cutPlainString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return string(b[1:i]), b[i+1:], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", b, false
		}
	}
	return "", b, false
}

// plainSQLObject decodes b when it is the statement object as clients write
// it and nothing else: cutSQLObject's form with nothing but whitespace after
// the closing brace.
func plainSQLObject(b []byte) (string, bool) {
	sql, rest, ok := cutSQLObject(b)
	if !ok || len(bytes.TrimLeft(rest, jsonSpace)) != 0 {
		return "", false
	}
	return sql, true
}

// cutSQLObject decodes the statement object b starts with and returns what
// follows its closing brace: {"sql":"<statement>"} with a value
// plainJSONString accepts and that is not empty, the exact key, JSON
// whitespace allowed around every token. Any other spelling encoding/json
// takes — another key case, a second key, an escape — is left to
// encoding/json, which then also decides what is an error.
func cutSQLObject(b []byte) (sql string, rest []byte, ok bool) {
	for _, tok := range [...]string{"{", `"sql"`, ":"} {
		if b, ok = cutJSONToken(b, tok); !ok {
			return "", b, false
		}
	}
	if sql, b, ok = cutPlainString(bytes.TrimLeft(b, jsonSpace)); !ok || sql == "" {
		return "", b, false
	}
	rest, ok = cutJSONToken(b, "}")
	return sql, rest, ok
}

// jsonSpace is what JSON calls whitespace (bytes.TrimSpace takes more).
const jsonSpace = " \t\n\r"

// cutJSONToken skips JSON whitespace, then tok.
func cutJSONToken(b []byte, tok string) ([]byte, bool) {
	b = bytes.TrimLeft(b, jsonSpace)
	if len(b) < len(tok) || string(b[:len(tok)]) != tok {
		return b, false
	}
	return b[len(tok):], true
}
