package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"intellisphere/bench/mix"
	"intellisphere/internal/admission"
	"intellisphere/internal/core"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/nn"
	"intellisphere/internal/obs"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/registry"
	"intellisphere/internal/rowengine"
	"intellisphere/internal/server"
	"intellisphere/internal/sqlparse"
)

// The per-layer run measures the program from outside only. Counts are
// deltas of the live server's /metrics/prom around an ordinary socket run.
// Times come from replaying the first ladderStmts statements of the same
// stream in-process, single goroutine, up a ladder of public entry points —
// sqlparse.Parse → Engine.Explain → Engine.QueryContext → the HTTP handler →
// the socket figure of the socket run — each rung on its own freshly built,
// identically seeded federation so every rung sees the same cache behaviour.
// A rung's self time is its mean minus the mean of the rung below. Leaf
// layers (optimizer, estimators, NN, QueryGrid, simulators, row engine,
// admission) are timed by direct calls on inputs taken from the planned
// statements. The harness records one span per call.
const (
	ladderStmts = 20000
	// leafCalls bounds the direct-call loops; leaf means settle well before.
	leafCalls = 4000
	// allocCalls is the length of the separate passes that count heap
	// allocations (requests are pre-built so only the callee's show).
	allocCalls = 2000
)

// scrapeProm reads the server's /metrics/prom and returns every sample by
// its name (including the label set, for labelled series).
func scrapeProm(addr string) (map[string]float64, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do("/metrics/prom", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics/prom answered %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// rung is one traced loop: a span per call, all with the same name and the
// same parent (the layer that makes this call in the running program).
type rung struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	PerSpan int    `json:"statements_per_span"`
	// StartNS[i] and DurNS[i] are span i's start (since the trace began) and
	// duration; span i covers statements [i*PerSpan, (i+1)*PerSpan) of the
	// replayed stream for ladder rungs, and call i's input for leaf rungs.
	StartNS []int64 `json:"start_ns"`
	DurNS   []int64 `json:"dur_ns"`
}

// meanUS is the rung's mean time per statement (or per input), µs.
func (r *rung) meanUS() float64 {
	var sum int64
	for _, d := range r.DurNS {
		sum += d
	}
	return float64(sum) / 1e3 / float64(len(r.DurNS)*r.PerSpan)
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Statements int     `json:"statements"`
	Rungs      []*rung `json:"rungs"`
	epoch      time.Time
}

// loop runs call(i) for i in [0, n) with a span around each call. before, if
// set, runs ahead of call i outside the span.
func (t *tracer) loop(name, parent string, per, n int, before func(i int), call func(i int)) *rung {
	r := &rung{Name: name, Parent: parent, PerSpan: per, StartNS: make([]int64, n), DurNS: make([]int64, n)}
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		start := time.Now()
		call(i)
		r.StartNS[i], r.DurNS[i] = int64(start.Sub(t.epoch)), int64(time.Since(start))
	}
	t.Rungs = append(t.Rungs, r)
	return r
}

// allocsPer returns the heap allocations per call of n calls.
func allocsPer(n int, call func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func freshFederation() (*demo.Federation, error) {
	return demo.BuildFederation(demo.Config{Seed: 1, LogicalRemote: true})
}

// handlerFor assembles the serving stack the way cmd/serve does with its
// default flags; observed=false leaves the observability pipeline off, as
// -obs-step 0 would. stop must be called when done.
func handlerFor(fed *demo.Federation, observed bool) (h http.Handler, stop func(), err error) {
	srv := server.New(fed.Engine).WithFaults(fed.Injectors).WithAdmission(admission.Config{})
	stop = func() {}
	if observed {
		o, err := obs.New(obs.Config{
			Events:     obs.RecorderConfig{SampleRate: 1, SlowThreshold: 500 * time.Millisecond},
			Step:       5 * time.Second,
			Objectives: obs.DefaultObjectives(0.999, 250*time.Millisecond, 0, time.Minute, 5*time.Minute, 14),
		})
		if err != nil {
			return nil, nil, err
		}
		srv = srv.WithObservability(o)
		o.Start(srv.ObsSource())
		stop = o.Stop
	}
	return srv.Handler(30 * time.Second), stop, nil
}

// sink is a reusable http.ResponseWriter that discards the response.
type sink struct{ header http.Header }

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(int)             {}
func (s *sink) Write(p []byte) (int, error) { return len(p), nil }
func (s *sink) Flush()                      {}
func (s *sink) EnableFullDuplex() error     { return nil } // /query/stream insists on it

func post(path string, body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	return req
}

// adminMutator returns the untimed hook that replays admin_churn's
// mutations against eng every adminEvery statements, the socket run's
// schedule (nil for other workloads).
func adminMutator(w workload, eng *engine.Engine) func(i int) {
	if !w.admin {
		return nil
	}
	k := 0
	return func(i int) {
		if i%adminEvery != 0 {
			return
		}
		if system, link, table := adminMutation(k); table == nil {
			eng.SetLink(system, link)
		} else {
			eng.RegisterTable(table)
		}
		k++
	}
}

// ladder replays the stream up the entry points and times the leaf layers.
// It returns the time and allocation metrics it can derive on its own.
func ladder(t *tracer, w workload, seed int64, n int) (map[string]float64, error) {
	w.mix.Seed = seed
	gen := mix.New(w.mix)
	stmts := make([]string, n)
	for i := range stmts {
		stmts[i] = gen.Next()
	}
	t.Statements = len(stmts)
	ctx := context.Background()
	L := map[string]float64{}

	// Rung 1: the parser alone.
	L["sqlparse.parse_us"] = t.loop("sqlparse.parse", "engine.explain", 1, len(stmts), nil, func(i int) {
		sqlparse.Parse(stmts[i])
	}).meanUS()
	L["sqlparse.allocs_per_stmt"] = allocsPer(min(allocCalls, n), func(i int) { sqlparse.Parse(stmts[i]) })

	// Rung 2: parse + plan (statement cache, plan cache, estimators).
	fed, err := freshFederation()
	if err != nil {
		return nil, err
	}
	L["engine.explain_us"] = t.loop("engine.explain", "engine.query", 1, len(stmts), adminMutator(w, fed.Engine), func(i int) {
		fed.Engine.Explain(stmts[i])
	}).meanUS()

	// Rung 3: parse + plan + execute. Explain renders the plan and
	// QueryContext does not, but every /query answer carries the rendering,
	// so the span includes it: rung 2's work is then a subset of rung 3's.
	query := func(eng *engine.Engine) func(i int) {
		return func(i int) {
			if res, err := eng.QueryContext(ctx, stmts[i]); err == nil {
				res.Plan.Explain()
			}
		}
	}
	if fed, err = freshFederation(); err != nil {
		return nil, err
	}
	L["engine.query_us"] = t.loop("engine.query", "server.handler", 1, len(stmts), adminMutator(w, fed.Engine), query(fed.Engine)).meanUS()
	L["engine.execute_self_us"] = L["engine.query_us"] - L["engine.explain_us"]
	if fed, err = freshFederation(); err != nil {
		return nil, err
	}
	L["engine.allocs_per_query"] = allocsPer(min(allocCalls, n), query(fed.Engine))

	// Rung 4: the HTTP handler, observability on (as served) and off.
	bodies := make([][]byte, len(stmts))
	for i, s := range stmts {
		bodies[i] = appendQueryBody(nil, s)
	}
	out := &sink{header: http.Header{}}
	reqs := make([]*http.Request, len(stmts)) // rebuilt per rung: a body reads once
	handlerRung := func(name string, observed, spans bool) (float64, error) {
		fed, err := freshFederation()
		if err != nil {
			return 0, err
		}
		h, stop, err := handlerFor(fed, observed)
		if err != nil {
			return 0, err
		}
		defer stop()
		for i := range reqs {
			reqs[i] = post("/query", bodies[i])
		}
		mutate := adminMutator(w, fed.Engine)
		serve := func(i int) {
			h.ServeHTTP(out, reqs[i])
		}
		if spans {
			return t.loop(name, "socket", 1, len(stmts), mutate, serve).meanUS(), nil
		}
		// The same loop without a span per call: what tracing itself costs.
		var busy time.Duration
		for i := 0; i < len(stmts); i += adminEvery {
			if mutate != nil {
				mutate(i)
			}
			start := time.Now()
			for j := i; j < min(i+adminEvery, len(stmts)); j++ {
				serve(j)
			}
			busy += time.Since(start)
		}
		return float64(busy) / 1e3 / float64(len(stmts)), nil
	}
	if L["server.handler_us"], err = handlerRung("server.handler", true, true); err != nil {
		return nil, err
	}
	bare, err := handlerRung("server.handler_unobserved", false, true)
	if err != nil {
		return nil, err
	}
	untraced, err := handlerRung("", true, false)
	if err != nil {
		return nil, err
	}
	L["server.self_us"] = L["server.handler_us"] - L["engine.query_us"]
	L["obs.overhead_us"] = L["server.handler_us"] - bare
	L["harness.trace_overhead_frac"] = (L["server.handler_us"] - untraced) / untraced

	if fed, err = freshFederation(); err != nil {
		return nil, err
	}
	h, stop, err := handlerFor(fed, true)
	if err != nil {
		return nil, err
	}
	allocReqs := reqs[:min(allocCalls, len(reqs))]
	for i := range allocReqs {
		allocReqs[i] = post("/query", bodies[i])
	}
	L["server.allocs_per_req"] = allocsPer(len(allocReqs), func(i int) {
		h.ServeHTTP(out, reqs[i])
	})
	stop()

	// The batch and stream counterparts of rung 4.
	if fed, err = freshFederation(); err != nil {
		return nil, err
	}
	if h, stop, err = handlerFor(fed, true); err != nil {
		return nil, err
	}
	mutate := adminMutator(w, fed.Engine)
	L["server.batch_us_per_stmt"] = t.loop("server.batch", "socket", batchSize, len(stmts)/batchSize, func(i int) {
		for j := i * batchSize; mutate != nil && j < (i+1)*batchSize; j++ {
			mutate(j)
		}
	}, func(i int) {
		body, _ := json.Marshal(stmts[i*batchSize : (i+1)*batchSize])
		h.ServeHTTP(out, post("/query/batch", body))
	}).meanUS()
	stop()

	if fed, err = freshFederation(); err != nil {
		return nil, err
	}
	if h, stop, err = handlerFor(fed, true); err != nil {
		return nil, err
	}
	var lines bytes.Buffer
	for _, s := range stmts {
		lines.Write(strconv.AppendQuote(nil, s))
		lines.WriteByte('\n')
	}
	L["server.stream_us_per_stmt"] = t.loop("server.stream", "socket", len(stmts), 1, nil, func(int) {
		h.ServeHTTP(out, post("/query/stream", lines.Bytes()))
	}).meanUS()
	stop()

	if err := leaves(t, stmts, L); err != nil {
		return nil, err
	}
	return L, nil
}

// leaves times the leaf layers by direct calls on inputs taken from the
// stream's planned statements.
func leaves(t *tracer, stmts []string, L map[string]float64) error {
	ctx := context.Background()
	fed, err := freshFederation()
	if err != nil {
		return err
	}
	eng := fed.Engine
	n := leafCalls
	if n > len(stmts) {
		n = len(stmts)
	}
	parsed := make([]*sqlparse.SelectStmt, n)
	for i := range parsed {
		if parsed[i], err = sqlparse.Parse(stmts[i]); err != nil {
			return err
		}
	}

	// optimizer: the engine's planner rebuilt over its public catalog, grid
	// and estimators, with a cache of our own choosing.
	ests := registry.New[core.Estimator]()
	for _, name := range eng.Systems() {
		est, err := eng.Estimator(name)
		if err != nil {
			return err
		}
		ests.Set(name, est)
	}
	opt := &optimizer.Optimizer{Catalog: eng.Catalog(), Grid: eng.Grid(), Estimators: ests}
	plans := make([]*optimizer.Plan, n)
	L["optimizer.plan_miss_us"] = t.loop("optimizer.plan_miss", "engine.explain", 1, n, nil, func(i int) {
		plans[i], _ = opt.PlanCtx(ctx, parsed[i])
	}).meanUS()
	L["optimizer.allocs_per_miss"] = allocsPer(min(n, allocCalls), func(i int) { opt.PlanCtx(ctx, parsed[i]) })
	L["optimizer.plan_batch_us_per_stmt"] = t.loop("optimizer.plan_batch", "engine.explain", batchSize, n/batchSize, nil, func(i int) {
		opt.PlanBatchCtx(ctx, parsed[i*batchSize:(i+1)*batchSize])
	}).meanUS()
	opt.Cache = optimizer.NewPlanCache(2 * n)
	for _, s := range parsed {
		opt.PlanCtx(ctx, s)
	}
	L["optimizer.plan_hit_us"] = t.loop("optimizer.plan_hit", "engine.explain", 1, n, nil, func(i int) {
		opt.PlanCtx(ctx, parsed[i])
	}).meanUS()

	// core: the sub-op formulas (hive's profile) and the logical-op NN
	// models (flink's) on the operator specs of those plans.
	var scans []plan.ScanSpec
	var aggs []plan.AggSpec
	var joins []plan.JoinSpec
	for _, p := range plans {
		if p == nil {
			return fmt.Errorf("a generated statement failed to plan")
		}
		for _, s := range p.Steps {
			switch {
			case s.Scan != nil:
				scans = append(scans, *s.Scan)
			case s.Agg != nil:
				aggs = append(aggs, *s.Agg)
			case s.Join != nil:
				joins = append(joins, *s.Join)
			}
		}
	}
	if len(scans) == 0 || len(aggs) == 0 || len(joins) == 0 {
		return fmt.Errorf("the stream planned no scan, aggregation or join step")
	}
	estimate := func(est core.Estimator) func(i int) {
		return func(i int) {
			switch i % 3 {
			case 0:
				est.EstimateScan(scans[i/3%len(scans)])
			case 1:
				est.EstimateAgg(aggs[i/3%len(aggs)])
			default:
				est.EstimateJoin(joins[i/3%len(joins)])
			}
		}
	}
	subop, _ := eng.Estimator("hive")
	logical, _ := eng.Estimator("flink")
	L["core.subop_estimate_us"] = t.loop("core.subop_estimate", "optimizer.plan_miss", 1, n, nil, estimate(subop)).meanUS()
	L["core.logicalop_estimate_us"] = t.loop("core.logicalop_estimate", "optimizer.plan_miss", 1, n, nil, estimate(logical)).meanUS()
	scanVec := make([]plan.ScanSpec, batchSize)
	aggVec := make([]plan.AggSpec, batchSize)
	joinVec := make([]plan.JoinSpec, batchSize)
	L["core.logicalop_batch_us_per_vec"] = t.loop("core.logicalop_batch", "optimizer.plan_batch", batchSize, n/batchSize, func(i int) {
		for j := 0; j < batchSize; j++ {
			scanVec[j] = scans[(i*batchSize+j)%len(scans)]
			aggVec[j] = aggs[(i*batchSize+j)%len(aggs)]
			joinVec[j] = joins[(i*batchSize+j)%len(joins)]
		}
	}, func(i int) {
		switch i % 3 {
		case 0:
			core.EstimateScans(logical, scanVec)
		case 1:
			core.EstimateAggs(logical, aggVec)
		default:
			core.EstimateJoins(logical, joinVec)
		}
	}).meanUS()

	// nn: a network of the join model's topology on fixed inputs.
	net, err := nn.New(logicalop.DefaultConfig(7, 1).NN.Network)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 7)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	L["nn.forward_us"] = t.loop("nn.forward", "core.logicalop_estimate", 1, n, nil, func(i int) {
		net.Forward(rows[i%len(rows)])
	}).meanUS()
	dst := make([]float64, len(rows))
	L["nn.forward_batch_us_per_row"] = t.loop("nn.forward_batch", "core.logicalop_batch", len(rows), n/len(rows), nil, func(int) {
		net.ForwardBatch(rows, dst)
	}).meanUS()

	L["querygrid.transfer_cost_us"] = t.loop("querygrid.transfer_cost", "optimizer.plan_miss", 1, n, nil, func(i int) {
		eng.Grid().TransferCost("hive", querygrid.Master, scans[i%len(scans)].InputRows, 100)
	}).meanUS()

	// remote: the hive simulator on never-seen specs (its memo misses) and
	// on a small recurring set (its memo hits).
	hive, err := eng.Remote("hive")
	if err != nil {
		return err
	}
	L["remote.exec_miss_us"] = t.loop("remote.exec_miss", "engine.query", 1, n, nil, func(i int) {
		s := scans[i%len(scans)]
		s.InputRows += float64(i + 1)
		hive.ExecuteScan(s)
	}).meanUS()
	for i := 0; i < 64; i++ {
		hive.ExecuteScan(scans[i%len(scans)])
	}
	L["remote.exec_us"] = t.loop("remote.exec", "engine.query", 1, n, nil, func(i int) {
		hive.ExecuteScan(scans[i%64%len(scans)])
	}).meanUS()

	// rowengine: the materialized-table statements of the generator's local
	// pool, executed on rows materialized the way the engine does.
	table, err := rowengine.Materialize("t10000_100", 10000)
	if err != nil {
		return err
	}
	tables := map[string]*rowengine.Table{"t10000_100": table}
	localGen := mix.New(mix.Config{Seed: 1, Shapes: 1, Local: 1})
	local := make([]*sqlparse.SelectStmt, 32)
	for i := range local {
		if local[i], err = sqlparse.Parse(localGen.Next()); err != nil {
			return err
		}
	}
	L["rowengine.exec_us"] = t.loop("rowengine.exec", "engine.query", 1, 4*len(local), nil, func(i int) {
		rowengine.Execute(local[i%len(local)], tables)
	}).meanUS()

	ctl := admission.NewController(admission.Config{})
	L["admission.acquire_us"] = t.loop("admission.acquire", "server.handler", 1, n, nil, func(int) {
		if release, err := ctl.Acquire(ctx, ""); err == nil {
			release()
		}
	}).meanUS()
	return nil
}

// traceRun is the per-layer run of one workload.
func (e *env) traceRun(w workload, seed int64, seconds float64) (*outcome, map[string]float64, error) {
	twin, _, err := startTwin(w.twin)
	if err != nil {
		return nil, nil, err
	}
	calibBefore := calibrate()
	out, err := e.socketRun(w, twin, seed, seconds, true)
	twin.stop()
	if err != nil {
		return nil, nil, err
	}
	calibAfter := calibrate()

	t := &tracer{Workload: w.name, Seed: seed, epoch: time.Now()}
	L, err := ladder(t, w, seed, e.ladder)
	if err != nil {
		return nil, nil, err
	}

	c := out.counts
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	stmts := c["intellisphere_queries_total"]
	// Statement-cache hits skip the parse histogram, so parses counted there
	// are exactly the misses.
	L["engine.stmtcache_hit_ratio"] = 1 - ratio(c["intellisphere_parse_seconds_count"], stmts)
	L["engine.feedback_dropped"] = c["intellisphere_feedback_dropped_total"]
	hits, misses := c["intellisphere_plan_cache_hits_total"], c["intellisphere_plan_cache_misses_total"]
	L["optimizer.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["optimizer.cache_evicted"] = c["intellisphere_plan_cache_evicted_total"]
	L["optimizer.cache_stale"] = c["intellisphere_plan_cache_stale_total"]
	L["admission.offered"] = c["intellisphere_admission_offered_total"]
	L["admission.shed"] = c["intellisphere_admission_shed_queue_full_total"] +
		c["intellisphere_admission_shed_deadline_total"] + c["intellisphere_admission_rate_limited_total"]
	L["server.resp_bytes_per_stmt"] = out.respBytesPerStmt
	L["runtime.gc_count"] = c["intellisphere_gc_cycles_total"]
	L["runtime.gc_pause_ms"] = 1e3 * c["intellisphere_gc_pause_seconds_total"]
	L["runtime.heap_mb"] = out.heapMB

	// The socket figure tops the ladder: wall time per statement of the
	// socket run, against the handler rung of the workload's own transport.
	handler := map[transport]string{viaQuery: "server.handler_us", viaBatch: "server.batch_us_per_stmt", viaStream: "server.stream_us_per_stmt"}[w.via]
	// Both sides of the subtraction are as the clock saw them: the ladder runs
	// without the twin, so nothing here is scaled to the reference host.
	L["transport.self_us"] = 1e6/median(out.timings.rawQPS) - L[handler]
	// The tail of the socket run's round trips, scaled like the end-to-end
	// timings. It is reported here, without a bound, because its run-to-run
	// spread (up to 22 % over ten runs even after scaling) is too wide for one.
	L["transport.latency_p99_us"] = out.metrics["latency_p99_us"]

	for _, name := range []string{"durable.ack_p50_us", "durable.ack_p99_us", "durable.wal_bytes_per_mutation", "durable.recover_ms"} {
		L[name] = 0
	}
	if w.admin {
		acks := append([]float64(nil), out.admin.ackUS...)
		sort.Float64s(acks)
		L["durable.ack_p50_us"] = percentile(acks, 0.50)
		L["durable.ack_p99_us"] = percentile(acks, 0.99)
		L["durable.wal_bytes_per_mutation"] = ratio(c["intellisphere_wal_bytes"], c["intellisphere_wal_appends_total"])
		fed, err := freshFederation()
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		dur, _, err := engine.OpenDurability(fed.Engine, engine.DurabilityConfig{Dir: out.dataDir})
		if err != nil {
			return nil, nil, fmt.Errorf("recover %s: %w", out.dataDir, err)
		}
		L["durable.recover_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
		dur.Close()
	}

	out.noteCalibration(calibBefore, calibAfter)
	L["harness.calib_us"] = out.calibUS
	L["harness.round_cv"] = cv(out.timings.qps)
	L["harness.host_speed"] = median(out.timings.hostSpeed)

	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(t)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "trace_"+w.name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans over %d statements written to bench/out/trace_%s.json", spanCount(t), t.Statements, w.name))
	return out, L, nil
}

func spanCount(t *tracer) int {
	n := 0
	for _, r := range t.Rungs {
		n += len(r.DurNS)
	}
	return n
}
