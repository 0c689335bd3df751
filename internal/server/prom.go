package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"intellisphere/internal/engine"
	"intellisphere/internal/metrics"
	"intellisphere/internal/obs"
	"intellisphere/internal/resilience"
)

// handlePromMetrics serves every serving counter in the Prometheus text
// exposition format (version 0.0.4), hand-rendered — the format is a few
// lines of framing, not worth a client library: per-stage latency
// histograms with cumulative le buckets, plan-cache and resilience
// counters, per-breaker state gauges, and the per-(system, operator)
// estimator-accuracy windows as labeled gauges.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	var b strings.Builder

	gauge(&b, "intellisphere_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	writeRuntime(&b)
	counter(&b, "intellisphere_queries_total", "Queries accepted (scalar and batch statements).", float64(st.Queries))
	counter(&b, "intellisphere_query_errors_total", "Queries that failed to parse, plan, or execute.", float64(st.QueryErrors))
	counter(&b, "intellisphere_traces_total", "Traced queries recorded into the trace ring.", float64(st.Traces))

	counter(&b, "intellisphere_tune_promotions_total", "Tuned candidates promoted to serving.", float64(st.Tuning.Promotions))
	counter(&b, "intellisphere_tune_rollbacks_total", "Model versions restored by rollback.", float64(st.Tuning.Rollbacks))

	counter(&b, "intellisphere_plan_cache_hits_total", "Plan-cache hits.", float64(st.PlanCache.Hits))
	counter(&b, "intellisphere_plan_cache_misses_total", "Plan-cache misses.", float64(st.PlanCache.Misses))
	counter(&b, "intellisphere_plan_cache_stale_total", "Plan-cache entries invalidated by a generation bump.", float64(st.PlanCache.Stale))
	counter(&b, "intellisphere_plan_cache_evicted_total", "Plan-cache CLOCK evictions.", float64(st.PlanCache.Evicted))
	gauge(&b, "intellisphere_plan_cache_size", "Plans currently cached.", float64(st.PlanCache.Size))

	adm := s.adm.Stats()
	counter(&b, "intellisphere_admission_offered_total", "Requests that reached the hot-endpoint admission gate.", float64(adm.Offered))
	counter(&b, "intellisphere_admission_admitted_total", "Requests granted an execution slot.", float64(adm.Admitted))
	counter(&b, "intellisphere_admission_shed_queue_full_total", "Requests refused because the admission queue was full.", float64(adm.ShedQueueFull))
	counter(&b, "intellisphere_admission_shed_deadline_total", "Requests shed because the estimated queue wait exceeded their deadline.", float64(adm.ShedDeadline))
	counter(&b, "intellisphere_admission_rate_limited_total", "Requests refused by a per-client rate limit.", float64(adm.RateLimited))
	counter(&b, "intellisphere_admission_canceled_total", "Requests whose client gave up while queued.", float64(adm.Canceled))
	gauge(&b, "intellisphere_admission_in_flight", "Requests currently holding an execution slot.", float64(adm.InFlight))
	gauge(&b, "intellisphere_admission_queued", "Requests currently waiting for a slot.", float64(adm.Queued))
	counter(&b, "intellisphere_response_encode_errors_total", "Response encode/write failures.", float64(s.encodeErrors.Value()))
	counter(&b, "intellisphere_stream_statements_total", "Statements answered over /query/stream.", float64(s.streamStatements.Value()))
	counter(&b, "intellisphere_stream_oversized_total", "Stream statement lines rejected for exceeding the per-line byte cap.", float64(s.streamOversized.Value()))

	if s.dur != nil {
		ds, snapErrs := s.dur.Stats()
		rec := s.dur.Recovery()
		gauge(&b, "intellisphere_wal_bytes", "Bytes in the current write-ahead log segment.", float64(ds.WALBytes))
		gauge(&b, "intellisphere_durable_seq", "Last acknowledged mutation sequence number.", float64(ds.Seq))
		counter(&b, "intellisphere_wal_appends_total", "Mutation records appended to the write-ahead log since boot.", float64(ds.Appends))
		counter(&b, "intellisphere_snapshots_total", "Engine snapshots written since boot.", float64(ds.Snapshots))
		counter(&b, "intellisphere_snapshot_errors_total", "Background snapshot attempts that failed.", float64(snapErrs))
		if !ds.LastSnapshot.IsZero() {
			gauge(&b, "intellisphere_snapshot_age_seconds", "Seconds since the newest snapshot was written.", time.Since(ds.LastSnapshot).Seconds())
		}
		gauge(&b, "intellisphere_recovery_records_replayed", "WAL records replayed during boot recovery.", float64(rec.Replayed))
		gauge(&b, "intellisphere_recovery_duration_seconds", "Wall time boot recovery took.", rec.DurationSec)
	}

	counter(&b, "intellisphere_retries_total", "Remote plan-step calls repeated after a transient failure.", float64(st.Resilience.Retries))
	counter(&b, "intellisphere_fallbacks_total", "Degraded re-plans (one per excluded system).", float64(st.Resilience.Fallbacks))
	counter(&b, "intellisphere_degraded_queries_total", "Queries answered by a fallback plan.", float64(st.Resilience.DegradedQueries))

	histogram(&b, "intellisphere_parse_seconds", "Statement parse latency.", st.Parse)
	histogram(&b, "intellisphere_plan_seconds", "Plan construction latency (cache hits included).", st.Plan)
	histogram(&b, "intellisphere_execute_seconds", "Plan execution wall time.", st.Execute)

	if s.obs != nil {
		rs := s.obs.Rec.Stats()
		counter(&b, "intellisphere_events_captured_total", "Queries captured as wide events.", float64(s.obs.Rec.Ring().Count()))
		counter(&b, "intellisphere_events_errors_total", "Wide events captured by the always-on error rule.", float64(rs.Errors))
		counter(&b, "intellisphere_events_slow_total", "Wide events captured by the slow-query rule.", float64(rs.Slow))
		if s.obs.Sink != nil {
			ss := s.obs.Sink.Stats()
			counter(&b, "intellisphere_event_log_lost_total", "Events overwritten in the ring before the log drainer reached them.", float64(ss.Lost))
			counter(&b, "intellisphere_event_log_write_errors_total", "Event-log write failures.", float64(ss.WriteErrs))
			counter(&b, "intellisphere_event_log_rotations_total", "Event-log size rotations.", float64(ss.Rotations))
		}
		histogram(&b, "intellisphere_query_seconds", "Engine time per query: parse + plan + execute (admission wait, body read, response encode and write are not in it).", s.obs.Rec.LatencySnapshot())
		if s.obs.SLO != nil {
			writeSLO(&b, s.obs.SLO.Snapshot())
		}
	}

	writeBreakers(&b, st.Resilience.Breakers)
	writeAccuracy(&b, st.Accuracy)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// writeRuntime renders process/runtime health: goroutine and heap pressure,
// cumulative GC pause time, scheduler width, and the build-info marker every
// fleet dashboard joins on.
func writeRuntime(b *strings.Builder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge(b, "intellisphere_goroutines", "Goroutines currently live.", float64(runtime.NumGoroutine()))
	gauge(b, "intellisphere_heap_inuse_bytes", "Bytes in in-use heap spans.", float64(ms.HeapInuse))
	counter(b, "intellisphere_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
	counter(b, "intellisphere_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	gauge(b, "intellisphere_gomaxprocs", "Scheduler width (GOMAXPROCS).", float64(runtime.GOMAXPROCS(0)))
	header(b, "intellisphere_build_info", "Build information; the value is always 1.", "gauge")
	fmt.Fprintf(b, "intellisphere_build_info{go_version=\"%s\"} 1\n", escapeLabel(runtime.Version()))
}

// writeSLO renders every objective's alert state as a labeled gauge; the
// burn rates and lifetime transition counts behind it are served on /slo.
func writeSLO(b *strings.Builder, alerts []obs.Alert) {
	if len(alerts) == 0 {
		return
	}
	header(b, "intellisphere_slo_state", "Objective alert state (0=inactive, 1=pending, 2=firing, 3=resolved).", "gauge")
	for _, a := range alerts {
		fmt.Fprintf(b, "intellisphere_slo_state{slo=\"%s\"} %d\n", escapeLabel(a.Name), sloStateCode(a.State))
	}
}

// sloStateCode maps an alert state onto its gauge encoding.
func sloStateCode(state string) int {
	switch state {
	case obs.StatePending:
		return 1
	case obs.StateFiring:
		return 2
	case obs.StateResolved:
		return 3
	}
	return 0
}

// writeBreakers renders per-remote circuit-breaker gauges, sorted by system
// for a stable exposition. State encodes 0=closed, 1=open, 2=half-open.
func writeBreakers(b *strings.Builder, brs map[string]resilience.BreakerSnapshot) {
	if len(brs) == 0 {
		return
	}
	keys := make([]string, 0, len(brs))
	for k := range brs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	header(b, "intellisphere_breaker_state", "Circuit-breaker state per remote (0=closed, 1=open, 2=half-open).", "gauge")
	for _, k := range keys {
		fmt.Fprintf(b, "intellisphere_breaker_state{system=\"%s\"} %d\n", escapeLabel(k), int(brs[k].State))
	}
	header(b, "intellisphere_breaker_opens_total", "Times each remote's breaker opened.", "counter")
	for _, k := range keys {
		fmt.Fprintf(b, "intellisphere_breaker_opens_total{system=\"%s\"} %d\n", escapeLabel(k), brs[k].Opens)
	}
	header(b, "intellisphere_breaker_rejected_total", "Calls rejected while each remote's breaker was open.", "counter")
	for _, k := range keys {
		fmt.Fprintf(b, "intellisphere_breaker_rejected_total{system=\"%s\"} %d\n", escapeLabel(k), brs[k].Rejected)
	}
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func header(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func counter(b *strings.Builder, name, help string, v float64) {
	header(b, name, help, "counter")
	fmt.Fprintf(b, "%s %s\n", name, promFloat(v))
}

func gauge(b *strings.Builder, name, help string, v float64) {
	header(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %s\n", name, promFloat(v))
}

// histogram renders one latency histogram with cumulative le buckets, the
// +Inf bucket (overflow included), the _sum/_count pair, and — for buckets a
// traced query landed in — an exemplar suffix carrying the trace ID.
func histogram(b *strings.Builder, name, help string, s metrics.HistogramSnapshot) {
	header(b, name, help, "histogram")
	var cum uint64
	for _, bk := range s.Buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d", name, promFloat(bk.UpperBoundSec), cum)
		exemplar(b, bk.Exemplar)
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d", name, s.Count)
	exemplar(b, s.OverflowExemplar)
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s_sum %s\n", name, promFloat(s.SumSeconds))
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}

// exemplar appends an OpenMetrics exemplar suffix to a bucket sample line:
// " # {trace_id=\"...\"} value timestamp". The trace ID joins the bucket to
// GET /trace; scrapers speaking only the 0.0.4 text format ignore text after
// " # " on a sample line.
func exemplar(b *strings.Builder, e *metrics.Exemplar) {
	if e == nil || e.TraceID == 0 {
		return
	}
	fmt.Fprintf(b, " # {trace_id=\"%d\"} %s %s",
		e.TraceID, promFloat(e.ValueSec), promFloat(float64(e.UnixNano)/1e9))
}

// writeAccuracy renders the estimator-accuracy windows as labeled samples:
// one per (system, operator) pair and statistic, in the engine's
// (system, operator) order.
func writeAccuracy(b *strings.Builder, acc []engine.AccuracyStat) {
	if len(acc) == 0 {
		return
	}
	stats := []struct {
		name, help, typ string
		value           func(engine.AccuracyStat) float64
	}{
		{"intellisphere_estimator_observations_total", "Lifetime (predicted, observed) pairs scored.", "counter",
			func(s engine.AccuracyStat) float64 { return float64(s.Count) }},
		{"intellisphere_estimator_mean_q_error", "Mean q-error over the rolling window (1 is perfect).", "gauge",
			func(s engine.AccuracyStat) float64 { return s.MeanQError }},
		{"intellisphere_estimator_drifting", "1 when the window's mean q-error exceeds the drift threshold.", "gauge",
			func(s engine.AccuracyStat) float64 {
				if s.Drifting {
					return 1
				}
				return 0
			}},
	}
	for _, st := range stats {
		header(b, st.name, st.help, st.typ)
		for _, a := range acc {
			fmt.Fprintf(b, "%s{system=\"%s\",operator=\"%s\"} %s\n",
				st.name, escapeLabel(a.System), escapeLabel(a.Operator), promFloat(st.value(a)))
		}
	}
}
