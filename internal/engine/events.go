package engine

import "intellisphere/internal/obs"

// SetEventRecorder attaches (or, with nil, detaches) the wide-event
// recorder. Safe to call at any time; in-flight queries observe the old
// value. While no recorder is attached the serving path pays one atomic
// load per query and nothing else.
func (e *Engine) SetEventRecorder(r *obs.Recorder) {
	e.events.Store(r)
}

// emitEvent feeds the recorder at query completion: every query observes
// the end-to-end latency histogram, then the sampler decides whether this
// one becomes a wide event. The event struct is only built after a positive
// sampling decision, so skipped queries allocate nothing here; the statement
// hash is the one the statement's lookup computed, hashed here only for a
// query that failed before it had a result to carry it.
func (e *Engine) emitEvent(rec *obs.Recorder, kind, sql string, res *QueryResult, err error, clk *stageClock, traceID uint64) {
	lat := clk.total()
	rec.Observe(lat, traceID)
	capture, ok := rec.Sample(err != nil, lat)
	if !ok {
		return
	}
	ev := &obs.Event{
		UnixNano:   clk.start.Add(lat).UnixNano(),
		Kind:       kind,
		Capture:    capture,
		SQL:        sql,
		Outcome:    "ok",
		LatencySec: lat.Seconds(),
		ParseNS:    clk.parse.Nanoseconds(),
		PlanNS:     clk.plan.Nanoseconds(),
		ExecuteNS:  clk.execute.Nanoseconds(),
		TraceID:    traceID,
	}
	if err != nil {
		ev.Outcome = "error"
		ev.Error = err.Error()
	}
	if res == nil {
		ev.StmtHash = obs.StatementHash(sql)
	} else {
		ev.StmtHash = obs.FormatStatementHash(res.stmtHash)
		ev.CacheHit = res.CacheHit
		ev.ActualSec = res.ActualSec
		ev.Retries = res.Retries
		ev.Degraded = res.Degraded
		if res.Plan != nil {
			ev.EstimatedSec = res.Plan.EstimatedSec
			ev.Systems = res.Plan.Systems()
		}
	}
	rec.Record(ev)
}
