package server

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"intellisphere/internal/metrics"
	"intellisphere/internal/obs"
	"intellisphere/internal/trace"
)

// This file is the serving surface of the continuous-observability pipeline
// (internal/obs): the wiring that attaches an Observer to the server and the
// two read endpoints over its state —
//
//	GET /events   recent wide query events from the in-memory ring
//	              (?n= bounds, ?errors=1 / ?system= / ?min_ms= / ?since=
//	              filter — the recentFilter /trace shares)
//	GET /slo      every declared objective's burn rates and alert state
//
// Both answer 404 with code "not_enabled" when the server runs without
// an observer, so probes can distinguish "disabled" from "empty".

// WithObservability attaches the observability pipeline: the engine starts
// feeding the wide-event recorder, and /events, /slo and /metrics/prom pick
// up the observer's state. The caller still owns the observer's lifecycle
// (Start with ObsSource, Stop on shutdown).
func (s *Server) WithObservability(o *obs.Observer) *Server {
	s.obs = o
	if o != nil {
		s.eng.SetEventRecorder(o.Rec)
	}
	return s
}

// ObsSource builds the cumulative-counter closure the SLO differences into
// the per-step samples its objectives score: engine query/error counters,
// admission refusals, the engine-time latency histogram, and the worst
// per-(system, operator) mean q-error.
func (s *Server) ObsSource() func() obs.Cumulative {
	return func() obs.Cumulative {
		st := s.eng.Stats()
		adm := s.adm.Stats()
		var maxQErr float64
		for _, a := range st.Accuracy {
			maxQErr = max(maxQErr, a.MeanQError)
		}
		var lat metrics.HistogramSnapshot
		if s.obs != nil {
			lat = s.obs.Rec.LatencySnapshot()
		}
		return obs.Cumulative{
			Queries:   st.Queries,
			Errors:    st.QueryErrors,
			Shed:      adm.ShedQueueFull + adm.ShedDeadline + adm.RateLimited,
			Latency:   lat,
			MaxQError: maxQErr,
		}
	}
}

// recordAdmissionEvent captures a request the admission gate refused as a
// wide event. Shed requests never reach the engine, so the serving layer is
// the only place that can log them; outcome is "shed" or "rate_limited".
func (s *Server) recordAdmissionEvent(outcome string, err error) {
	if s.obs == nil {
		return
	}
	rec := s.obs.Rec
	capture, ok := rec.Sample(true, 0)
	if !ok {
		return
	}
	rec.Record(&obs.Event{
		UnixNano: time.Now().UnixNano(),
		Kind:     "admission",
		Capture:  capture,
		Outcome:  outcome,
		Error:    err.Error(),
	})
}

// writeObsDisabled is the shared 404 for the observability endpoints on a
// server running without an observer.
func (s *Server) writeObsDisabled(w http.ResponseWriter) {
	s.writeErrorCode(w, http.StatusNotFound, "not_enabled",
		fmt.Errorf("observability not enabled (start the server with event recording on)"))
}

// eventsResponse is the GET /events payload. Total counts every event ever
// captured (the ring holds only the newest), Events is newest-first.
type eventsResponse struct {
	Total  uint64       `json:"total"`
	Events []*obs.Event `json:"events"`
}

// recentFilter is the query /trace and /events share over their rings: ?n=
// bounds the response, ?errors=1 keeps failures, ?system=hive keeps entries
// that touched the system, ?min_ms=250 keeps slow ones and, on /events only,
// ?since=ID keeps entries newer than a previously seen ID (poll cursor).
// Filters scan the whole ring and n bounds the filtered output.
type recentFilter struct {
	n          int // <= 0: unbounded
	onlyErrors bool
	system     string
	minMS      float64
	since      uint64
}

// parseRecentFilter reads the filter both endpoints accept; a missing or
// non-positive ?n= selects defaultN.
func parseRecentFilter(q url.Values, defaultN int) recentFilter {
	f := recentFilter{system: q.Get("system")}
	if f.n, _ = strconv.Atoi(q.Get("n")); f.n <= 0 {
		f.n = defaultN
	}
	f.onlyErrors, _ = strconv.ParseBool(q.Get("errors"))
	f.minMS, _ = strconv.ParseFloat(q.Get("min_ms"), 64)
	return f
}

// entryFields is what a recentFilter reads off one ring entry. The system
// filter is asked separately (touches): a trace answers it by walking spans.
type entryFields struct {
	id     uint64
	failed bool
	ms     float64
}

func traceFields(t *trace.Trace) entryFields {
	return entryFields{id: t.ID, failed: t.Error != "", ms: float64(t.DurationNanos) / 1e6}
}

func eventFields(ev *obs.Event) entryFields {
	return entryFields{id: ev.ID, failed: ev.Outcome != "ok", ms: ev.LatencySec * 1000}
}

func eventTouches(ev *obs.Event, system string) bool { return slices.Contains(ev.Systems, system) }

// recentMatching returns the newest entries of a ring (read through recent)
// that pass f, newest first and never nil. An unfiltered request reads only
// the n newest slots.
func recentMatching[T any](f recentFilter, recent func(int) []*T, fields func(*T) entryFields, touches func(*T, string) bool) []*T {
	fetch := f.n
	if f.onlyErrors || f.system != "" || f.minMS > 0 || f.since > 0 {
		fetch = 0
	}
	items := recent(fetch)
	kept := make([]*T, 0, len(items))
	for _, v := range items {
		if f.n > 0 && len(kept) == f.n {
			break
		}
		e := fields(v)
		if f.onlyErrors && !e.failed || e.id <= f.since || f.minMS > 0 && e.ms < f.minMS ||
			f.system != "" && !touches(v, f.system) {
			continue
		}
		kept = append(kept, v)
	}
	return kept
}

// handleEvents serves the wide-event ring, newest first, through a
// recentFilter (?n= defaults to 100).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.writeObsDisabled(w)
		return
	}
	q := r.URL.Query()
	f := parseRecentFilter(q, 100)
	f.since, _ = strconv.ParseUint(q.Get("since"), 10, 64)
	ring := s.obs.Rec.Ring()
	s.writeJSON(w, http.StatusOK, eventsResponse{
		Total:  ring.Count(),
		Events: recentMatching(f, ring.Recent, eventFields, eventTouches),
	})
}

// sloResponse is the GET /slo payload.
type sloResponse struct {
	Enabled    bool        `json:"enabled"`
	Firing     int         `json:"firing"`
	Objectives []obs.Alert `json:"objectives"`
}

// handleSLO serves every declared objective's evaluation: burn rates over
// both windows, alert state, and lifetime fired/resolved counts. Enabled is
// false when the observer runs without objectives. Firing is counted from
// the one snapshot the body carries, so it always agrees with the states.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.writeObsDisabled(w)
		return
	}
	resp := sloResponse{Objectives: []obs.Alert{}}
	if slo := s.obs.SLO; slo != nil {
		resp.Enabled = true
		if alerts := slo.Snapshot(); alerts != nil {
			resp.Objectives = alerts
		}
		for _, a := range resp.Objectives {
			if a.State == obs.StateFiring {
				resp.Firing++
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
