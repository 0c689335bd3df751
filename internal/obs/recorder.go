package obs

import (
	"math"
	"sync/atomic"
	"time"

	"intellisphere/internal/metrics"
)

// RecorderConfig sizes and tunes a Recorder.
type RecorderConfig struct {
	// SampleRate is the head-sampling rate in [0, 1]: the fraction of
	// ordinary (successful, fast) queries captured as events. Errors and
	// slow queries are always captured regardless. 1 captures everything;
	// 0 captures only errors and slow queries.
	SampleRate float64
	// SlowThreshold marks a query slow (always captured) when its latency
	// reaches it; <= 0 disables the slow rule.
	SlowThreshold time.Duration
	// RingSize is the in-memory event buffer capacity (<= 0 selects
	// DefaultRingSize).
	RingSize int
}

// Recorder is the engine-facing half of the event pipeline: it decides
// which queries become events (Sample), stamps them into the ring (Record),
// and owns the engine-time (parse + plan + execute) latency histogram every
// query observes into (Observe) — the series the SLO's latency samples and
// the /metrics/prom exemplars are built from.
//
// All methods are nil-receiver no-ops, so call sites can hold a possibly-nil
// *Recorder without branching.
type Recorder struct {
	ring *Ring
	// Latency is the engine-time query latency histogram (all queries, not
	// just sampled ones), with exemplars for traced queries.
	Latency *metrics.Histogram

	every     uint64 // capture 1 in every N ordinary queries; 0 = never
	slowNanos int64

	seq    atomic.Uint64 // head-sampling counter
	errors metrics.Counter
	slow   metrics.Counter
}

// NewRecorder builds a recorder. SampleRate is clamped to [0, 1] and
// converted to a 1-in-N counter gate (rate 0.001 → every 1000th query), so
// the skip path costs one atomic increment and no floating point.
func NewRecorder(cfg RecorderConfig) *Recorder {
	r := &Recorder{
		ring:    NewRing(cfg.RingSize),
		Latency: metrics.NewLatencyHistogram(),
	}
	rate := cfg.SampleRate
	switch {
	case rate >= 1:
		r.every = 1
	case rate > 0:
		r.every = uint64(math.Round(1 / rate))
	}
	if cfg.SlowThreshold > 0 {
		r.slowNanos = cfg.SlowThreshold.Nanoseconds()
	}
	return r
}

// Sample decides whether a finished query should become an event, returning
// the capture reason ("error", "slow", or "head") and whether to capture.
// Callers check ok before building the Event, so skipped queries allocate
// nothing.
func (r *Recorder) Sample(failed bool, latency time.Duration) (capture string, ok bool) {
	if failed {
		r.errors.Inc()
		return "error", true
	}
	if r.slowNanos > 0 && latency.Nanoseconds() >= r.slowNanos {
		r.slow.Inc()
		return "slow", true
	}
	if r.every > 0 && r.seq.Add(1)%r.every == 0 {
		return "head", true
	}
	return "", false
}

// Observe feeds the engine-time latency histogram, pinning an exemplar when
// the query was traced.
func (r *Recorder) Observe(latency time.Duration, traceID uint64) {
	r.Latency.ObserveExemplar(latency, traceID)
}

// Record publishes an event to the ring, assigning its ID: the ring's
// Count is the number of events ever captured.
func (r *Recorder) Record(ev *Event) {
	r.ring.Record(ev)
}

// Ring exposes the event buffer for the /events endpoint and the file sink.
func (r *Recorder) Ring() *Ring { return r.ring }

// LatencySnapshot captures the query latency histogram.
func (r *Recorder) LatencySnapshot() metrics.HistogramSnapshot { return r.Latency.Snapshot() }

// RecorderStats counts the captures of the two always-on rules, exported on
// /metrics/prom. Every capture, head-sampled ones included, is Ring().Count().
type RecorderStats struct {
	Errors uint64
	Slow   uint64
}

// Stats reports the always-on rules' capture counters.
func (r *Recorder) Stats() RecorderStats {
	return RecorderStats{Errors: r.errors.Value(), Slow: r.slow.Value()}
}
