// Package metrics provides the lightweight instrumentation primitives the
// serving layer exports on /metrics/prom: lock-free counters, fixed-bucket
// exponential latency histograms of one set of atomic counters each, and the
// estimator accuracy windows, one ring behind one mutex each. Everything is
// safe for concurrent use and allocation-free on the hot paths (Counter.Inc,
// Histogram.Observe, untraced ObserveExemplar, Accuracy.Observe —
// TestHotPathsDoNotAllocate). Nothing is striped: on the one P the server
// runs on, stripes only cost (DESIGN.md §15).
package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram accumulates duration observations into exponential buckets: one
// set of atomic counters, so an observation is three atomic adds and a scan
// of the bounds. The zero value is not usable; call NewLatencyHistogram.
type Histogram struct {
	bounds   []float64 // upper bound (seconds) per bucket, ascending
	counts   []atomic.Uint64
	overflow atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64

	// exemplars holds the most recent traced observation per bucket (index
	// len(bounds) is the overflow bucket). Written only by ObserveExemplar
	// when the observation carries a trace ID, read by Snapshot; a plain
	// last-writer-wins atomic pointer per slot, so the untraced hot path
	// never touches it.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one histogram observation back to the trace that produced
// it — the OpenMetrics exemplar carried on /metrics/prom bucket lines.
type Exemplar struct {
	ValueSec float64 `json:"value_sec"`
	TraceID  uint64  `json:"trace_id"`
	UnixNano int64   `json:"ts_ns"`
}

// NewLatencyHistogram builds a histogram with exponential bounds from 50 µs
// to ~100 s (factor 2 per bucket), suiting both sub-millisecond cache hits
// and multi-second cold plans.
func NewLatencyHistogram() *Histogram {
	var bounds []float64
	for b := 50e-6; b < 110; b *= 2 {
		bounds = append(bounds, b)
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(d) }

// observe records one duration and returns the seconds it counted (negative
// durations clamp to 0) and the index of the bucket it landed in,
// len(h.bounds) for the overflow bucket.
func (h *Histogram) observe(d time.Duration) (sec float64, bucket int) {
	sec = d.Seconds()
	if sec < 0 {
		sec, d = 0, 0
	}
	h.count.Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
	for i, b := range h.bounds {
		if sec <= b {
			h.counts[i].Add(1)
			return sec, i
		}
	}
	h.overflow.Add(1)
	return sec, len(h.bounds)
}

// ObserveExemplar records one duration and, when traceID is non-zero, pins
// an exemplar on the bucket the observation landed in. Traced queries pay
// one allocation and one atomic store beyond Observe; traceID 0 (the
// untraced case) is exactly Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	sec, bucket := h.observe(d)
	if traceID != 0 {
		h.exemplars[bucket].Store(&Exemplar{ValueSec: sec, TraceID: traceID, UnixNano: time.Now().UnixNano()})
	}
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	UpperBoundSec float64 `json:"le"`
	Count         uint64  `json:"count"`
	// Exemplar is the most recent traced observation that landed in this
	// bucket, when any query traced through it.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a point-in-time view of a histogram. It carries no
// quantiles: a scraper derives them from the buckets, and the SLOs take
// theirs over the delta of two snapshots (obs.deltaQuantile).
// Buckets reports every bucket with its explicit upper bound — zero counts included — so consumers (the Prometheus
// exposition above all) see the full, stable bucket layout; observations
// beyond the last bound are counted in Overflow rather than as an infinite
// bound, keeping the snapshot JSON-marshalable and round-trippable.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets,omitempty"`
	// Overflow counts observations above the last bucket bound (the +Inf
	// bucket of the Prometheus exposition).
	Overflow uint64 `json:"overflow,omitempty"`
	// OverflowExemplar is the exemplar for the overflow (+Inf) bucket.
	OverflowExemplar *Exemplar `json:"overflow_exemplar,omitempty"`
}

// Snapshot captures the histogram, reading each counter once.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sumNanos.Load()) / 1e9,
		Overflow:   h.overflow.Load(),
		Buckets:    make([]Bucket, len(h.bounds)),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = Bucket{UpperBoundSec: b, Count: h.counts[i].Load(), Exemplar: h.exemplars[i].Load()}
	}
	s.OverflowExemplar = h.exemplars[len(h.bounds)].Load()
	return s
}
