// Package metrics provides the lightweight instrumentation primitives the
// serving layer exports on /metrics/prom: lock-free counters and striped
// fixed-bucket exponential latency histograms. Everything is safe for
// concurrent use and allocation-free on the hot (Observe/Inc) paths, and the
// write paths are striped so concurrent recorders on different cores do not
// serialize on a mutex or a shared cache line.
package metrics

import (
	"sync"
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

// histStripes is the write fan-out of a Histogram. Fixed rather than sized
// from GOMAXPROCS so a histogram built early keeps scaling if the process is
// later given more cores (benchmarks sweep -cpu); 8 stripes of ~2 cache
// lines each is cheap enough to pay unconditionally.
const histStripes = 8

// histStripe is one independent accumulator. The trailing pad pushes the
// next stripe's hot fields (count/sumNanos, written on every observation)
// onto different cache lines.
type histStripe struct {
	counts   []atomic.Uint64
	overflow atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64
	_        [64]byte
}

// Histogram accumulates duration observations into exponential buckets. The
// zero value is not usable; call NewLatencyHistogram.
//
// Writes land on one of histStripes stripes; Snapshot merges them. Stripe
// selection rides sync.Pool's per-P caching: each P that observes gets a
// sticky stripe index from the pool, so steady-state recording touches only
// that core's stripe with no shared writes at all.
type Histogram struct {
	bounds  []float64 // upper bound (seconds) per bucket, ascending
	stripes [histStripes]histStripe
	idxPool sync.Pool // *int stripe indices, handed out round-robin

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
	h := &Histogram{bounds: bounds, exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1)}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Uint64, len(bounds))
	}
	var next atomic.Uint32
	h.idxPool.New = func() any {
		i := int(next.Add(1)-1) % histStripes
		return &i
	}
	return h
}

// stripe picks this P's sticky stripe. Get immediately followed by Put keeps
// the index in the pool's per-P private slot, so the same P keeps hitting the
// same stripe while different Ps spread round-robin — no goroutine IDs, no
// unsafe.
func (h *Histogram) stripe() *histStripe {
	v := h.idxPool.Get().(*int)
	s := &h.stripes[*v]
	h.idxPool.Put(v)
	return s
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	if sec < 0 {
		sec, d = 0, 0
	}
	st := h.stripe()
	st.count.Add(1)
	st.sumNanos.Add(uint64(d.Nanoseconds()))
	for i, b := range h.bounds {
		if sec <= b {
			st.counts[i].Add(1)
			return
		}
	}
	st.overflow.Add(1)
}

// ObserveExemplar records one duration and, when traceID is non-zero, pins
// an exemplar on the bucket the observation landed in. Traced queries pay
// one allocation and one atomic store beyond Observe; traceID 0 (the
// untraced case) is exactly Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	if traceID == 0 {
		h.Observe(d)
		return
	}
	sec := d.Seconds()
	if sec < 0 {
		sec, d = 0, 0
	}
	ex := &Exemplar{ValueSec: sec, TraceID: traceID, UnixNano: time.Now().UnixNano()}
	st := h.stripe()
	st.count.Add(1)
	st.sumNanos.Add(uint64(d.Nanoseconds()))
	for i, b := range h.bounds {
		if sec <= b {
			st.counts[i].Add(1)
			h.exemplars[i].Store(ex)
			return
		}
	}
	st.overflow.Add(1)
	h.exemplars[len(h.bounds)].Store(ex)
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
// quantiles: a scraper derives them from the buckets, and /history and the
// SLOs take theirs over the delta of two snapshots (obs.deltaQuantile).
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

// Snapshot captures the histogram by merging all stripes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var sumNanos uint64
	counts := make([]uint64, len(h.bounds))
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Count += st.count.Load()
		sumNanos += st.sumNanos.Load()
		s.Overflow += st.overflow.Load()
		for j := range counts {
			counts[j] += st.counts[j].Load()
		}
	}
	s.SumSeconds = float64(sumNanos) / 1e9
	s.Buckets = make([]Bucket, len(h.bounds))
	for i, b := range h.bounds {
		s.Buckets[i] = Bucket{UpperBoundSec: b, Count: counts[i], Exemplar: h.exemplars[i].Load()}
	}
	s.OverflowExemplar = h.exemplars[len(h.bounds)].Load()
	return s
}
